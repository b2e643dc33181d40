"""One workload in a fresh interpreter: set up, then measure or trace.

`run.py` starts this script once per process it needs; it prints one JSON
object on its last line of output.

  --mode setup    import exclusim, generate the inputs, report set-up time
  --mode measure  then run whole passes for about --seconds, tracing off
  --mode trace    then alternate untraced and traced passes over the inputs

Set-up time is taken from `--t0`, a `time.monotonic()` reading the parent
takes just before it starts this process. The monotonic clock is shared by
every process on the machine, so the figure covers interpreter start,
importing exclusim and generating the inputs. Times are reported in
reference seconds (see REFERENCE_LOOP_S); plain seconds are kept alongside.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPAN_DIR = BENCH / "out"
# A unit's time is its median over at least this many passes.
MIN_PASSES = 3
# Other tenants of a shared machine slow it by up to half, in phases that
# last from seconds to minutes and can cover a whole run. So every time the
# benchmark reports is in reference seconds: the measured time multiplied by
# REFERENCE_LOOP_S over the time `reference_loop` took around it. A slowdown
# of the whole machine stretches both and cancels out; a change to exclusim
# moves only the first. REFERENCE_LOOP_S is the loop's time at full speed,
# its fastest of 600 runs on a 2.1 GHz Xeon with CPython 3.11.7.
REFERENCE_LOOP_S = 0.005
# Unit time between two runs of the reference loop.
CALIBRATE_EVERY_S = 0.25
# Runs of the reference loop right after set-up; their median scales it.
SETUP_LOOPS = 5
# A traced run makes this many untraced and as many traced passes.
TRACE_ROUNDS = 2


def percentiles(samples: list[float]) -> dict[str, float]:
    """The median, plus the 90th percentile once 10 samples lie beyond it."""
    result = {"p50": statistics.median(samples)}
    if len(samples) >= 100:
        ordered = sorted(samples)
        result["p90"] = ordered[math.ceil(0.9 * len(ordered)) - 1]
    return result


def reference_loop() -> int:
    """Fixed pure-Python work in exclusim's own style: small `Fraction`
    arithmetic and comparisons, tuples and list appends."""
    total = Fraction(0)
    rows = []
    for i in range(1, 1200):
        value = Fraction(i % 17 - 8, i % 5 + 1)
        total += value * value
        rows.append((value, total))
        if total > 1000:
            total /= 7
    return len(rows)


def loop_seconds() -> float:
    """How long one `reference_loop` takes right now, with the GC paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def run_pass(units, tracer=None) -> list[tuple[float, float, bool, int]]:
    """Run every unit once: (seconds, reference seconds, passed, weight) each.

    The reference loop runs before the first unit and again whenever
    `CALIBRATE_EVERY_S` of unit time has gone by; a unit's reference seconds
    are its seconds scaled by the loops on either side of it (see
    `REFERENCE_LOOP_S`). A unit that raises counts as failed; its traceback
    goes to stderr once per unit kind, so one broken path does not flood
    the output.
    """
    records: list[tuple[float, float, bool, int]] = []
    reported = set()
    pending: list[tuple[float, bool, int]] = []
    previous_loop = loop_seconds()
    since = 0.0

    def settle() -> None:
        nonlocal previous_loop, since
        loop = loop_seconds()
        scale = REFERENCE_LOOP_S / ((previous_loop + loop) / 2)
        records.extend((t, t * scale, passed, weight) for t, passed, weight in pending)
        pending.clear()
        previous_loop, since = loop, 0.0

    for index, unit in enumerate(units):
        if tracer is not None:
            tracer.unit = index
        start = time.perf_counter()
        try:
            passed = bool(unit.run())
        except Exception:  # a failing unit is a result, not a crash
            passed = False
            if unit.kind not in reported:
                reported.add(unit.kind)
                traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - start
        pending.append((elapsed, passed, unit.weight))
        since += elapsed
        if since >= CALIBRATE_EVERY_S:
            settle()
    if pending:
        settle()
    return records


def measure(units, seconds: float) -> list[list[tuple[float, float, bool, int]]]:
    """Whole passes, at least `MIN_PASSES`, while another one fits in `seconds`."""
    passes: list[list[tuple[float, float, bool, int]]] = []
    busy = 0.0
    while True:
        batch = run_pass(units)
        passes.append(batch)
        elapsed = sum(r[0] for r in batch)
        busy += elapsed
        if len(passes) >= MIN_PASSES and busy + elapsed > seconds:
            return passes


def summarize(passes: list[list[tuple[float, float, bool, int]]]) -> dict:
    """Throughput from each unit's median time over the passes, in reference
    seconds; the same in plain seconds is kept for the record."""
    medians = [
        (statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs))
        for runs in zip(*passes)
    ]
    units = sum(r[3] for r in passes[0])
    attempted = sum(r[3] for p in passes for r in p)
    failed = sum(r[3] for p in passes for r in p if not r[2])
    reference = [ref for _, ref in medians]
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "busy_s": sum(r[0] for p in passes for r in p),
        "units_per_s": units / sum(reference),
        "units_per_plain_s": units / sum(plain for plain, _ in medians),
        "unit_ms": {k: v * 1e3 for k, v in percentiles(reference).items()},
        "unit_samples": len(reference),
    }


def alternate_traced(units, modules):
    """Untraced and traced passes in turn, each kind going first in every
    other round, so neither gains from running on a warmer process.

    Returns both kinds of pass and the tracer of the first traced pass; the
    metrics and the span file come from that one.
    """
    import layers
    from tracer import Tracer

    untraced, traced, tracers = [], [], []
    for round_ in range(TRACE_ROUNDS):
        for tracing in (False, True) if round_ % 2 == 0 else (True, False):
            if not tracing:
                untraced.append(run_pass(units))
                continue
            tracers.append(Tracer())
            patches = layers.install(tracers[-1], modules)
            try:
                traced.append(run_pass(units, tracers[-1]))
            finally:
                patches.restore()
    return untraced, traced, tracers[0]


def import_exclusim() -> None:
    """Import exclusim from this checkout's sources, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import exclusim

    origin = Path(exclusim.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"exclusim was imported from {origin}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    import_exclusim()
    import workloads

    units = workloads.build(args.workload, args.seed)
    setup_s = time.monotonic() - args.t0
    loop = statistics.median(loop_seconds() for _ in range(SETUP_LOOPS))
    out = {
        "setup_s": setup_s * REFERENCE_LOOP_S / loop,
        "setup_plain_s": setup_s,
        "digest": workloads.digest(units),
        "unit_count": len(units),
    }

    if args.mode == "measure":
        gc.collect()
        out.update(summarize(measure(units, args.seconds)))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    elif args.mode == "trace":
        import layers

        gc.collect()
        untraced, traced, tracer = alternate_traced(
            units, layers.package_modules() + [workloads]
        )
        plain, wrapped = summarize(untraced), summarize(traced)
        overhead = plain["units_per_s"] / wrapped["units_per_s"]
        out["attempted"] = plain["attempted"] + wrapped["attempted"]
        out["failed"] = plain["failed"] + wrapped["failed"]
        values = layers.layer_metrics(tracer, sum(u.weight for u in units), overhead)
        out["metrics"] = {k: {"value": v, "unit": layers.PER_LAYER[k][0]} for k, v in values.items()}
        out["spans"] = len(tracer.names)
        span_file = SPAN_DIR / f"spans-{args.workload}.tsv"
        tracer.write(span_file)
        out["span_file"] = str(span_file.relative_to(ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
