"""exclusim benchmark: seeded workloads, checked results, one JSON result line.

Run from the repository root:

  python3 bench/run.py --workload ladders --seed 1 --seconds 30 --trace 0

Workloads are ``ladders``, ``clustering`` and ``streams`` (see
bench/README.md). With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics of a traced pass and
the tracing overhead. Every workload process is a fresh interpreter started
by this script, one at a time; the last line printed is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "units_per_s": "units/s",
    "ok_ratio": "1",
    "peak_rss_mb": "MiB",
}
# Set-up runs in this many extra processes besides the measuring one, and
# the median of all of them is reported.
SETUP_REPEATS = 4
# Every run ends within this many seconds, or fails without a result.
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(args: argparse.Namespace, mode: str, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON report."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {mode} process")
    command = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--seconds", str(args.seconds),
    ]
    t0 = time.monotonic()
    completed = subprocess.run(
        command + ["--t0", repr(t0)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining,
    )
    if completed.returncode != 0:
        raise BenchError(f"{mode} process exited with code {completed.returncode}")
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed no report")
    return json.loads(lines[-1])


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": os.getloadavg(),
        "platform": platform.platform(),
    }


def end_to_end(args: argparse.Namespace, deadline: float) -> dict:
    setups = [spawn(args, "setup", deadline) for _ in range(SETUP_REPEATS)]
    report = spawn(args, "measure", deadline)
    setups.append(report)
    digests = {s["digest"] for s in setups}
    print(f"# setup_s samples: {[round(s['setup_s'], 4) for s in setups]}"
          f" (plain seconds: {[round(s['setup_plain_s'], 4) for s in setups]})")
    print(
        f"# measured {report['passes']} passes of {report['unit_count']} units"
        f" in {report['busy_s']:.3f} s; {report['units_per_plain_s']:.4f} units per plain"
        f" second; median per-unit ms (reference): "
        + ", ".join(f"{k}={v:.3f}" for k, v in report["unit_ms"].items())
        + f" over {report['unit_samples']} units"
    )
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "units_per_s": report["units_per_s"],
        "ok_ratio": 1 - report["failed"] / report["attempted"],
        "peak_rss_mb": report["peak_rss_mb"],
    }
    return {
        "correct": report["failed"] == 0 and len(digests) == 1,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
        "digest": digests.pop() if len(digests) == 1 else None,
    }


def per_layer(args: argparse.Namespace, deadline: float) -> dict:
    report = spawn(args, "trace", deadline)
    print(f"# traced pass of {report['unit_count']} units: {report['spans']} spans"
          f" written to {report['span_file']}")
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
        "digest": report["digest"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "exclusim" / "__init__.py").is_file():
        print(f"error: no exclusim sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    env = environment()
    print("# env " + json.dumps({**env, "workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace}))
    try:
        result = per_layer(args, deadline) if args.trace else end_to_end(args, deadline)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"# inputs sha256={result.pop('digest')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
