"""Seeded inputs, units of work and result checks for the benchmark workloads.

`build(workload, seed)` generates every input of one pass from the seed and
returns the pass as a list of `Unit`s. A unit's `run` makes the program calls
a user would make and checks their results; it returns True when every check
holds. Only `run` is timed, so input generation (including the program code
the generators call) counts as set-up.

Workloads, and why each exists (bench/README.md has the full account):

- ``ladders``: criterion-6 probe ladders for regression, 34 cases at each
  width d in {1, 2, 3}. Short ledgers; time goes to moment accumulation,
  rational solves and per-poll ladder rescans. No clustering.
- ``clustering``: criterion-4 forceable winners (k-center and k-median) and
  criterion-7 periodic confounders. Time goes to the exhaustive clustering
  solve; the engine only runs two rounds, so moments and long ledgers are
  bypassed.
- ``streams``: six long continuous streams sent through the scenario path
  (``scenario_from_dict`` -> ``run_scenario`` -> ``trace_lines``), as
  ``exclusim run`` does. Per-element cost grows with stream position, and
  only long streams show it. The unit counted is a nature element.

Where a unit's cost follows the shape of its input (element count, union
size, k), units are drawn from the seed but stratified by that shape, so
every seed has the same mix of problem sizes and only the values change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional

from exclusim.algorithms import (
    CentersOutput,
    CoefficientsOutput,
    DlrAlgorithm,
    KCenterAlgorithm,
    KMedianAlgorithm,
    ScalarOutput,
)
from exclusim.harness import (
    check_condition_i,
    forceable_instance,
    forceable_winner_set,
    kcenter_periodic_scenario,
    lr_periodic_scenario,
    make_triangulation_cases,
    periodic_kcenter_omission_confounder,
    periodic_lambda_confounder,
)
from exclusim.protocol import (
    KIND_FACTUAL,
    KIND_LEDGER,
    Run,
    broadcast_pairing_ok,
    ell_guard_respected,
    extract,
    observed_history,
)
from exclusim.scenario import run_scenario, scenario_from_dict, trace_lines
from exclusim.strategies import (
    max_infer,
    triangulation_attack,
    triangulation_infer_from_history,
)

WORKLOADS = ("ladders", "clustering", "streams")
_SEARCH_LIMIT = 100_000


@dataclass(frozen=True)
class Unit:
    """One timed piece of work.

    `weight` is how many workload units it counts for: 1 for a case or an
    instance, the number of nature elements for a stream. `inputs` is the
    generated input in a form `canonical` can encode, for the digest.
    """

    kind: str
    weight: int
    inputs: object
    run: Callable[[], bool]


def build(workload: str, seed: int) -> list[Unit]:
    """Every unit of one pass of `workload`, generated from `seed`."""
    if workload == "ladders":
        return ladder_units(seed)
    if workload == "clustering":
        return clustering_units(seed)
    if workload == "streams":
        return stream_units(seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


# =============================================================================
# Input digest
# =============================================================================


def canonical(value: object) -> object:
    """A JSON-encodable form of generated inputs that does not rely on repr."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value):
        return {
            "type": type(value).__name__,
            **{f.name: canonical(getattr(value, f.name)) for f in dataclasses.fields(value)},
        }
    raise TypeError(f"cannot encode {type(value).__name__} in an input digest")


def input_bytes(units: list[Unit]) -> bytes:
    return json.dumps(
        [[u.kind, u.weight, canonical(u.inputs)] for u in units],
        sort_keys=True,
        separators=(",", ":"),
    ).encode()


def digest(units: list[Unit]) -> str:
    """SHA-256 of the generated inputs; equal digests mean the same work."""
    return hashlib.sha256(input_bytes(units)).hexdigest()


# =============================================================================
# Shared checks
# =============================================================================


def ledger_is_factual(run: Run) -> bool:
    """A truthful run lost nothing: its ledger is its factual sequence.

    The update guard drops wishes without a signal, so a truthful baseline
    can silently miss data; this check makes such a drop a failed unit.
    """
    return extract(run, KIND_LEDGER) == extract(run, KIND_FACTUAL)


def stratified(draw: Callable[[], object], stratum: Callable, quotas: dict, pool: int) -> list:
    """Draws that fill `quotas` (stratum -> count), in the order drawn.

    Exactly `pool` draws are made whatever they yield, so generation costs
    about the same on every seed; more are made only when the pool left a
    quota short.
    """
    wanted = dict(quotas)
    chosen = []
    for drawn in range(1, _SEARCH_LIMIT + 1):
        item = draw()
        key = stratum(item)
        if wanted.get(key, 0) > 0:
            wanted[key] -= 1
            chosen.append(item)
        if drawn >= pool and not any(wanted.values()):
            return chosen
    raise RuntimeError(f"strata {wanted} still short after {_SEARCH_LIMIT} draws")


# =============================================================================
# ladders
# =============================================================================

LADDER_WIDTHS = (1, 2, 3)
LADDER_ATTACKER = 2
# (nature elements, capped at 4 or, with own rows, at 5; whether the
# attacker gets rows of its own) -> cases per width and pass. A case's cost
# follows its element count and the attacker's own rows, so fixing this mix
# (near the generator's own) fixes the cost mix across seeds; the rows come
# from the seed.
LADDER_STRATA = {
    (1, False): 10, (2, False): 6, (3, False): 4, (4, False): 3,
    (3, True): 5, (4, True): 3, (5, True): 3,
}
LADDER_POOL = 200


def ladder_units(seed: int) -> list[Unit]:
    rng = random.Random(f"bench:ladders:{seed}")
    per_width = {d: _ladder_cases(d, rng) for d in LADDER_WIDTHS}
    units = []
    # Widths are interleaved so that every stretch of the pass has the same mix.
    for cases in zip(*per_width.values()):
        for d, case in zip(LADDER_WIDTHS, cases):
            units.append(Unit(f"ladder.d{d}", 1, (d, case), _ladder_run(d, case)))
    return units


def _ladder_stratum(case) -> tuple[int, bool]:
    own = any(e.agent == LADDER_ATTACKER for e in case.ninput)
    return min(len(case.ninput), 5 if own else 4), own


def _ladder_cases(d: int, rng: random.Random) -> list:
    generate = make_triangulation_cases(d, j=LADDER_ATTACKER)
    return stratified(
        lambda: generate(rng.randrange(10**9)), _ladder_stratum, LADDER_STRATA, LADDER_POOL
    )


def _ladder_run(d, case) -> Callable[[], bool]:
    def run() -> bool:
        verdict = check_condition_i(
            DlrAlgorithm(d), triangulation_attack(d), LADDER_ATTACKER, case.ninput,
            ell=case.ell, agent_count=case.agent_count,
        )
        result = triangulation_infer_from_history(
            observed_history(verdict.run_attack, LADDER_ATTACKER), d
        )
        return (
            verdict.differs
            and result.truth_output == verdict.truth_final
            and result.sigma_matrix.det() != 0
            and result.delta_matrix.det() != 0
            and ledger_is_factual(verdict.run_truth)
        )

    return run


# =============================================================================
# clustering
# =============================================================================

# (union size, k) -> instances per pass. The exhaustive solve costs about
# C(n, k) * n * k distance evaluations, so fixing the size mix fixes the cost
# mix across seeds; only the coordinates come from the seed.
KCENTER_STRATA = {
    (5, 3): 3, (6, 4): 3, (7, 3): 3, (7, 4): 3, (8, 3): 3, (8, 4): 3,
    (9, 3): 3, (9, 4): 3, (10, 3): 3, (10, 4): 3, (11, 3): 3, (11, 4): 3,
}
KMEDIAN_STRATA = {
    (5, 3): 3, (6, 4): 3, (7, 3): 3, (8, 4): 3, (9, 3): 3,
    (10, 4): 3, (11, 3): 3, (12, 4): 3, (13, 3): 3,
}
LR_CONFOUNDERS = 36
# k-center confounders re-simulate several candidate pairs and form the slow
# tail. Those with k=4 take about ten times longer than k=3 ones (seconds
# each), too long for one unit of a pass, so the pass holds k=3 ones only.
KCENTER_CONFOUNDERS = 4
KCENTER_CONFOUNDER_K = 3
# Draws per pool (see `stratified`); each k-center scenario draw runs two
# clustering solves, so that pool is small.
FORCEABLE_POOL = 300
KCENTER_CONFOUNDER_POOL = 16
CONFOUNDER_ATTACKER = 2


def clustering_units(seed: int) -> list[Unit]:
    rng = random.Random(f"bench:clustering:{seed}")
    groups = [
        _forceable_units("kcenter", KCENTER_STRATA, rng),
        _forceable_units("kmedian", KMEDIAN_STRATA, rng),
        _lr_confounder_units(rng),
        _kcenter_confounder_units(rng),
    ]
    # Round-robin over the groups so the kinds are spread through the pass.
    units = []
    longest = max(len(g) for g in groups)
    for i in range(longest):
        units.extend(g[i] for g in groups if i < len(g))
    return units


def _forceable_units(kind: str, strata: dict, rng: random.Random) -> list[Unit]:
    def draw():
        base, x, k = forceable_instance(kind, rng.randrange(10**9))
        return base, x, k, forceable_winner_set(kind, base, x, k=k)

    def stratum(instance):
        base, _, k, bar = instance
        return len(set(base.points) | set(bar.points)), k

    return [
        Unit(kind, 1, (base, x, k), _forceable_run(kind, base, x, k))
        for base, x, k, _ in stratified(draw, stratum, strata, FORCEABLE_POOL)
    ]


def _forceable_run(kind, base, x, k) -> Callable[[], bool]:
    def run() -> bool:
        bar = forceable_winner_set(kind, base, x, k=k)
        if kind == "kcenter":
            out = KCenterAlgorithm(k).compute((base, bar))
            return isinstance(out, CentersOutput) and x in out.centers
        out = KMedianAlgorithm(k).compute((base, bar))
        if not isinstance(out, CentersOutput):
            return False
        centers = out.centers
        if len(centers) != k or centers[0] != x:
            return False
        scale = (centers[1][0] - x[0]) / 10
        return scale > 0 and all(
            centers[t][0] == x[0] + Fraction(10) ** t * scale for t in range(1, k)
        )

    return run


def _confounder_run(confounder, algorithm, strategy, case) -> Callable[[], bool]:
    def run() -> bool:
        witness = confounder(
            algorithm, case.ninput, strategy, CONFOUNDER_ATTACKER,
            agent_count=case.agent_count,
        )
        return (
            witness is not None
            and witness.observed_equal_under_attack
            and not witness.observed_equal_under_truth
        )

    return run


def _lr_confounder_units(rng: random.Random) -> list[Unit]:
    units = []
    for _ in range(LR_CONFOUNDERS):
        algorithm, strategy, case = lr_periodic_scenario(rng.randrange(10**9))
        units.append(
            Unit("lr_confounder", 1, case,
                 _confounder_run(periodic_lambda_confounder, algorithm, strategy, case))
        )
    return units


def _kcenter_confounder_units(rng: random.Random) -> list[Unit]:
    scenarios = stratified(
        lambda: kcenter_periodic_scenario(rng.randrange(10**9)),
        lambda scenario: scenario[0].k,
        {KCENTER_CONFOUNDER_K: KCENTER_CONFOUNDERS},
        KCENTER_CONFOUNDER_POOL,
    )
    return [
        Unit("kcenter_confounder", 1, (algorithm.k, case),
             _confounder_run(periodic_kcenter_omission_confounder, algorithm, strategy, case))
        for algorithm, strategy, case in scenarios
    ]


# =============================================================================
# streams
# =============================================================================

# Lengths keep one pass near 3 s (reference seconds, see worker.py), so a
# 30 s run repeats every stream several times; all of them are deep in the
# regime where the per-element cost grows with stream position.
STREAM_LENGTHS = {
    "max": 1000,
    "max_echo": 1000,
    "average": 500,
    "dlr": 100,
    "triangulation": 28,
    "kcenter": 120,
}
STREAM_AGENTS = 3
KCENTER_POOL = 8
KCENTER_K = 2
MAX_ECHO_ATTACKER = 1
TRIANGULATION_ATTACKER = 2
TRIANGULATION_OWN_ELEMENTS = 4


@dataclass(frozen=True)
class StreamSpec:
    """A scenario dict plus the oracle the benchmark computed for it.

    For truthful streams `expected` is the final output; for attacked streams
    it is the truthful final the attacker's inference must recover.
    """

    kind: str
    scenario: dict
    expected: object
    attacker: Optional[int] = None


def stream_units(seed: int) -> list[Unit]:
    rng = random.Random(f"bench:streams:{seed}")
    return [stream_unit(stream_spec(kind, rng, length)) for kind, length in STREAM_LENGTHS.items()]


def stream_spec(kind: str, rng: random.Random, length: int) -> StreamSpec:
    """One stream of `kind` with `length` nature elements, and its oracle."""
    return _STREAM_BUILDERS[kind](rng, length)


def stream_unit(spec: StreamSpec) -> Unit:
    elements = len(spec.scenario["nature_input"])
    return Unit(f"stream.{spec.kind}", elements, (spec.scenario, spec.expected),
                _stream_run(spec))


def _stream_run(spec: StreamSpec) -> Callable[[], bool]:
    def run() -> bool:
        scenario = scenario_from_dict(spec.scenario)
        result = run_scenario(scenario)
        lines = trace_lines(result)
        ok = (
            len(lines) == len(result.messages)
            and ell_guard_respected(result)
            and broadcast_pairing_ok(result)
        )
        if spec.kind == "max_echo":
            inferred = max_infer(observed_history(result, spec.attacker))
            return ok and inferred == ScalarOutput(spec.expected)
        if spec.kind == "triangulation":
            inferred = triangulation_infer_from_history(
                observed_history(result, spec.attacker), 1
            ).truth_output
            return ok and inferred == CoefficientsOutput(spec.expected)
        return ok and ledger_is_factual(result) and _final_matches(spec, result)

    return run


def _final_matches(spec: StreamSpec, result: Run) -> bool:
    final = result.final_output()
    if spec.kind in ("max", "average"):
        return final == ScalarOutput(spec.expected)
    if spec.kind == "dlr":
        return final == CoefficientsOutput(spec.expected)
    return final == CentersOutput(spec.expected)


def _rational(rng: random.Random, lo: int, hi: int, denominators=(1, 2, 3, 4)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(denominators))


def _wire(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _rotation(rng: random.Random, length: int, avoid_first: Optional[int] = None) -> list[int]:
    """Recipients such that no agent gets two elements in a row.

    With ell=1 a truthful agent handed two elements in a row would have its
    second echo dropped by the update guard, so this is the rotation rule of
    the harness generators that keeps truthful ledgers lossless.
    """
    agents: list[int] = []
    for position in range(length):
        choices = [a for a in range(1, STREAM_AGENTS + 1) if not agents or a != agents[-1]]
        if position == 0 and avoid_first is not None:
            choices.remove(avoid_first)
        agents.append(rng.choice(choices))
    return agents


def _scenario(algorithm: dict, ell: int, elements: list, strategies: Optional[dict] = None) -> dict:
    return {
        "protocol": "continuous",
        "ell": ell,
        "agents": STREAM_AGENTS,
        "algorithm": algorithm,
        "strategies": strategies or {},
        "nature_input": elements,
    }


def _scalar_stream(rng: random.Random, length: int, attacker: Optional[int]):
    values = [_rational(rng, -999, 999) for _ in range(length)]
    agents = _rotation(rng, length, avoid_first=attacker)
    elements = [
        {"agent": a, "payload": {"kind": "scalar", "value": _wire(v)}}
        for a, v in zip(agents, values)
    ]
    return elements, max(values)


def _max_stream(rng: random.Random, length: int) -> StreamSpec:
    elements, top = _scalar_stream(rng, length, None)
    return StreamSpec("max", _scenario({"name": "max"}, 1, elements), top)


def _max_echo_stream(rng: random.Random, length: int) -> StreamSpec:
    # The echo attacker never gets the first element, so it always has a
    # broadcast to echo; the truthful maximum is still visible to its inference.
    elements, top = _scalar_stream(rng, length, MAX_ECHO_ATTACKER)
    strategies = {str(MAX_ECHO_ATTACKER): {"name": "max_echo"}}
    return StreamSpec(
        "max_echo", _scenario({"name": "max"}, 1, elements, strategies), top,
        attacker=MAX_ECHO_ATTACKER,
    )


def _average_stream(rng: random.Random, length: int) -> StreamSpec:
    elements = []
    total, count = Fraction(0), 0
    for agent in _rotation(rng, length):
        values = sorted({_rational(rng, -99, 99, (1, 2)) for _ in range(rng.randint(1, 3))})
        total += sum(values)
        count += len(values)
        elements.append({
            "agent": agent,
            "payload": {"kind": "points", "points": [[_wire(v)] for v in values]},
        })
    return StreamSpec("average", _scenario({"name": "average"}, 1, elements), total / count)


def _rows_payload(rows: list[tuple[Fraction, Fraction]]) -> dict:
    return {
        "kind": "rows",
        "rows": [{"features": ["1/1", _wire(x)], "target": _wire(y)} for x, y in rows],
    }


def _random_rows(rng: random.Random, count: int) -> list[tuple[Fraction, Fraction]]:
    return [(_rational(rng, -10, 10, (1, 2)), _rational(rng, -10, 10, (1, 2))) for _ in range(count)]


def _warm_rows(rng: random.Random, count: int) -> list[tuple[Fraction, Fraction]]:
    """Opening rows with at least two distinct x, so the first fit is unique."""
    while True:
        rows = _random_rows(rng, count)
        if len({x for x, _ in rows}) >= 2:
            return rows


def fit_line(rows: list[tuple[Fraction, Fraction]]) -> tuple[Fraction, Fraction]:
    """Least-squares intercept and slope from the 2x2 normal equations."""
    n = len(rows)
    sx = sum(x for x, _ in rows)
    sy = sum(y for _, y in rows)
    sxx = sum(x * x for x, _ in rows)
    sxy = sum(x * y for x, y in rows)
    det = n * sxx - sx * sx
    return (sxx * sy - sx * sxy) / det, (n * sxy - sx * sy) / det


def _dlr_stream(rng: random.Random, length: int) -> StreamSpec:
    agents = _rotation(rng, length)
    batches = [_warm_rows(rng, rng.randint(2, 3))]
    batches += [_random_rows(rng, rng.randint(1, 2)) for _ in agents[1:]]
    elements = [{"agent": a, "payload": _rows_payload(b)} for a, b in zip(agents, batches)]
    rows = [row for batch in batches for row in batch]
    return StreamSpec(
        "dlr", _scenario({"name": "dlr", "params": {"d": 1}}, 1, elements), fit_line(rows)
    )


def _triangulation_stream(rng: random.Random, length: int) -> StreamSpec:
    """A d=1 probe-ladder stream laid out like the harness's ladder cases.

    Hidden agents never get more than d+1 elements in a row (the window is
    d+2), and the attacker's own elements always sit between two hidden ones,
    so every echo re-triggers a ladder and no truthful echo is dropped.
    """
    d = 1
    hidden = [a for a in range(1, STREAM_AGENTS + 1) if a != TRIANGULATION_ATTACKER]
    recipients = [1]
    streak = 1
    for _ in range(length - 1 - TRIANGULATION_OWN_ELEMENTS):
        choices = [a for a in hidden if a != recipients[-1] or streak <= d]
        agent = rng.choice(choices)
        streak = streak + 1 if agent == recipients[-1] else 1
        recipients.append(agent)
    slots = rng.sample(range(1, len(recipients)), TRIANGULATION_OWN_ELEMENTS)
    for offset, slot in enumerate(sorted(slots)):
        recipients.insert(slot + offset, TRIANGULATION_ATTACKER)
    batches = [_warm_rows(rng, rng.randint(2, 3))]
    batches += [_random_rows(rng, rng.randint(1, 3)) for _ in recipients[1:]]
    elements = [{"agent": a, "payload": _rows_payload(b)} for a, b in zip(recipients, batches)]
    rows = [row for batch in batches for row in batch]
    strategies = {str(TRIANGULATION_ATTACKER): {"name": "triangulation", "params": {"d": d}}}
    return StreamSpec(
        "triangulation",
        _scenario({"name": "dlr", "params": {"d": d}}, d + 2, elements, strategies),
        fit_line(rows),
        attacker=TRIANGULATION_ATTACKER,
    )


def kcenter_oracle(values: list[Fraction], k: int) -> tuple[tuple[Fraction], ...]:
    """Brute-force k centers on the line with the documented tie-break.

    Cost is the largest squared distance to the nearest center; ties go to
    the smaller sum of squared center norms, then to lexicographic order.
    """
    universe = sorted(set(values))
    best = min(
        combinations(universe, k),
        key=lambda cs: (
            max(min((v - c) ** 2 for c in cs) for v in universe),
            sum(c * c for c in cs),
            cs,
        ),
    )
    return tuple((c,) for c in best)


def _kcenter_stream(rng: random.Random, length: int) -> StreamSpec:
    pool = set()
    while len(pool) < KCENTER_POOL:
        pool.add(_rational(rng, -50, 50, (1, 2)))
    pool = sorted(pool)
    elements = []
    seen = []
    for agent in _rotation(rng, length):
        values = sorted(rng.sample(pool, rng.randint(1, 2)))
        seen.extend(values)
        elements.append({
            "agent": agent,
            "payload": {"kind": "points", "points": [[_wire(v)] for v in values]},
        })
    algorithm = {"name": "kcenter", "params": {"k": KCENTER_K}}
    return StreamSpec(
        "kcenter", _scenario(algorithm, 1, elements), kcenter_oracle(seen, KCENTER_K)
    )


_STREAM_BUILDERS = {
    "max": _max_stream,
    "max_echo": _max_echo_stream,
    "average": _average_stream,
    "dlr": _dlr_stream,
    "triangulation": _triangulation_stream,
    "kcenter": _kcenter_stream,
}
