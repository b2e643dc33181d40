"""From-scratch aggregations and engines: the oracle for the incremental folds.

Each aggregation here recomputes its output over the whole ledger, and the
reference engine calls it on the whole ledger at every broadcast, which is
how the library worked before its algorithms became folds over a running
state. The differential tests in `test_algorithms.py` and `test_protocol.py`
compare the two.

`reference_clustering` is the oracle of the exact clustering solvers: it
costs every k-subset from scratch with `Fraction` distances, as the solvers
did before they worked on one integer coordinate scale.
`reference_line_kcenter` is the k-center body of `algorithms._solve_line`
as it was before a greedy cover test found its radius: both the radius and
the tie-break come from a dynamic program over every run of the line.

`reference_moments` sums the regression moments as `Fraction` outer
products, the oracle of the integer kernel `ScaledMoments.plus_rows` and of
`algorithms.moments`; `divided` turns a `ScaledMoments` into the same
`MomentPair` for comparison. `lr_cost` and
`predict` evaluate a fit row by row, the oracle of the harness's cost gaps.

`reference_points`, `reference_union` and `reference_rows` read a ledger's
points and rows with the oracle's own kind, dimension and width tests,
raising the messages the folds raise, so the oracle shares no acceptance
code with the `Algorithm.check` methods it is compared against.

`broadcasts` lists a run's broadcast outputs in order, for tests that read
more of a transcript than `Run.final_output`. `CountingLog` is a message log
that counts the entries a view reads from it.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction
from collections.abc import Sequence as SequenceABC
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from exclusim.algorithms import (
    DEFAULT_MAX_UNION,
    MIXED_DIMENSIONS,
    NORM_INF,
    AlgorithmOutput,
    AverageAlgorithm,
    CentersOutput,
    CoefficientsOutput,
    DlrAlgorithm,
    Empty,
    InstanceTooLargeError,
    KCenterAlgorithm,
    KMedianAlgorithm,
    MaxAlgorithm,
    NoOutputError,
    NormOrder,
    NotEnoughPointsError,
    NullOutput,
    ParamError,
    PayloadError,
    Point,
    PointSet,
    Row,
    RowMultiset,
    Scalar,
    ScalarOutput,
    ScaledMoments,
    UnsupportedNormError,
    UpdatePayload,
    check_norm_order,
    format_point,
    kcenter_solution,
    kmedian_solution,
)
from exclusim.numerics import RMatrix
from exclusim.protocol import (
    FactualDelivery,
    LedgerUpdate,
    Message,
    NatureElement,
    ObservedHistory,
    OutputBroadcast,
    Run,
    SafetyCapExceededError,
    Strategy,
    truthful_strategy,
)
from reference_linalg import add, scale, zeros


class CountingLog(SequenceABC):
    """A log that counts the entries read from it."""

    def __init__(self, messages):
        self.messages, self.reads = messages, 0

    def __len__(self):
        return len(self.messages)

    def __getitem__(self, index):
        self.reads += 1
        return self.messages[index]


def outcome(function, *args, **kwargs):
    """What a call returns, or the type of the exception it raises."""
    try:
        return function(*args, **kwargs)
    except Exception as exc:  # the raised type is part of the compared outcome
        return type(exc)


class MomentPair(NamedTuple):
    """Gram matrix X^T X and cross-moment vector X^T y of a row multiset."""

    gram: RMatrix
    cross: RMatrix


def reference_moments(rows: Sequence[Row], width: Optional[int] = None) -> MomentPair:
    """X^T X and X^T y summed as 1 x w outer products over `Fraction`."""
    rows = tuple(rows)
    width = rows[0].width if width is None else width
    gram = zeros(width, width)
    cross = zeros(width, 1)
    for row in rows:
        if row.width != width:
            raise PayloadError(f"row width {row.width} does not match {width}")
        x = RMatrix([row.features])
        gram = add(gram, x.transpose() @ x)
        cross = add(cross, scale(x.transpose(), row.target))
    return MomentPair(gram, cross)


def divided(m: ScaledMoments) -> MomentPair:
    """The `Fraction` moments of a `ScaledMoments`: each block over its scale."""
    return MomentPair(
        RMatrix([[Fraction(v, m.gram_scale) for v in row] for row in m.gram]),
        RMatrix([[Fraction(v, m.cross_scale)] for v in m.cross]),
    )


def predict(coefficients: Point, features: Point) -> Fraction:
    if len(coefficients) != len(features):
        raise PayloadError("coefficient/feature length mismatch")
    return sum((c * x for c, x in zip(coefficients, features)), Fraction(0))


def lr_cost(rows: Union[RowMultiset, Sequence[Row]], coefficients: Point) -> Fraction:
    """Sum of squared residuals; additive over multiset union, linear in copies."""
    seq = rows.rows if isinstance(rows, RowMultiset) else tuple(rows)
    total = Fraction(0)
    for row in seq:
        residual = row.target - predict(coefficients, row.features)
        total += residual * residual
    return total


def fit_from_moments(m: MomentPair) -> AlgorithmOutput:
    """The least-squares fit the moments determine, Null while the Gram matrix is singular."""
    solution = m.gram.solve(m.cross)
    if solution is None:
        return NullOutput()
    return CoefficientsOutput(solution.column_values())


def rational_sqrt(value: Fraction) -> Optional[Fraction]:
    """Exact square root of a non-negative rational, or None if irrational."""
    if value < 0:
        raise ValueError("square root of a negative rational")
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def norm_key(point: Point, p: NormOrder) -> Fraction:
    """A rational magnitude key, monotone in the L_p norm.

    For p=1 and p=inf this is the norm itself; for p=2 it is the squared
    norm, which orders identically and keeps every comparison inside Q.
    """
    if p == 1:
        return sum((abs(x) for x in point), Fraction(0))
    if p == 2:
        return sum((x * x for x in point), Fraction(0))
    if p == NORM_INF:
        return max((abs(x) for x in point), default=Fraction(0))
    raise ParamError(f"norm order must be 1, 2 or '{NORM_INF}', got {p!r}")


def dist_key(a: Point, b: Point, p: NormOrder) -> Fraction:
    if len(a) != len(b):
        raise PayloadError(
            f"points of different dimension: {format_point(a)} vs {format_point(b)}"
        )
    return norm_key(tuple(x - y for x, y in zip(a, b)), p)


def true_distance(a: Point, b: Point, p: NormOrder) -> Fraction:
    """The actual L_p distance; raises when it would leave the rationals."""
    key = dist_key(a, b, p)
    if p != 2:
        return key
    root = rational_sqrt(key)
    if root is None:
        raise UnsupportedNormError(
            f"euclidean distance between {format_point(a)} and {format_point(b)} is "
            "irrational; use p=1 or p='inf', or 1-dimensional data"
        )
    return root


def _reference_cost(points, centers, p, median):
    total = Fraction(0)
    worst = Fraction(0)
    for point in points:
        if median:
            nearest = min(true_distance(point, c, p) for c in centers)
            total += nearest
        else:
            nearest = min(dist_key(point, c, p) for c in centers)
            worst = max(worst, nearest)
    return total if median else worst


def reference_clustering(points, k, p, median, max_union=DEFAULT_MAX_UNION) -> CentersOutput:
    """The exhaustive solve the table-based solver replaced, kept as its oracle.

    Every k-subset is costed from scratch in `Fraction` arithmetic; ties go
    to the smaller sum of center norms, then to lexicographic order. The
    first invalid (point, center) pair met, of mixed dimension or at an
    irrational distance, raises.
    """
    check_norm_order(p)
    if k < 1:
        raise ParamError(f"k must be positive, got {k}")
    universe = tuple(sorted(set(points)))
    if not universe:
        raise NoOutputError("no points on the ledger")
    if len(universe) < k:
        raise NotEnoughPointsError(f"{len(universe)} distinct points, need {k}")
    if len(universe) > max_union:
        raise InstanceTooLargeError(f"{len(universe)} points exceed the cap {max_union}")
    best_key = None
    for candidate in itertools.combinations(universe, k):
        cost = _reference_cost(universe, candidate, p, median)
        key = (cost, sum(norm_key(c, p) for c in candidate), candidate)
        if best_key is None or key < best_key:
            best_key = key
    return CentersOutput(best_key[2])


def _reference_least_split(n, k, run, combine):
    """The least (cost, norm sum, center tuple) over the splits of range(n)
    into k runs, with `run(a, m)` the least (cost, norm, center) of the run
    a, ..., m - 1 or None, combined over the runs by `combine`."""
    best: list = [(0, 0, ())] + [None] * n
    for used in range(1, k + 1):
        longer: list = [None] * (n + 1)
        for m in range(used, n + 1):
            options = []
            for a in range(used - 1, m):
                head, last = best[a], run(a, m)
                if head is not None and last is not None:
                    options.append((combine(head[0], last[0]), head[1] + last[1], head[2], last[2]))
            if options:
                cost, norm, centers, j = min(options)
                longer[m] = (cost, norm, centers + (j,))
        best = longer
    return best[n]


def reference_line_kcenter(xs: Sequence[int], k: int, norms: Sequence[int]) -> tuple[int, ...]:
    """The index tuple of the least (radius, norm sum, index tuple) over the
    k-subsets of the sorted distinct ints `xs`, from two dynamic programs
    over the splits of `xs` into runs: the least radius under `max`, then
    the least (norm sum, index tuple) of the splits that fit inside it."""
    doubled = [2 * x for x in xs]

    def reach(a, m):
        mid = bisect_left(doubled, xs[a] + xs[m - 1], a, m)
        return min(
            (max(xs[j] - xs[a], xs[m - 1] - xs[j]), 0, j) for j in (mid - 1, mid) if a <= j < m
        )

    radius = _reference_least_split(len(xs), k, reach, max)[0]

    def fitting(a, m):
        lo = bisect_left(xs, xs[m - 1] - radius, a, m)
        hi = bisect_right(xs, xs[a] + radius, a, m)
        zero = bisect_left(xs, 0, lo, hi)
        return min(((0, norms[j], j) for j in (zero - 1, zero) if lo <= j < hi), default=None)

    return _reference_least_split(len(xs), k, fitting, operator.add)[2]


def _payloads_of(ledger: Sequence[UpdatePayload], kind: type) -> list[UpdatePayload]:
    """The payloads of `kind` on `ledger`; Empty ones are skipped and any
    other kind raises the folds' message."""
    kept = []
    for payload in ledger:
        if isinstance(payload, kind):
            kept.append(payload)
        elif not isinstance(payload, Empty):
            raise PayloadError(f"expected {kind.__name__} payloads, got {type(payload).__name__}")
    return kept


def reference_max(ledger: Sequence[UpdatePayload]) -> ScalarOutput:
    values = [payload.value for payload in _payloads_of(ledger, Scalar)]
    if not values:
        raise NoOutputError("no scalar values on the ledger")
    return ScalarOutput(max(values))


def reference_points(ledger: Sequence[UpdatePayload]) -> list[Point]:
    """All points of all set payloads, duplicates across updates kept."""
    return [point for payload in _payloads_of(ledger, PointSet) for point in payload.points]


def reference_union(ledger: Sequence[UpdatePayload]) -> tuple[Point, ...]:
    """The set union of all point-set payloads, in sorted order."""
    points = reference_points(ledger)
    if len({len(p) for p in points}) > 1:
        raise PayloadError(MIXED_DIMENSIONS)
    return tuple(sorted(set(points)))


def reference_rows(ledger: Sequence[UpdatePayload], d: int) -> tuple[Row, ...]:
    """All rows of all row payloads of a d-dimensional regression ledger."""
    rows = tuple(row for payload in _payloads_of(ledger, RowMultiset) for row in payload.rows)
    for row in rows:
        if row.width != d + 1:
            raise PayloadError(
                f"rows of width {row.width} on a {d}-dimensional regression ledger"
            )
    return rows


def reference_average(ledger: Sequence[UpdatePayload]) -> ScalarOutput:
    points = reference_points(ledger)
    if not points:
        raise NoOutputError("no points on the ledger")
    if any(len(p) != 1 for p in points):
        raise PayloadError("the average aggregation expects 1-dimensional points")
    return ScalarOutput(sum((p[0] for p in points), Fraction(0)) / len(points))


def reference_dlr(ledger: Sequence[UpdatePayload], d: int) -> AlgorithmOutput:
    rows = reference_rows(ledger, d)
    if not rows:
        return NullOutput()
    return fit_from_moments(reference_moments(rows))


def reference_compute(algorithm, ledger: Sequence[UpdatePayload]) -> AlgorithmOutput:
    """The whole-ledger aggregation; raises where the ledger has no output yet."""
    if isinstance(algorithm, MaxAlgorithm):
        return reference_max(ledger)
    if isinstance(algorithm, AverageAlgorithm):
        return reference_average(ledger)
    if isinstance(algorithm, (KCenterAlgorithm, KMedianAlgorithm)):
        solve = kmedian_solution if isinstance(algorithm, KMedianAlgorithm) else kcenter_solution
        points = reference_union(ledger)
        return solve(points, algorithm.k, algorithm.p, algorithm.max_union)
    if isinstance(algorithm, DlrAlgorithm):
        return reference_dlr(ledger, algorithm.d)
    raise TypeError(f"no reference for {type(algorithm).__name__}")


def reference_output(algorithm, ledger: Sequence[UpdatePayload]) -> AlgorithmOutput:
    """What a broadcast over `ledger` carries: Null while there is no output."""
    try:
        return reference_compute(algorithm, ledger)
    except (NoOutputError, NotEnoughPointsError):
        return NullOutput()


def broadcasts(run: Run) -> tuple[AlgorithmOutput, ...]:
    return tuple([m.output for m in run.messages if isinstance(m, OutputBroadcast)])


def reference_run(
    protocol: str,
    ninput: Sequence[NatureElement],
    strategies: Mapping[int, Strategy],
    algorithm,
    agent_count: int,
    ell: Optional[int] = None,
    safety_cap: int = 200,
) -> tuple[Message, ...]:
    """The messages of a run whose every broadcast recomputes the whole ledger.

    Inputs are assumed valid. A continuous element whose activity loop runs
    more than `safety_cap` polling passes raises, as in the engine.
    """
    messages: list[Message] = []
    ledger: list[UpdatePayload] = []
    authors: list[int] = []

    def wish_of(agent: int) -> Optional[UpdatePayload]:
        items = tuple(
            m for m in messages
            if isinstance(m, OutputBroadcast) or m.agent == agent
        )
        return strategies.get(agent, truthful_strategy)(ObservedHistory(agent, items, len(items)))

    def push(agent: int, payload: UpdatePayload) -> None:
        ledger.append(payload)
        authors.append(agent)
        messages.append(LedgerUpdate(agent, payload))

    if protocol == "continuous":
        for element in ninput:
            messages.append(FactualDelivery(element.agent, element.payload))
            active, passes = True, 0
            while active:
                passes += 1
                if passes > safety_cap:
                    raise SafetyCapExceededError(f"more than {safety_cap} passes")
                active = False
                for agent in range(1, agent_count + 1):
                    wish = wish_of(agent)
                    if wish is None or authors[-ell:] == [agent] * ell:
                        continue
                    push(agent, wish)
                    messages.append(OutputBroadcast(reference_output(algorithm, ledger)))
                    active = True
    else:
        last_round = max((element.round for element in ninput), default=0)
        for round_no in range(1, last_round + 1):
            for element in ninput:
                if element.round == round_no:
                    messages.append(FactualDelivery(element.agent, element.payload))
            for agent in range(1, agent_count + 1):
                wish = wish_of(agent)
                if wish is not None:
                    push(agent, wish)
            messages.append(OutputBroadcast(reference_output(algorithm, ledger)))
    return tuple(messages)

