"""Aggregation algorithms over ledger prefixes, and the data they exchange.

This module owns the update payload kinds (scalar, point set, labeled row
multiset, empty), the output kinds (scalar, center set, coefficient vector,
null), and the aggregations themselves: max, average, exact k-center, exact
k-median, and multiple linear regression via the normal equations.

Every aggregation is a fold over the ordered ledger: `start()` is the state of
an empty ledger, `fold(state, payload)` the state after one more update, and
`output(state)` the public output, or `NullOutput` while the aggregation is
not defined. States are immutable values and a fold costs time in the size of
its payload, not of the ledger: max keeps a running maximum, average a sum
in ints over one scale and a count, regression the moments X^T X and X^T y
in integers, the Gram block over the squared feature scale and the cross
block over the feature scale times the target scale (a `ScaledMoments`),
and k-center and k-median the point union, which `output` solves. The
engines keep one running state per run; `compute(ledger)` folds a whole
ledger.

Everything is exact rational arithmetic. A regression fold is one kernel,
`ScaledMoments.plus_rows`: it scales each row to ints, its features by
their least common denominator and its target by its own, raises a block's
scale only when the row's does not divide it, and adds the row's integer
outer products in place, over its nonzero features only; `output` hands
the integer normal equations straight to the fraction-free solve and
rescales the solution by the ratio of the two scales. Only the
coefficients become `Fraction`s. `ScaledMoments.residual` states the
residual G @ x - c; other modules never read the integer blocks.
The clustering solvers are exact on one coordinate scale per solve: they
scale the input union's coordinates by the lcm of all their denominators,
work in ints, build no `Fraction`, and return the `CentersOutput` they
choose. A union on the line is solved in polynomial time by a dynamic
program over the sorted points, with k-center's radius found first by a
greedy cover test. A union of two or more dimensions has
the distance table of its integer points built once, and every k-subset is
costed from it, skipping a subset as soon as its cost exceeds the best one
found. That enumeration is exhaustive, so instances are capped at a small
size (`DEFAULT_MAX_UNION`), on the line too; a caller with larger unions
raises the cap through `max_union`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate, chain, combinations
from operator import add, mul, sub
from typing import Any, Callable, Collection, Mapping, NamedTuple, Optional, Sequence, Union

from .numerics import RationalLike, _scaled, is_int, rational, solve_integer_rows

DEFAULT_MAX_UNION = 20
NORM_INF = "inf"
NormOrder = Union[int, str]  # 1, 2, or "inf"

Point = tuple[Fraction, ...]

MIXED_DIMENSIONS = "point payloads of mixed dimension on one ledger"


class PayloadError(ValueError):
    """A payload is malformed or of the wrong kind for the algorithm."""


class ParamError(ValueError):
    """Algorithm or strategy parameters are out of their allowed range.

    `param` names the one parameter at fault, where there is one.
    """

    def __init__(self, message: str, param: Optional[str] = None):
        super().__init__(message)
        self.param = param


class NoOutputError(Exception):
    """The ledger holds nothing the algorithm can aggregate yet."""


class NotEnoughPointsError(Exception):
    """Fewer distinct input points than requested centers."""


class InstanceTooLargeError(Exception):
    """The input union exceeds the solver's cap, `max_union`."""


class UnsupportedNormError(Exception):
    """The requested norm needs an irrational distance value."""


# =============================================================================
# Update payloads
# =============================================================================


def as_point(values: Sequence[RationalLike]) -> Point:
    return tuple(rational(v) for v in values)


def coerce_point(value: Union[RationalLike, Sequence[RationalLike]]) -> Point:
    """A point from its coordinates, or the one-dimensional point of one rational."""
    if isinstance(value, (tuple, list)):
        return as_point(value)
    return (rational(value),)


@dataclass(frozen=True)
class Scalar:
    """A single rational value (the max algorithm's update kind)."""

    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", rational(self.value))


@dataclass(frozen=True)
class PointSet:
    """A duplicate-free set of points in Q^d, held in sorted canonical order."""

    points: tuple[Point, ...]

    def __init__(self, points: Sequence[Sequence[RationalLike]]):
        normalized = sorted(as_point(p) for p in points)
        for a, b in zip(normalized, normalized[1:]):
            if a == b:
                raise PayloadError(f"duplicate point in set payload: {format_point(a)}")
        if len({len(p) for p in normalized}) > 1:
            raise PayloadError("points of mixed dimension in one payload")
        object.__setattr__(self, "points", tuple(normalized))


@dataclass(frozen=True)
class Row:
    """One labeled observation: features (leading coordinate fixed at 1) and target."""

    features: Point
    target: Fraction

    def __init__(self, features: Sequence[RationalLike], target: RationalLike):
        feats = as_point(features)
        if not feats or feats[0] != 1:
            raise PayloadError(f"feature vector must lead with 1, got {format_point(feats)}")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "target", rational(target))

    @classmethod
    def _exact(cls, features: Point, target: Fraction) -> "Row":
        """Wrap features led by 1 and a target computed here, unchecked (see `RMatrix._exact`)."""
        row = object.__new__(cls)
        row.__dict__.update(features=features, target=target)
        return row

    @cached_property
    def scaled_features(self) -> tuple[int, tuple[int, ...]]:
        """`_scaled(features)` with the ints as a tuple, computed once per row."""
        scale, ints = _scaled(self.features)
        return scale, tuple(ints)

    def with_target(self, target: Fraction) -> "Row":
        """These features with `target`, computed here and unchecked, sharing
        the feature tuple and its integer form (see `_exact`)."""
        row = Row._exact(self.features, target)
        row.__dict__["scaled_features"] = self.scaled_features
        return row

    def sort_key(self) -> tuple:
        return (self.features, self.target)

    @property
    def width(self) -> int:
        return len(self.features)


@dataclass(frozen=True)
class RowMultiset:
    """A multiset of labeled rows; duplicates are meaningful and kept."""

    rows: tuple[Row, ...]

    def __init__(self, rows: Sequence[Row]):
        ordered = tuple(sorted(rows, key=Row.sort_key))
        if len({r.width for r in ordered}) > 1:
            raise PayloadError("rows of mixed width in one payload")
        object.__setattr__(self, "rows", ordered)


@dataclass(frozen=True)
class Empty:
    """An update that contributes nothing (still occupies a ledger slot)."""


UpdatePayload = Union[Scalar, PointSet, RowMultiset, Empty]


def payload_union(a: UpdatePayload, b: UpdatePayload) -> UpdatePayload:
    """Combine two payloads the way the aggregations see them.

    Point sets take the set union, row multisets concatenate, Empty is the
    identity. Mixing kinds is a modelling error.
    """
    if isinstance(a, Empty):
        return b
    if isinstance(b, Empty):
        return a
    if isinstance(a, PointSet) and isinstance(b, PointSet):
        return PointSet(tuple(set(a.points) | set(b.points)))
    if isinstance(a, RowMultiset) and isinstance(b, RowMultiset):
        return RowMultiset(a.rows + b.rows)
    raise PayloadError(
        f"cannot union payloads of kinds {type(a).__name__}/{type(b).__name__}"
    )


def payload_difference(a: UpdatePayload, b: UpdatePayload) -> UpdatePayload:
    """Set difference for point sets (used by omission-style resync payloads)."""
    if isinstance(a, PointSet) and isinstance(b, PointSet):
        remaining = tuple(p for p in a.points if p not in set(b.points))
        return PointSet(remaining) if remaining else Empty()
    raise PayloadError("difference is only defined for point sets")


# ===== the kind test every `check` opens with =====


def _contributes(payload: UpdatePayload, kind: type) -> bool:
    """Whether `payload` adds data to a ledger of `kind` payloads.

    Empty adds nothing; any other kind is a `PayloadError`.
    """
    if isinstance(payload, kind):
        return True
    if isinstance(payload, Empty):
        return False
    raise PayloadError(f"expected {kind.__name__} payloads, got {type(payload).__name__}")


# =============================================================================
# Algorithm outputs
# =============================================================================


@dataclass(frozen=True)
class ScalarOutput:
    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", rational(self.value))


@dataclass(frozen=True)
class CentersOutput:
    """A chosen set of centers, canonicalized to sorted order."""

    centers: tuple[Point, ...]

    def __init__(self, centers: Sequence[Sequence[RationalLike]]):
        object.__setattr__(self, "centers", tuple(sorted(as_point(c) for c in centers)))


@dataclass(frozen=True)
class CoefficientsOutput:
    """Fitted regression coefficients (intercept first)."""

    coefficients: Point

    def __init__(self, coefficients: Sequence[RationalLike]):
        object.__setattr__(self, "coefficients", as_point(coefficients))

    @classmethod
    def _exact(cls, coefficients: Point) -> "CoefficientsOutput":
        """Wrap coefficients computed here, unchecked (see `RMatrix._exact`)."""
        output = object.__new__(cls)
        output.__dict__["coefficients"] = coefficients
        return output


@dataclass(frozen=True)
class NullOutput:
    """The aggregation is not defined on the current ledger."""


AlgorithmOutput = Union[ScalarOutput, CentersOutput, CoefficientsOutput, NullOutput]


# =============================================================================
# Norms and distances
# =============================================================================


def check_norm_order(p: NormOrder) -> NormOrder:
    """`p` itself when it is exactly the int 1 or 2 or the string "inf".

    `True == 1` and `2.0 == 2`, so a plain membership test would let a bool
    or a float select a norm.
    """
    if p == NORM_INF or (type(p) is int and p in (1, 2)):
        return p
    raise ParamError(f"norm order must be 1, 2 or '{NORM_INF}', got {p!r}", "p")


def check_count(name: str, value: object) -> int:
    """`value` itself when it is a positive int (not a bool)."""
    if not is_int(value):
        raise ParamError(f"{name} must be an integer, got {value!r}", name)
    if value < 1:
        raise ParamError(f"{name} must be positive, got {value}", name)
    return value


def format_point(point: Point) -> str:
    """A point as it is written in messages: `(1, 1)`, `(1/2, 0)`."""
    return f"({', '.join(map(str, point))})"


def _magnitude(vector: Sequence[int], p: NormOrder) -> int:
    """The L_p norm of an int vector for p=1 and p=inf; for p=2 its square, an int."""
    if p == 2:
        return sum(map(mul, vector, vector))
    if p == NORM_INF:
        return max(map(abs, vector), default=0)
    return sum(map(abs, vector))


# =============================================================================
# Clustering: exact k-center and k-median
# =============================================================================


def _solve_clustering(
    points: Collection[Point], k: int, p: NormOrder, median: bool, max_union: int
) -> CentersOutput:
    """The centers of the exact k-center (or k-median, when `median`)
    solution of `points`.

    The checks run in this order: norm, `k`, `max_union`, the empty union,
    fewer than k distinct points, and the union cap. A frozenset of points
    is taken as it stands, without hashing its points again.

    The solve scales every coordinate of the input by one integer L, the
    lcm of all their denominators, and works on those ints; no `Fraction`
    is built. A union whose points are all one-dimensional is solved on the
    line (`_solve_line`): k-median by one dynamic program over the splits
    of the sorted union, in O(k n^2) steps; k-center by a greedy cover test
    bisected over the pairwise gaps for its radius, then by one dynamic
    program within that radius for the tie-break, in O(k n^2 log n). A
    union of two or more dimensions is solved by costing every k-subset
    from an n x n distance table (`_solve_table`). Either way the result,
    the tie-break (cost, then the sum of center norms, then lexicographic
    order) and the union cap are those of costing every k-subset from
    scratch in `Fraction`s, and so are the errors of the table route and
    the pair they name; on a line no such error can arise.
    """
    check_norm_order(p)
    check_count("k", k)
    check_count("max_union", max_union)
    distinct = frozenset(points)
    n = len(distinct)
    if not n:
        raise NoOutputError("no points on the ledger")
    if n < k:
        raise NotEnoughPointsError(f"{n} distinct points, need {k}")
    if n > max_union:
        raise InstanceTooLargeError(f"{n} points exceed the union cap {max_union}")
    scale = math.lcm(*[x.denominator for point in distinct for x in point])
    # (coordinates times `scale`, point): one positive scale keeps the order
    # of every coordinate, so sorting the ints sorts the points.
    scaled = sorted(
        (tuple([x.numerator * (scale // x.denominator) for x in point]), point)
        for point in distinct
    )
    universe = tuple(point for _, point in scaled)
    # coords[i]: the coordinates of universe[i] times `scale`.
    coords = [ints for ints, _ in scaled]
    norms = [_magnitude(c, p) for c in coords]
    if all(len(c) == 1 for c in coords):
        best = _solve_line([x for x, in coords], k, median, norms)
    else:
        best = _solve_table(coords, universe, k, p, median, norms)
    return CentersOutput([universe[j] for j in best])


def _solve_line(
    xs: Sequence[int], k: int, median: bool, norms: Sequence[int]
) -> tuple[int, ...]:
    """The index tuple of the least (cost, sum of center norms, index tuple)
    over the k-subsets of the sorted distinct ints `xs`.

    The points nearest to each center of a subset form a run of `xs` that
    holds the center, so the least subset is found by a dynamic program
    over the splits of `xs` into k runs, with one center in each run
    (Hassin & Tamir 1991; Megiddo & Tamir 1983). For k-median the whole key
    adds up over the runs, and a run's best center is one of its one or
    two middle points, costed from prefix sums. A max does not add up, so
    k-center first finds the least radius (`_least_radius`), then the least
    (norm sum, index tuple) over the splits whose runs all fit inside it.
    A cost is a distance over the scale of `xs`.
    """
    if median:
        sums = list(accumulate(xs, initial=0))  # sums[i]: xs[0] + ... + xs[i - 1]

        def middle(a: int, m: int) -> tuple[int, int, int]:
            """The least (cost, norm, center) of the run xs[a:m]."""
            return min(
                (
                    (j - a) * xs[j] - sums[j] + sums[a] + sums[m] - sums[j + 1] - (m - 1 - j) * xs[j],
                    norms[j],
                    j,
                )
                for j in {(a + m - 1) // 2, (a + m) // 2}
            )

        return _least_split(len(xs), k, middle, add)[2]
    radius = _least_radius(xs, k)

    def fitting(a: int, m: int) -> Optional[tuple[int, int, int]]:
        """The least (0, norm, center) of the run xs[a:m] within `radius`.

        The centers that fit are the points from xs[m - 1] - radius to
        xs[a] + radius, and a norm grows with the distance from 0, so the
        least one is one of the two next to 0.
        """
        lo = bisect_left(xs, xs[m - 1] - radius, a, m)
        hi = bisect_right(xs, xs[a] + radius, a, m)
        zero = bisect_left(xs, 0, lo, hi)
        return min(((0, norms[j], j) for j in (zero - 1, zero) if lo <= j < hi), default=None)

    return _least_split(len(xs), k, fitting, add)[2]


def _least_radius(xs: Sequence[int], k: int) -> int:
    """The least r within which k of the sorted distinct ints `xs`, as
    centers, cover every one of them.

    Each point's distance to its nearest center is a gap between two points
    of `xs`, so r is one of the sorted distinct gaps (0 included), and the
    least one that `_covers` accepts is found by bisection over them: the
    test accepts every gap from r up (Megiddo & Tamir 1983; Frederickson &
    Johnson 1983). The largest gap covers `xs` with one center.
    """
    gaps = sorted({b - a for i, a in enumerate(xs) for b in xs[i:]})
    lo, hi = 0, len(gaps) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _covers(xs, k, gaps[mid]):
            hi = mid
        else:
            lo = mid + 1
    return gaps[lo]


def _covers(xs: Sequence[int], k: int, radius: int) -> bool:
    """Whether k of the sorted ints `xs`, as centers, cover every one of
    them within `radius`.

    Greedy from the left: the leftmost uncovered point x must be covered,
    and the rightmost point within `radius` of x covers it and, of all the
    centers that do, reaches furthest right, so it is the one to take.
    """
    start = 0
    for _ in range(k):
        center = bisect_right(xs, xs[start] + radius, start) - 1
        start = bisect_right(xs, xs[center] + radius, center)
        if start == len(xs):
            return True
    return False


def _least_split(
    n: int,
    k: int,
    run: Callable[[int, int], Optional[tuple[int, int, int]]],
    combine: Callable[[int, int], int],
) -> tuple[int, int, tuple[int, ...]]:
    """The least (cost, norm sum, center tuple) over the splits of range(n)
    into k runs, where `run(a, m)` is the least (cost, norm, center) of the
    run a, ..., m - 1, or None when it has none, and the costs of the runs
    are combined with `combine`.

    Appending one run to two splits of the same points adds the same cost
    and norm to both and the same center, which keeps their order when
    `combine` is `add`; so keeping the least key per (points split, runs
    used) is exact. Under `max` only the cost is exact: it is the least one
    over all splits.
    """
    # best[m]: the least key that splits the first m points into `used` runs.
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


def _solve_table(
    coords: Sequence[tuple[int, ...]],
    universe: Sequence[Point],
    k: int,
    p: NormOrder,
    median: bool,
    norms: Sequence[int],
) -> tuple[int, ...]:
    """The index tuple of the least (cost, sum of center norms, index tuple)
    over every k-subset of the sorted `universe`, costed from its n x n
    distance table.

    The table holds L times each pair's L1 or L-inf distance, L^2 times the
    squared L2 distance for k-center, and for k-median under p=2 L times the
    distance: the `math.isqrt` of the scaled squared distance, which is
    rational just when that is a perfect square. A candidate's cost is the
    max (k-center) or sum (k-median) of per-point minima over the table,
    and a candidate costlier than the best so far is skipped before its
    tie-break key is built.
    """
    n = len(coords)
    needs_root = median and p == 2

    def distance(i: int, j: int) -> int:
        a, b = coords[i], coords[j]
        if len(a) != len(b):
            raise PayloadError(
                "points of different dimension: "
                f"{format_point(universe[i])} vs {format_point(universe[j])}"
            )
        key = _magnitude(list(map(sub, a, b)), p)
        if not needs_root:
            return key
        length = math.isqrt(key)
        if length * length != key:
            raise UnsupportedNormError(
                f"euclidean distance between {format_point(universe[i])} and "
                f"{format_point(universe[j])} is irrational; "
                "use p=1 or p='inf', or 1-dimensional data"
            )
        return length

    # rows[j][i]: the distance from center j to point i over the table's
    # scale. Filled in the order in which costing every k-subset from scratch
    # first meets each (point, center) pair: the first n-k+1 candidates
    # already hold every center. An invalid pair (mixed dimensions, an
    # irrational distance) then raises the same error.
    rows: list[list[int]] = [[-1] * n for _ in range(n)]
    for last in range(k - 1, n):
        for i in range(n):
            for j in (*range(k - 1), last):
                if rows[i][j] < 0:
                    rows[i][j] = rows[j][i] = distance(i, j)
    aggregate = sum if median else max
    best_cost, best_tie, best = math.inf, None, ()
    for candidate in combinations(range(n), k):
        nearest = rows[candidate[0]] if k == 1 else map(min, *[rows[j] for j in candidate])
        cost = aggregate(nearest)
        if cost > best_cost:
            continue
        # Tie-break: total center magnitude, then lexicographic coordinates
        # (index order is coordinate order, as the universe is sorted).
        tie = (sum(norms[j] for j in candidate), candidate)
        if cost < best_cost or tie < best_tie:
            best_cost, best_tie, best = cost, tie, candidate
    return best


def kcenter_solution(
    points: Collection[Point], k: int, p: NormOrder = 2, max_union: int = DEFAULT_MAX_UNION
) -> CentersOutput:
    return _solve_clustering(points, k, p, median=False, max_union=max_union)


def kmedian_solution(
    points: Collection[Point], k: int, p: NormOrder = 2, max_union: int = DEFAULT_MAX_UNION
) -> CentersOutput:
    return _solve_clustering(points, k, p, median=True, max_union=max_union)


# =============================================================================
# Multiple linear regression
# =============================================================================


class ScaledMoments(NamedTuple):
    """Moments in integers, each block over its own positive scale.

    `gram[i][j]` is `gram_scale` times the entry of X^T X, and `cross[i]` is
    `cross_scale` times the entry of X^T y. A row with f the least common
    denominator of its features and t that of its target has its Gram
    outer product over f * f and its cross product over f * t, and each
    scale of a record is a common multiple of those of its rows. So the
    Gram block never carries the targets' denominators, which in a probe
    ladder grow with every fit.
    """

    gram_scale: int
    gram: tuple[tuple[int, ...], ...]
    cross_scale: int
    cross: tuple[int, ...]

    @classmethod
    def of(cls, gram: Sequence[Sequence[Fraction]], cross: Sequence[Fraction]) -> "ScaledMoments":
        """The record of rational blocks, each over the lcm of its denominators."""
        width = len(cross)
        gram_scale, entries = _scaled(list(chain.from_iterable(gram)))
        cross_scale, ints = _scaled(cross)
        rows = (tuple(entries[i : i + width]) for i in range(0, width * width, width))
        return cls(gram_scale, tuple(rows), cross_scale, tuple(ints))

    def plus_rows(self, rows: Sequence[Row], sign: int = 1) -> "ScaledMoments":
        """`self` plus `sign` times the moments of `rows`, folded one row at a time.

        The blocks are copied once into lists and updated in place. A row's
        features become ints over f, the lcm of their denominators, and its
        target an int over its denominator t. A block's scale rises to the
        lcm of itself and the row's (f * f for the Gram block, f * t for the
        cross block) only when the row's does not divide it, and the block is
        multiplied by the ratio; the row's integer outer product then enters
        times the block's scale over the row's, added over the row's nonzero
        features only, so a ladder probe (1 at the intercept and at one
        coordinate) touches four Gram entries. A row of another width raises
        `PayloadError`.
        """
        if not rows:
            return self
        width = len(self.cross)
        gram_scale, cross_scale = self.gram_scale, self.cross_scale
        gram, cross = [list(line) for line in self.gram], list(self.cross)
        for row in rows:
            if len(row.features) != width:
                raise PayloadError(f"row width {row.width} does not match {width}")
            f, x = row.scaled_features
            square, ft = f * f, f * row.target.denominator
            if gram_scale % square:
                ratio = square // math.gcd(gram_scale, square)
                gram_scale *= ratio
                gram = [[ratio * v for v in line] for line in gram]
            if cross_scale % ft:
                ratio = ft // math.gcd(cross_scale, ft)
                cross_scale *= ratio
                cross = [ratio * v for v in cross]
            a = sign * (gram_scale // square)
            b = sign * (cross_scale // ft) * row.target.numerator
            # a * x x^T and b * x, over the row's nonzero features only.
            nonzero = [(i, v) for i, v in enumerate(x) if v]
            for i, v in nonzero:
                line, av = gram[i], a * v
                for j, w in nonzero:
                    line[j] += av * w
                cross[i] += b * v
        return ScaledMoments(gram_scale, tuple(map(tuple, gram)), cross_scale, tuple(cross))

    def plus(self, other: "ScaledMoments") -> "ScaledMoments":
        """The record sum, each block over the lcm of its two scales. A record
        of another width raises `PayloadError`."""
        width = len(self.cross)
        if len(other.cross) != width:
            raise PayloadError(f"moments of width {len(other.cross)} do not match {width}")
        gram_scale = math.lcm(self.gram_scale, other.gram_scale)
        a, b = gram_scale // self.gram_scale, gram_scale // other.gram_scale
        gram = [[a * v + b * w for v, w in zip(x, y)] for x, y in zip(self.gram, other.gram)]
        cross_scale = math.lcm(self.cross_scale, other.cross_scale)
        a, b = cross_scale // self.cross_scale, cross_scale // other.cross_scale
        cross = tuple(a * v + b * w for v, w in zip(self.cross, other.cross))
        return ScaledMoments(gram_scale, tuple(map(tuple, gram)), cross_scale, cross)

    def residual(self, x: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
        """G @ x - c at the rational point `x`, as ints over one scale: the lcm of
        gram_scale * s, with s that of x's denominators, and cross_scale."""
        x_scale, ints = _scaled(x)
        fitted_scale = self.gram_scale * x_scale
        scale = math.lcm(fitted_scale, self.cross_scale)
        a, b = scale // fitted_scale, scale // self.cross_scale
        return scale, tuple(
            a * sum(map(mul, row, ints)) - b * c for row, c in zip(self.gram, self.cross)
        )

    def solve(self) -> Optional[tuple[Fraction, ...]]:
        """The coefficients that solve the normal equations, or None while the
        Gram matrix is singular.

        The integer system [gram | cross] is solved as it stands, so the
        large integers stay in the right-hand column, and each solution entry
        v over the last pivot becomes one `Fraction`, rescaled by
        gram_scale / cross_scale.
        """
        solved = solve_integer_rows([[*row, c] for row, c in zip(self.gram, self.cross)])
        if solved is None:
            return None
        pivot, rows = solved
        scale = pivot * self.cross_scale
        return tuple(Fraction(v * self.gram_scale, scale) for v, in rows)


def moments(rows: Sequence[Row], width: int) -> ScaledMoments:
    """The moments X^T X and X^T y of `rows`, each of width `width`: the zero
    record folded with `plus_rows`."""
    zeros = (0,) * width
    return ScaledMoments(1, (zeros,) * width, 1, zeros).plus_rows(rows)


# =============================================================================
# Engine-facing algorithm objects
# =============================================================================


class Algorithm:
    """An aggregation folded over the ordered sequence of ledger payloads.

    `start()` is the state of the empty ledger, `fold(state, payload)` the
    state once `payload` is appended (a `PayloadError` if the algorithm
    cannot take it), and `output(state)` the public output, `NullOutput`
    while the aggregation is undefined. States are immutable, so one state
    may be folded further along two different continuations. `fold` returns
    `state` itself when the payload adds nothing to it (an empty payload, a
    max that is not higher, points already in the union); the engines then
    rebroadcast the last output instead of calling `output` again.

    `check(payload)` states which payloads the algorithm takes and builds no
    state: False for an empty payload, which adds nothing on every algorithm,
    True for one that adds data, and otherwise the `PayloadError` of `fold`.
    Every `fold` opens with it; the clustering fold also tests the point
    dimension against its state.
    """

    name: str = "abstract"

    def start(self) -> object:
        raise NotImplementedError

    def check(self, payload: UpdatePayload) -> bool:
        raise NotImplementedError

    def fold(self, state: object, payload: UpdatePayload) -> object:
        raise NotImplementedError

    def output(self, state: object) -> AlgorithmOutput:
        raise NotImplementedError

    def compute(self, ledger: Sequence[UpdatePayload]) -> AlgorithmOutput:
        """The output over a whole ledger, folded from the empty state."""
        return self.output(reduce(self.fold, ledger, self.start()))


class MaxAlgorithm(Algorithm):
    """State: the largest scalar so far, or None."""

    name = "max"

    def start(self) -> Optional[Fraction]:
        return None

    def check(self, payload: UpdatePayload) -> bool:
        return _contributes(payload, Scalar)

    def fold(self, state: Optional[Fraction], payload: UpdatePayload) -> Optional[Fraction]:
        if not self.check(payload):
            return state
        return payload.value if state is None else max(state, payload.value)

    def output(self, state: Optional[Fraction]) -> AlgorithmOutput:
        return NullOutput() if state is None else ScalarOutput(state)


class AverageAlgorithm(Algorithm):
    """The mean over all points of all updates; the count stays hidden.

    State: `(scale, total, count)` in ints, the sum of the 1-dimensional
    points so far times `scale`, and their number. A point enters as its
    numerator times `scale` over its denominator, and the scale rises to the
    lcm of itself and the denominator, with the sum multiplied by the ratio,
    only when the denominator does not divide it, as `ScaledMoments.plus_rows`
    raises its scales. `output` builds the one `Fraction` of the mean.
    """

    name = "average"

    def start(self) -> tuple[int, int, int]:
        return 1, 0, 0

    def check(self, payload: UpdatePayload) -> bool:
        if not _contributes(payload, PointSet) or not payload.points:
            return False
        if any(len(p) != 1 for p in payload.points):
            raise PayloadError("the average aggregation expects 1-dimensional points")
        return True

    def fold(self, state: tuple[int, int, int], payload: UpdatePayload) -> tuple[int, int, int]:
        if not self.check(payload):
            return state
        scale, total, count = state
        for (value,) in payload.points:
            denominator = value.denominator
            if scale % denominator:
                ratio = denominator // math.gcd(scale, denominator)
                scale, total = scale * ratio, total * ratio
            total += value.numerator * (scale // denominator)
        return scale, total, count + len(payload.points)

    def output(self, state: tuple[int, int, int]) -> AlgorithmOutput:
        scale, total, count = state
        return ScalarOutput(Fraction(total, scale * count)) if count else NullOutput()

    def totals(self, state: tuple[int, int, int]) -> tuple[Fraction, int]:
        """The sum and the number of the points of `state`."""
        scale, total, count = state
        return Fraction(total, scale), count


class ClusteringAlgorithm(Algorithm):
    """Exact k-center or k-median over the point union of the ledger.

    State: the frozenset of distinct points so far. `output` is Null while
    there are fewer than k of them, and otherwise the `CentersOutput` that
    `kcenter_solution` (or `kmedian_solution`, when `median`) returns.
    """

    median: bool = False

    def __init__(self, k: int, p: NormOrder = 2, max_union: int = DEFAULT_MAX_UNION):
        self.k = check_count("k", k)
        self.p = check_norm_order(p)
        self.max_union = check_count("max_union", max_union)

    def start(self) -> frozenset[Point]:
        return frozenset()

    def check(self, payload: UpdatePayload) -> bool:
        return _contributes(payload, PointSet) and bool(payload.points)

    def fold(self, state: frozenset[Point], payload: UpdatePayload) -> frozenset[Point]:
        if not self.check(payload):
            return state
        if state and len(next(iter(state))) != len(payload.points[0]):
            raise PayloadError(MIXED_DIMENSIONS)
        if state.issuperset(payload.points):
            return state
        return state.union(payload.points)

    def output(self, state: frozenset[Point]) -> AlgorithmOutput:
        if len(state) < self.k:
            return NullOutput()
        solve = kmedian_solution if self.median else kcenter_solution
        return solve(state, self.k, self.p, self.max_union)


class KCenterAlgorithm(ClusteringAlgorithm):
    name = "kcenter"


class KMedianAlgorithm(ClusteringAlgorithm):
    name = "kmedian"
    median = True


class DlrAlgorithm(Algorithm):
    """Least-squares fit of all rows, Null while the Gram matrix is singular.

    State: the `ScaledMoments` of the rows so far; a fold adds the
    payload's rows with `plus_rows`.
    """

    name = "dlr"

    def __init__(self, d: int):
        self.d = check_count("d", d)

    def start(self) -> ScaledMoments:
        return moments((), self.d + 1)

    def check(self, payload: UpdatePayload) -> bool:
        if not _contributes(payload, RowMultiset) or not payload.rows:
            return False
        width = payload.rows[0].width
        if width != self.d + 1:
            raise PayloadError(f"rows of width {width} on a {self.d}-dimensional regression ledger")
        return True

    def fold(self, state: ScaledMoments, payload: UpdatePayload) -> ScaledMoments:
        if not self.check(payload):
            return state
        return state.plus_rows(payload.rows)

    def output(self, state: ScaledMoments) -> AlgorithmOutput:
        coefficients = state.solve()
        return NullOutput() if coefficients is None else CoefficientsOutput._exact(coefficients)


def build_named(
    kind: str, table: Mapping[str, Sequence], name: str, params: Optional[Mapping[str, object]],
    label: str, optional: Collection[str] = (),
) -> Any:
    """`table[name]`'s builder called with `params`: each parameter its entry
    lists is required unless in `optional`, only `None` means none, and
    `label` starts the messages."""
    if name not in table:
        raise ParamError(f"unknown {kind} '{name}'; expected one of {', '.join(table)}")
    builder, accepted = table[name][:2]
    if params is not None and not isinstance(params, Mapping):
        raise ParamError(f"{label} parameters must be a mapping, got {type(params).__name__}")
    args = dict(params or {})
    for key in accepted:
        if key not in args and key not in optional:
            raise ParamError(f"{label} needs parameter '{key}'", key)
    unknown = set(args).difference(accepted)
    if unknown:
        raise ParamError(f"unknown {label} parameters: {sorted(unknown)}")
    return builder(**args)


# name -> (class, parameters). `p` and `max_union` may be left to the defaults.
_ALGORITHMS: dict[str, tuple[type, tuple[str, ...]]] = {
    "max": (MaxAlgorithm, ()),
    "average": (AverageAlgorithm, ()),
    "kcenter": (KCenterAlgorithm, ("k", "p", "max_union")),
    "kmedian": (KMedianAlgorithm, ("k", "p", "max_union")),
    "dlr": (DlrAlgorithm, ("d",)),
}


def make_algorithm(name: str, params: Optional[Mapping[str, object]] = None) -> Algorithm:
    """Build an algorithm from its scenario-file name and parameter object.

    The constructors check the values: `k`, `max_union` and `d` must be
    positive ints, and `p` exactly 1, 2 or "inf". A `ParamError` names the
    parameter at fault in `param`, where there is one.
    """
    return build_named("algorithm", _ALGORITHMS, name, params, name, ("p", "max_union"))
