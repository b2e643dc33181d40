"""Update payloads, aggregation algorithms, and their brute-force oracles."""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from functools import reduce
from operator import mul, sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exclusim.algorithms import (
    NORM_INF,
    AverageAlgorithm,
    CentersOutput,
    CoefficientsOutput,
    DlrAlgorithm,
    Empty,
    InstanceTooLargeError,
    KCenterAlgorithm,
    KMedianAlgorithm,
    MaxAlgorithm,
    NotEnoughPointsError,
    NullOutput,
    ParamError,
    PayloadError,
    PointSet,
    Row,
    RowMultiset,
    Scalar,
    ScalarOutput,
    ScaledMoments,
    UnsupportedNormError,
    kcenter_solution,
    kmedian_solution,
    make_algorithm,
    moments,
    payload_difference,
    payload_union,
)
from exclusim.numerics import RMatrix, _scaled
from reference_aggregations import (
    dist_key,
    divided,
    lr_cost,
    outcome,
    predict,
    rational_sqrt,
    reference_clustering,
    reference_compute,
    reference_moments,
    reference_output,
    reference_union,
)


# =============================================================================
# payload types
# =============================================================================


def test_scalar_rejects_float():
    with pytest.raises(TypeError):
        Scalar(0.5)  # type: ignore[arg-type]


def test_payloads_reject_booleans():
    with pytest.raises(TypeError, match="^expected an integer or 'p/q' string, got True$"):
        Scalar(True)  # type: ignore[arg-type]
    with pytest.raises(TypeError):
        PointSet(((True,),))
    with pytest.raises(TypeError):
        Row((True, False), True)


def test_pointset_sorts_and_rejects_duplicates():
    ps = PointSet(((Fraction(3),), (Fraction(1),), (Fraction(2),)))
    assert ps.points == ((Fraction(1),), (Fraction(2),), (Fraction(3),))
    with pytest.raises(PayloadError):
        PointSet(((Fraction(1),), (Fraction(1),)))
    with pytest.raises(PayloadError):
        PointSet(((Fraction(1),), (Fraction(1), Fraction(2))))


def test_row_requires_leading_one():
    with pytest.raises(PayloadError):
        Row((Fraction(2), Fraction(1)), Fraction(0))
    row = Row((1, 5), 7)
    assert row.width == 2
    assert row.target == Fraction(7)


def test_row_fields_equality_hash_and_repr_ignore_its_integer_form():
    assert [f.name for f in dataclasses.fields(Row)] == ["features", "target"]
    row, fresh = Row((1, 2), Fraction(1, 2)), Row((1, 2), Fraction(1, 2))
    assert row.scaled_features == (1, (1, 2))
    assert row == fresh and hash(row) == hash(fresh) == hash((row.features, row.target))
    assert repr(row) == repr(fresh) == (
        "Row(features=(Fraction(1, 1), Fraction(2, 1)), target=Fraction(1, 2))"
    )
    assert row != Row((1, 3), Fraction(1, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.features = (Fraction(1),)


@given(
    st.lists(
        st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**40)),
        max_size=4,
    ),
    st.integers(-50, 50),
)
@settings(max_examples=100, deadline=None)
def test_row_integer_form_is_the_scaled_features_as_a_tuple(rest, target):
    row = Row((1, *rest), target)
    scale, ints = _scaled(row.features)
    assert row.scaled_features == (scale, tuple(ints))
    assert type(row.scaled_features[1]) is tuple
    assert row.scaled_features is row.scaled_features


def test_rowmultiset_sorts_canonically():
    a = Row((1, 2), 3)
    b = Row((1, 1), 9)
    assert RowMultiset((a, b)).rows == (b, a)
    assert RowMultiset((a, b)) == RowMultiset((b, a))


def test_payload_union_and_difference():
    a = PointSet(((Fraction(1),), (Fraction(2),)))
    b = PointSet(((Fraction(2),), (Fraction(3),)))
    u = payload_union(a, b)
    assert isinstance(u, PointSet)
    assert u.points == ((Fraction(1),), (Fraction(2),), (Fraction(3),))
    d = payload_difference(a, b)
    assert isinstance(d, PointSet)
    assert d.points == ((Fraction(1),),)
    assert isinstance(payload_difference(a, a), Empty)


def test_payload_union_mixed_kinds_rejected():
    with pytest.raises(PayloadError):
        payload_union(Scalar(1), PointSet(((Fraction(1),),)))


# =============================================================================
# max and average
# =============================================================================


def test_alg_max():
    assert MaxAlgorithm().compute([Scalar(3), Scalar(-1), Scalar(7)]) == ScalarOutput(Fraction(7))
    assert MaxAlgorithm().compute([]) == NullOutput()


def test_alg_average_counts_multiset():
    # The same point sent twice counts twice: the ledger is a multiset of updates.
    one = PointSet(((Fraction(1),),))
    three = PointSet(((Fraction(3),),))
    assert AverageAlgorithm().compute([one, one, three]) == ScalarOutput(Fraction(5, 3))
    assert AverageAlgorithm().compute([Empty()]) == NullOutput()


def test_alg_average_example_values():
    sets = [
        PointSet(((Fraction(1),), (Fraction(4),), (Fraction(5),))),
        PointSet(((Fraction(1),), (Fraction(3),))),
    ]
    assert AverageAlgorithm().compute(sets) == ScalarOutput(Fraction(14, 5))


# =============================================================================
# clustering
# =============================================================================


def _points(*values) -> PointSet:
    return PointSet(tuple((Fraction(v),) for v in values))


def _kcenter(points: PointSet, k: int):
    return KCenterAlgorithm(k, 2, 20).compute([points])


def test_kcenter_three_points_are_their_own_centers():
    out = _kcenter(_points(0, 10, 100), 3)
    assert isinstance(out, CentersOutput)
    assert out.centers == ((Fraction(0),), (Fraction(10),), (Fraction(100),))


def test_kcenter_example_cluster_and_outlier():
    eps = Fraction(1, 1000)
    cluster = PointSet(((-eps,), (Fraction(0),), (eps,), (Fraction(1),)))
    out = _kcenter(cluster, 3)
    assert isinstance(out, CentersOutput)
    assert out.centers == ((-eps,), (Fraction(0),), (Fraction(1),))


def test_kcenter_matches_brute_force_cost():
    points = _points(-7, -2, 0, 3, 4, 9)
    out = _kcenter(points, 2)
    assert isinstance(out, CentersOutput)
    best_cost = reference_clustering(points.points, 2, 2, median=False).cost
    got_cost = max(
        min(dist_key(p, c, 2) for c in out.centers) for p in points.points
    )
    assert got_cost == best_cost


def test_kmedian_known_instance():
    alg = KMedianAlgorithm(3)
    out = alg.compute([_points(-1, 0, 1, 20, 200)])
    assert isinstance(out, CentersOutput)
    assert (Fraction(20),) in out.centers and (Fraction(200),) in out.centers


def test_clustering_union_cap():
    with pytest.raises(InstanceTooLargeError):
        _kcenter(_points(*range(25)), 3)


@pytest.mark.parametrize("max_union", [True, 2.5, 0])
@pytest.mark.parametrize("solve", [kcenter_solution, kmedian_solution])
def test_clustering_solvers_refuse_a_union_cap_that_is_not_a_count(solve, max_union):
    # Each of these used to fail as "3 points exceed the exhaustive-search cap".
    with pytest.raises(ParamError) as caught:
        solve(_points(0, 1, 2).points, 1, max_union=max_union)
    assert caught.value.param == "max_union"


def test_clustering_not_enough_points():
    # The solver refuses; the algorithm's output is Null until k points arrive.
    with pytest.raises(NotEnoughPointsError):
        kcenter_solution(_points(1).points, 3)
    assert _kcenter(_points(1), 3) == NullOutput()


@given(
    values=st.lists(
        st.integers(min_value=-30, max_value=30), min_size=3, max_size=7, unique=True
    ),
    k=st.integers(min_value=2, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_kcenter_cost_optimal_against_enumeration(values, k):
    points = _points(*values)
    out = _kcenter(points, k)
    assert isinstance(out, CentersOutput)
    best_cost = reference_clustering(points.points, k, 2, median=False).cost
    got_cost = max(min(dist_key(p, c, 2) for c in out.centers) for p in points.points)
    assert got_cost == best_cost


_SOLVERS = {False: kcenter_solution, True: kmedian_solution}


# Pairwise coprime denominators of 61 to 127 bits (Mersenne primes): a few
# coordinates over them put the solver's one coordinate scale at hundreds of
# bits.
_LARGE_DENOMINATORS = (2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1)
_coordinates = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=3),
    st.sampled_from(_LARGE_DENOMINATORS).flatmap(
        lambda d: st.integers(min_value=-6 * d, max_value=6 * d).map(lambda n: Fraction(n, d))
    ),
)


@st.composite
def _clustering_instances(draw):
    # Mostly 1-D or 2-D sets; a 2-D/3-D mix checks that invalid pairs raise
    # the same error as before.
    dims = draw(st.sampled_from(((1,), (2,), (2, 3))))
    point = st.sampled_from(dims).flatmap(lambda dim: st.tuples(*[_coordinates] * dim))
    return draw(st.lists(point, min_size=1, max_size=8, unique=True))


def _fractions(*points):
    return [tuple(Fraction(x) for x in point) for point in points]


# A mixed-dimension universe whose first invalid pair comes late in the
# table: the 3-D point sorts last, after every 2-D point has met each center.
_LATE_MIXED = _fractions((0, 0), (0, 1), (1, 0), (1, 1), (2, 0, 0))
# An irrational distance over the scale 6: sqrt(13) / 6.
_IRRATIONAL_OVER_SIX = _fractions(("1/2", 0), (0, "1/3"))
# Negative coordinates, and a point that is a prefix of another: the solver
# sorts the scaled int tuples, which must order these as the points do.
_NEGATIVE_PREFIX = _fractions(("-3/2",), ("-3/2", "-1/3"), (-1, 2), ("1/4",))


@given(
    points=_clustering_instances(),
    k=st.integers(min_value=1, max_value=4),
    p=st.sampled_from((1, 2, NORM_INF)),
    median=st.booleans(),
)
@example(points=[(Fraction(v),) for v in (-2, -1, 0, 1, 2)], k=2, p=2, median=False)
@example(points=[(Fraction(v),) for v in (-2, -1, 0, 1, 2)], k=2, p=1, median=True)
@example(points=[(Fraction(v),) for v in (-2, -1, 0, 1, 2)], k=3, p=NORM_INF, median=False)
@example(
    points=[(Fraction(x), Fraction(y)) for x in (-1, 0, 1) for y in (-1, 0, 1)],
    k=4, p=1, median=False,
)
@example(points=_fractions((0, 0), (3, 4)), k=1, p=2, median=True)
@example(points=_fractions((0, 0), (0, 1), (1, 0), (1, 0, 0)), k=2, p=2, median=True)
# A k-median pair at distance 1 only after scaling: (0, 0) and (3, 4) over 5.
@example(points=_fractions((0, 0), ("3/5", "4/5")), k=1, p=2, median=True)
@example(points=_IRRATIONAL_OVER_SIX, k=1, p=2, median=True)
@example(points=_LATE_MIXED, k=3, p=1, median=False)
@example(points=_LATE_MIXED, k=2, p=2, median=True)
@example(points=_NEGATIVE_PREFIX, k=2, p=1, median=False)
# Ties: every pair from -3/2, -1/2, 1/2, 3/2 covers the rest within 1; a
# square's middle with any corner covers it within 1 under p=inf; every
# vertex of a diamond has the same L1 cost. Norms, then index order, decide.
@example(points=[(Fraction(v, 2),) for v in (-3, -1, 1, 3)], k=2, p=2, median=False)
@example(points=_fractions((-1, -1), (-1, 1), (0, 0), (1, -1), (1, 1)), k=2, p=NORM_INF, median=False)
@example(points=_fractions((-1, 0), (0, -1), (0, 1), (1, 0)), k=1, p=1, median=True)
@settings(max_examples=300, deadline=None)
def test_clustering_matches_reference_enumeration(points, k, p, median):
    got = outcome(_SOLVERS[median], points, k, p)
    want = outcome(reference_clustering, points, k, p, median)
    assert got == want


def _failure(function, *args):
    """The type of the error `function` raises, with its message when it
    names an invalid pair; None when it returns."""
    try:
        function(*args)
    except (PayloadError, UnsupportedNormError) as exc:
        return type(exc), str(exc)
    except Exception as exc:  # the other errors' messages differ in wording
        return type(exc)
    return None


@given(
    points=_clustering_instances(),
    k=st.integers(min_value=1, max_value=4),
    p=st.sampled_from((1, 2, NORM_INF)),
    median=st.booleans(),
)
@example(points=_LATE_MIXED, k=3, p=1, median=False)
@example(points=_IRRATIONAL_OVER_SIX, k=1, p=2, median=True)
@example(points=_NEGATIVE_PREFIX, k=3, p=NORM_INF, median=True)
@settings(max_examples=150, deadline=None)
def test_clustering_error_names_the_references_first_invalid_pair(points, k, p, median):
    assert _failure(_SOLVERS[median], points, k, p) == _failure(
        reference_clustering, points, k, p, median
    )


@pytest.mark.parametrize(
    "points, k, p, median, error, message",
    [
        (_LATE_MIXED, 3, 1, False, PayloadError,
         "points of different dimension: (2, 0, 0) vs (0, 0)"),
        (_IRRATIONAL_OVER_SIX, 1, 2, True, UnsupportedNormError,
         "euclidean distance between (1/2, 0) and (0, 1/3) is irrational"),
    ],
    ids=["mixed_dimension", "irrational"],
)
def test_clustering_error_writes_points_in_wire_form(points, k, p, median, error, message):
    with pytest.raises(error) as info:
        _SOLVERS[median](points, k, p)
    assert str(info.value).startswith(message)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    with pytest.raises(ValueError):
        rational_sqrt(Fraction(-1))


@pytest.mark.parametrize("values", ((0, 1, 2, 3), (-3, -2, 0, 2, 3)))
@pytest.mark.parametrize("p", (1, 2, NORM_INF))
@pytest.mark.parametrize("median", (False, True))
def test_clustering_assignment_ties_match_reference(values, p, median):
    # Three or four k=2 candidates tie on cost in each set, so the centers
    # rest on the tie-break: the smaller sum of center norms, then the
    # smaller coordinates.
    points = [(Fraction(v),) for v in values]
    assert _SOLVERS[median](points, 2, p) == reference_clustering(points, 2, p, median)


@st.composite
def _line_instances(draw):
    """A 1-D union of up to 12 points and a k from 1 to its size.

    Mirrored values tie x with -x on every norm, so the index decides;
    evenly spaced ones tie radii and medians; the coordinates include the
    large Mersenne denominators.
    """
    shape = draw(st.sampled_from(("any", "mirrored", "evenly_spaced")))
    if shape == "evenly_spaced":
        start = draw(_coordinates)
        step = draw(_coordinates.filter(bool).map(abs))
        values = [start + i * step for i in range(draw(st.integers(1, 12)))]
    else:
        values = draw(st.lists(_coordinates, min_size=1, max_size=12, unique=True))
        if shape == "mirrored":
            values = sorted({v for x in values for v in (x, -x)})[:12]
    k = draw(st.integers(min_value=1, max_value=len(values)))
    return [(v,) for v in values], k


def _line(*values):
    return [(Fraction(v),) for v in values]


@given(
    instance=_line_instances(),
    p=st.sampled_from((1, 2, NORM_INF)),
    median=st.booleans(),
)
# n == k: every point is its own center at cost 0.
@example(instance=(_line(-2, -1, "1/3", 5), 4), p=2, median=False)
@example(instance=(_line(-2, -1, "1/3", 5), 4), p=1, median=True)
# k == 1 on evenly spaced points: the middle point is the one best center.
@example(instance=(_line(0, 2, 4, 6, 8), 1), p=2, median=False)
# An even-sized run: its two middle points tie on cost, on norm too when
# they mirror each other, and then the smaller index wins.
@example(instance=(_line(-3, -1, 1, 3), 1), p=1, median=True)
@example(instance=(_line(-3, -1, 1, 3), 1), p=2, median=False)
@example(instance=(_line(0, 1, 2, 3, 20, 21), 2), p=NORM_INF, median=True)
@settings(max_examples=200, deadline=None)
def test_line_solver_matches_reference_enumeration(instance, p, median):
    points, k = instance
    assert _SOLVERS[median](points, k, p) == reference_clustering(points, k, p, median)


@pytest.mark.parametrize("k", (2, 3))
@pytest.mark.parametrize("median", (False, True))
def test_line_solver_serves_a_union_past_the_default_cap(k, median):
    points = [(Fraction(i * i, 4) - 50,) for i in range(30)]
    with pytest.raises(InstanceTooLargeError):
        _SOLVERS[median](points, k)
    assert _SOLVERS[median](points, k, max_union=30) == reference_clustering(
        points, k, 2, median, max_union=30
    )


def test_kmedian_irrational_euclidean_distance_is_refused():
    points = [(Fraction(x), Fraction(y)) for x, y in ((0, 0), (1, 1), (2, 0))]
    with pytest.raises(UnsupportedNormError):
        kmedian_solution(points, 1, p=2)
    solution = kmedian_solution(points, 1, p=1)
    assert solution == reference_clustering(points, 1, 1, median=True)
    # Every center costs 4 under L1, so the smallest-norm point wins the tie.
    assert solution.centers == ((Fraction(0), Fraction(0)),)
    assert solution.cost == 4


def test_kcenter_deterministic_tie_break():
    points = _points(0, 1)
    first = _kcenter(points, 1)
    for _ in range(5):
        assert _kcenter(points, 1) == first


# =============================================================================
# linear regression
# =============================================================================


def _rows(*triples) -> RowMultiset:
    return RowMultiset(tuple(Row((1,) + tuple(f), t) for *f, t in triples))


def test_moments_known_grams():
    # Conditioning rows plus the resynchronization rows reproduce the
    # conditioning moments of the swap-and-repair bookkeeping.
    cond = _rows((3, 1), (0, 1), (0, 1))
    attack = _rows((2, 2))
    resync = _rows((2, 0), (-1, 1))
    m_cond = divided(moments(cond.rows, 2))
    assert m_cond == reference_moments(cond.rows)
    assert m_cond.gram == RMatrix([[3, 3], [3, 9]])
    assert m_cond.cross.column_values() == (Fraction(3), Fraction(3))
    assert divided(moments(attack.rows, 2).plus_rows(resync.rows)) == m_cond


def test_moments_additive_over_concatenation():
    a = _rows((1, 1), (0, 1))
    b = _rows((2, 2))
    ab = divided(moments(a.rows + b.rows, 2))
    assert ab == reference_moments(a.rows + b.rows)
    assert ab == divided(moments(a.rows, 2).plus_rows(b.rows))


_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _row_strategy(width: int):
    return st.tuples(st.tuples(*[_small] * (width - 1)), _small).map(
        lambda pair: Row((1,) + pair[0], pair[1])
    )


@given(
    width=st.integers(min_value=1, max_value=4),
    rows=st.integers(min_value=1, max_value=4).flatmap(
        lambda width: st.lists(_row_strategy(width), max_size=6)
    ),
)
@example(width=2, rows=[Row((1, Fraction(1, 3)), Fraction(-1, 6)), Row((1, 2), Fraction(1, 4))])
@example(width=3, rows=[])
@settings(max_examples=200, deadline=None)
def test_moments_match_outer_product_reference(width, rows):
    # Integer-scaled sums, each block over its scale, give the same reduced
    # fractions as Fraction sums, and the same error on a row of the wrong width.
    got = outcome(lambda: divided(moments(rows, width)))
    assert got == outcome(reference_moments, rows, width)


def test_alg_dlr_exact_fit():
    out = DlrAlgorithm(1).compute([_rows((1, 1), (0, 1))])
    assert out == CoefficientsOutput((Fraction(1), Fraction(0)))


def test_alg_dlr_overdetermined_least_squares():
    out = DlrAlgorithm(1).compute([_rows((1, 1), (0, 1)), _rows((2, 2))])
    assert out == CoefficientsOutput((Fraction(5, 6), Fraction(1, 2)))


def test_alg_dlr_underdetermined_is_null():
    assert isinstance(DlrAlgorithm(1).compute([_rows((1, 1))]), NullOutput)
    assert isinstance(DlrAlgorithm(1).compute([]), NullOutput)


def test_dlr_width_mismatch():
    alg = DlrAlgorithm(2)
    with pytest.raises(PayloadError):
        alg.compute([_rows((1, 1), (0, 1))])


def test_lr_cost_additive_and_predict():
    rows_a = _rows((1, 1), (0, 1))
    rows_b = _rows((2, 2))
    beta = (Fraction(5, 6), Fraction(1, 2))
    joined = tuple(rows_a.rows) + tuple(rows_b.rows)
    assert lr_cost(joined, beta) == lr_cost(rows_a, beta) + lr_cost(rows_b, beta)
    assert predict(beta, (Fraction(1), Fraction(2))) == Fraction(11, 6)


@given(
    xs=st.lists(
        st.integers(min_value=-9, max_value=9), min_size=2, max_size=5, unique=True
    ),
    coefs=st.tuples(
        st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4)
    ),
)
@settings(max_examples=60, deadline=None)
def test_dlr_recovers_exact_plane(xs, coefs):
    b0, b1 = Fraction(coefs[0]), Fraction(coefs[1])
    rows = RowMultiset(
        tuple(Row((1, x), b0 + b1 * Fraction(x)) for x in xs)
    )
    out = DlrAlgorithm(1).compute([rows])
    assert out == CoefficientsOutput((b0, b1))


@given(
    data=st.lists(
        st.tuples(
            st.integers(min_value=-5, max_value=5), st.integers(min_value=-5, max_value=5)
        ),
        min_size=3,
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_dlr_fit_minimizes_cost(data):
    rows = RowMultiset(tuple(Row((1, x), y) for x, y in data))
    out = DlrAlgorithm(1).compute([rows])
    if isinstance(out, NullOutput):
        return
    assert isinstance(out, CoefficientsOutput)
    base = lr_cost(rows, out.coefficients)
    for db0 in (-1, 1):
        for db1 in (-1, 1):
            other = (
                out.coefficients[0] + Fraction(db0, 7),
                out.coefficients[1] + Fraction(db1, 7),
            )
            assert lr_cost(rows, other) > base


# =============================================================================
# folds against the from-scratch aggregations
# =============================================================================


def _point_sets(dim: int):
    points = st.tuples(*[st.integers(min_value=-3, max_value=3).map(Fraction)] * dim)
    return st.lists(points, max_size=4, unique=True).map(PointSet)


# Rationals with mixed small and large denominators, so the average's
# integer scale rises, often more than once in a ledger.
_mixed_rationals = st.builds(
    Fraction,
    st.integers(min_value=-10**12, max_value=10**12),
    st.sampled_from((1, 2, 3, 4, 6, 7, 10, 12, 1_000_003, 2**61 - 1, 10**18)),
)


def _rational_point_sets():
    return st.lists(st.tuples(_mixed_rationals), max_size=4, unique=True).map(PointSet)


def _row_sets(width: int):
    # Few distinct small values, so singular Gram matrices are common.
    value = st.integers(min_value=-1, max_value=1).map(Fraction)
    row = st.tuples(st.tuples(*[value] * (width - 1)), _small).map(
        lambda pair: Row((1,) + pair[0], pair[1])
    )
    return st.lists(row, max_size=3).map(RowMultiset)


_any_payload = st.one_of(
    st.just(Empty()),
    _small.map(Scalar),
    st.integers(min_value=1, max_value=3).flatmap(_point_sets),
    st.integers(min_value=1, max_value=3).flatmap(_row_sets),
)

_NORMS = st.sampled_from((1, 2, NORM_INF))


@st.composite
def _algorithm_and_ledger(draw):
    kind = draw(st.sampled_from(("max", "average", "kcenter", "kmedian", "dlr")))
    if kind == "max":
        algorithm, native = MaxAlgorithm(), _small.map(Scalar)
    elif kind == "average":
        algorithm, native = AverageAlgorithm(), _rational_point_sets()
    elif kind == "dlr":
        algorithm = DlrAlgorithm(draw(st.integers(min_value=1, max_value=2)))
        native = _row_sets(algorithm.d + 1)
    else:
        cls = KCenterAlgorithm if kind == "kcenter" else KMedianAlgorithm
        # A small union cap, so that InstanceTooLargeError comes up too.
        algorithm = cls(draw(st.integers(min_value=1, max_value=3)), draw(_NORMS), 6)
        native = _point_sets(draw(st.integers(min_value=1, max_value=2)))
    # One payload in ten is of any kind: wrong kinds, other dimensions and widths.
    payload = st.integers(min_value=0, max_value=9).flatmap(
        lambda roll: _any_payload if roll == 0 else st.one_of(native, st.just(Empty()))
    )
    return algorithm, draw(st.lists(payload, max_size=7))


@given(case=_algorithm_and_ledger())
@example(case=(MaxAlgorithm(), [Empty(), Empty()]))
@example(case=(MaxAlgorithm(), [Scalar(1), _points(2)]))
@example(case=(AverageAlgorithm(), [_points(1), PointSet(((1, 2),))]))
@example(case=(AverageAlgorithm(), [
    PointSet(((Fraction(1, 2),), (Fraction(-1, 3),))), Empty(), PointSet(((Fraction(5, 6),),)),
    PointSet(((Fraction(7, 10**18),),)),
]))
@example(case=(KCenterAlgorithm(3), [_points(1), PointSet(((1, 2),))]))
@example(case=(KCenterAlgorithm(3), [_points(1, 2), _points(2)]))
@example(case=(KMedianAlgorithm(2, 2, 3), [_points(1, 2), _points(3, 4)]))
@example(case=(KMedianAlgorithm(1), [PointSet(((0, 0), (1, 1)))]))
@example(case=(DlrAlgorithm(1), [_rows((1, 1)), _rows((1, 2))]))
@example(case=(DlrAlgorithm(1), [_rows((1, 1)), RowMultiset((Row((1, 2, 3), 0),))]))
@example(case=(DlrAlgorithm(2), [RowMultiset((Row((1, 2, 3), 0),)), _rows((1, 1))]))
@settings(max_examples=500, deadline=None)
def test_fold_matches_from_scratch_reference(case):
    algorithm, ledger = case
    got = outcome(algorithm.compute, ledger)
    want = outcome(reference_output, algorithm, ledger)
    assert got == want


_CHECK_ALGORITHMS = {
    "max": MaxAlgorithm(),
    "average": AverageAlgorithm(),
    "kcenter": KCenterAlgorithm(1),
    "kmedian": KMedianAlgorithm(1),
    "dlr_d1": DlrAlgorithm(1),
    "dlr_d2": DlrAlgorithm(2),
}
_CHECK_PAYLOADS = {
    "scalar": Scalar(1),
    "empty": Empty(),
    "points_1d": PointSet(((1,), (2,))),
    "points_2d": PointSet(((1, 2),)),
    "points_none": PointSet(()),
    "rows_width_2": RowMultiset((Row((1, 1), 1), Row((1, 2), 3))),
    "rows_width_3": RowMultiset((Row((1, 2, 3), 0),)),
    "rows_none": RowMultiset(()),
}


@pytest.mark.parametrize("payload", list(_CHECK_PAYLOADS.values()), ids=list(_CHECK_PAYLOADS))
@pytest.mark.parametrize(
    "algorithm", list(_CHECK_ALGORITHMS.values()), ids=list(_CHECK_ALGORITHMS)
)
def test_check_refuses_what_the_reference_refuses(algorithm, payload):
    # `check` raises just where the from-scratch aggregation of the one-payload
    # ledger raises a PayloadError, with the fold's message, and says False
    # just where the fold returns the empty ledger's state itself.
    refused = outcome(algorithm.check, payload) is PayloadError
    assert refused == (outcome(reference_compute, algorithm, [payload]) is PayloadError)
    state = algorithm.start()
    if refused:
        with pytest.raises(PayloadError) as checked:
            algorithm.check(payload)
        with pytest.raises(PayloadError) as folded:
            algorithm.fold(state, payload)
        assert str(checked.value) == str(folded.value)
    else:
        assert (algorithm.fold(state, payload) is state) == (not algorithm.check(payload))


def _split(rows: list, cuts: list[int]) -> list[RowMultiset]:
    """`rows` cut at the given positions into consecutive payloads."""
    bounds = [0, *sorted({min(c, len(rows)) for c in cuts}), len(rows)]
    return [RowMultiset(rows[a:b]) for a, b in zip(bounds, bounds[1:])]


# Several coprime denominators, so that two payloads rarely share a scale.
_wide_fraction = st.builds(
    Fraction, st.integers(min_value=-20, max_value=20), st.sampled_from((1, 2, 3, 5, 7, 12))
)
# Pairwise coprime denominators of 323 to 1279 bits (products of distinct
# Mersenne primes), like the targets of a probe ladder that inherit the
# denominators of the fit.
_HUGE_DENOMINATORS = (
    (2**89 - 1) * (2**107 - 1) * (2**127 - 1),
    2**521 - 1,
    2**607 - 1,
    2**1279 - 1,
)
_huge_fraction = st.builds(
    Fraction,
    st.integers(min_value=-(2**1300), max_value=2**1300),
    st.sampled_from(_HUGE_DENOMINATORS),
)
_target = st.one_of(_wide_fraction, _huge_fraction)


def _dlr_rows_and_cuts(max_rows: int):
    def rows_and_cuts(width: int):
        row = st.tuples(st.tuples(*[_wide_fraction] * (width - 1)), _target).map(
            lambda pair: Row((1,) + pair[0], pair[1])
        )
        return st.tuples(
            st.just(width),
            st.lists(row, max_size=max_rows),
            st.lists(st.integers(min_value=0, max_value=max_rows), max_size=4),
        )

    return st.integers(min_value=2, max_value=4).flatmap(rows_and_cuts)


@given(case=_dlr_rows_and_cuts(6))
@example(case=(2, [Row((1, Fraction(1, 3)), Fraction(-1, 6)), Row((1, 2), Fraction(1, 4))], [1]))
@example(
    case=(
        2,
        [Row((1, Fraction(1, 3)), Fraction(1, 2**521 - 1)), Row((1, 2), Fraction(5, 2**607 - 1))],
        [1],
    )
)
@settings(max_examples=200, deadline=None)
def test_integer_dlr_state_over_its_scale_is_the_moments(case):
    width, rows, cuts = case
    algorithm = DlrAlgorithm(width - 1)
    state = reduce(algorithm.fold, _split(rows, cuts), algorithm.start())
    entries = [
        state.gram_scale, state.cross_scale, *state.cross, *(v for row in state.gram for v in row)
    ]
    assert all(type(v) is int for v in entries)
    assert divided(state) == reference_moments(rows, width)


@given(case=_dlr_rows_and_cuts(6), targets=st.lists(_huge_fraction, min_size=6, max_size=6))
@settings(max_examples=100, deadline=None)
def test_dlr_gram_scale_depends_only_on_the_features(case, targets):
    # Refolding the same features, cut the same way, with huge-denominator
    # targets leaves the Gram block and its scale as they were.
    width, rows, cuts = case
    relabeled = [Row(row.features, target) for row, target in zip(rows, targets)]
    algorithm = DlrAlgorithm(width - 1)
    state = reduce(algorithm.fold, _split(rows, cuts), algorithm.start())
    other = reduce(algorithm.fold, _split(relabeled, cuts), algorithm.start())
    assert (other.gram_scale, other.gram) == (state.gram_scale, state.gram)


@given(case=_dlr_rows_and_cuts(6))
@settings(max_examples=200, deadline=None)
def test_dlr_output_is_the_same_for_any_split_of_the_rows(case):
    width, rows, cuts = case
    algorithm = DlrAlgorithm(width - 1)
    whole = algorithm.fold(algorithm.start(), RowMultiset(rows))
    split = reduce(algorithm.fold, _split(rows, cuts), algorithm.start())
    assert algorithm.output(split) == algorithm.output(whole)


def _moments_or_message(function, *args):
    """`function(*args)` over its scales, or the message of its `PayloadError`."""
    try:
        result = function(*args)
    except PayloadError as exc:
        return str(exc)
    return divided(result) if isinstance(result, ScaledMoments) else result


def _kernel_case(width: int):
    # Rows whose non-intercept features are each zero or carry the wide
    # denominators, so a row mixes zero and nonzero features and the Gram
    # scale rises partway through a fold.
    features = st.tuples(*[st.one_of(st.just(0), _wide_fraction)] * (width - 1))
    row = st.tuples(features, _target).map(lambda pair: Row((1, *pair[0]), pair[1]))
    return st.tuples(
        st.just(width),
        st.lists(row, max_size=4),
        st.lists(row, max_size=6),
        st.lists(st.integers(min_value=0, max_value=6), max_size=4),
    )


_RISING = [
    Row((1, 2), 1),
    Row((1, Fraction(1, 3)), Fraction(1, 2**521 - 1)),
    Row((1, Fraction(1, 2)), Fraction(5, 2**607 - 1)),
]
# A ladder probe: 1 at the intercept and at one coordinate, a huge target.
_PROBE = Row((1, 0, 1, 0), Fraction(-(2**1300) + 7, 2**1279 - 1))
_PROBE_BASE = [Row((1, Fraction(1, 2), 3, 0), 1), Row((1, 0, 0, Fraction(-5, 3)), Fraction(1, 7))]


@given(
    case=st.integers(min_value=1, max_value=4).flatmap(_kernel_case),
    sign=st.sampled_from((1, -1)),
    stray=st.none() | st.integers(min_value=0, max_value=6),
)
@example(case=(2, [], _RISING, [1, 2]), sign=-1, stray=None)
@example(case=(2, _RISING[:1], _RISING[1:], []), sign=1, stray=None)
@example(case=(3, [], [], []), sign=-1, stray=None)
@example(case=(3, [Row((1, 0, 0), Fraction(1, 3))], [Row((1, 0, 0), 2)], [1]), sign=-1, stray=0)
@example(case=(4, _PROBE_BASE, [_PROBE, _PROBE], [1]), sign=-1, stray=None)
@example(case=(4, _PROBE_BASE, [_PROBE], []), sign=1, stray=None)
@settings(max_examples=200, deadline=None)
def test_plus_rows_over_its_scales_is_the_outer_product_sum(case, sign, stray):
    # `moments` and `plus_rows` with either sign equal the Fraction outer
    # products, and a row of the wrong width gives the reference's message;
    # folding payload by payload reaches the same moments as all rows at once.
    width, base, rows, cuts = case
    if stray is not None:
        rows = rows[:stray] + [Row((1,) * (width + 1), 0)] + rows[stray:]
    expected = _moments_or_message(reference_moments, rows, width)
    assert _moments_or_message(moments, rows, width) == expected
    if not isinstance(expected, str):
        before = reference_moments(base, width)
        expected = type(expected)(
            *(
                RMatrix([[a + sign * b for a, b in zip(*pair)] for pair in zip(x.rows, y.rows)])
                for x, y in zip(before, expected)
            )
        )
    assert _moments_or_message(moments(base, width).plus_rows, rows, sign) == expected
    if stray is None:
        folded = reduce(lambda m, p: m.plus_rows(p.rows), _split(rows, cuts), moments((), width))
        assert divided(folded) == divided(moments(rows, width))


def test_plus_rows_raises_a_scale_only_when_the_row_needs_it():
    # Features over 3 and then 2 raise the Gram scale to 9 and then 36; a
    # row over 1 leaves it, and the cross scale takes each target's too.
    rising = moments(_RISING, 2)
    assert rising.gram_scale == 36
    assert rising.cross_scale == 6 * (2**521 - 1) * (2**607 - 1)
    assert moments(_RISING[:2], 2).plus_rows(_RISING[:1]).gram_scale == 9
    assert moments((), 2).plus_rows(()) == moments((), 2)


def _residual_case(width: int):
    # Two row lists for the folded record and a point with wide or huge
    # denominators.
    return st.tuples(_kernel_case(width), st.tuples(*[_target] * width))


_LARGE_POINT = (Fraction(1, 2**607 - 1), Fraction(-5, 2**521 - 1))


@given(case=st.integers(min_value=1, max_value=4).flatmap(_residual_case))
@example(case=((2, _RISING, [], []), _LARGE_POINT))
@example(case=((2, _RISING[:1], _RISING[1:], []), _LARGE_POINT))
@example(case=((3, [], [], []), (Fraction(1, 3), 0, Fraction(-2, 7))))
@settings(max_examples=200, deadline=None)
def test_residual_over_its_scale_is_the_normal_equations_residual(case):
    # G @ x - c of a record folded with both signs, over the one scale it
    # comes with, equals the Fraction residual of the reference moments, and
    # it is all zeros at the solution of invertible rows.
    (width, rows, more, _), x = case
    scale, residual = moments(rows, width).plus_rows(more, -1).residual(x)
    plus, minus = reference_moments(rows, width), reference_moments(more, width)
    gram = [[a - b for a, b in zip(*pair)] for pair in zip(plus.gram.rows, minus.gram.rows)]
    cross = map(sub, plus.cross.column_values(), minus.cross.column_values())
    expected = tuple(sum(map(mul, row, x)) - c for row, c in zip(gram, cross))
    assert tuple(Fraction(v, scale) for v in residual) == expected
    fit = moments(rows, width).solve()
    if fit is not None:
        assert moments(rows, width).residual(fit)[1] == (0,) * width


@given(case=st.integers(min_value=1, max_value=4).flatmap(_kernel_case))
@example(case=(2, _RISING, [], []))
@settings(max_examples=100, deadline=None)
def test_of_divided_blocks_gives_back_the_blocks_and_the_solution(case):
    width, rows, _, _ = case
    folded = moments(rows, width)
    blocks = divided(folded)
    rebuilt = ScaledMoments.of(blocks.gram.rows, blocks.cross.column_values())
    assert divided(rebuilt) == blocks
    assert rebuilt.solve() == folded.solve()


def test_of_takes_each_block_over_its_own_lcm():
    half, third = Fraction(1, 2), Fraction(1, 3)
    record = ScaledMoments.of(((half, 1), (1, third)), (Fraction(1, 5), 2))
    assert record == ScaledMoments(6, ((3, 6), (6, 2)), 5, (1, 10))


@given(
    case=st.integers(min_value=1, max_value=4).flatmap(_kernel_case),
    sign=st.sampled_from((1, -1)),
)
@example(case=(2, _RISING[:1], _RISING[1:], []), sign=-1)
@example(case=(4, _PROBE_BASE, [_PROBE], []), sign=1)
@settings(max_examples=100, deadline=None)
def test_plus_is_the_fraction_sum_of_the_records(case, sign):
    # The record sum, each block over the lcm of its two scales, equals the
    # Fraction sum of the two records' moments in either order, and a record
    # of another width raises instead of being cut to the shorter one.
    width, rows, more, _ = case
    left, right = moments(rows, width), moments((), width).plus_rows(more, sign)
    expected = [
        RMatrix([[a + sign * b for a, b in zip(*pair)] for pair in zip(x.rows, y.rows)])
        for x, y in zip(reference_moments(rows, width), reference_moments(more, width))
    ]
    assert list(divided(left.plus(right))) == expected
    assert divided(right.plus(left)) == divided(left.plus(right))
    for other in (width - 1, width + 1):
        with pytest.raises(PayloadError) as excinfo:
            left.plus(moments((), other))
        assert str(excinfo.value) == f"moments of width {other} do not match {width}"


def test_fold_states_are_reusable_values():
    # Folding one state along two continuations leaves it intact.
    algorithm = DlrAlgorithm(1)
    state = algorithm.fold(algorithm.start(), _rows((1, 1), (0, 1)))
    left = algorithm.fold(state, _rows((2, 2)))
    right = algorithm.fold(state, _rows((2, 0)))
    assert algorithm.output(state) == CoefficientsOutput((Fraction(1), Fraction(0)))
    assert algorithm.output(left) == CoefficientsOutput((Fraction(5, 6), Fraction(1, 2)))
    assert algorithm.output(right) != algorithm.output(left)


# =============================================================================
# registry
# =============================================================================


def test_make_algorithm_names():
    assert isinstance(make_algorithm("max", {}), type(make_algorithm("max")))
    assert make_algorithm("kcenter", {"k": 4}).k == 4  # type: ignore[attr-defined]
    assert make_algorithm("dlr", {"d": 2}).d == 2  # type: ignore[attr-defined]
    with pytest.raises(ParamError):
        make_algorithm("nope")
    with pytest.raises(ParamError):
        make_algorithm("kcenter", {"k": 0})


@pytest.mark.parametrize(
    "name, params",
    [
        ("kcenter", {"k": True}),
        ("kcenter", {"k": 2.0}),
        ("kcenter", {"k": "2"}),
        ("kmedian", {"k": 2, "max_union": 2.9}),
        ("kcenter", {"k": 2, "max_union": False}),
        ("dlr", {"d": 2.7}),
        ("dlr", {"d": True}),
        ("kcenter", {"k": 2, "p": True}),
        ("kcenter", {"k": 2, "p": 2.0}),
        ("kcenter", {"k": 2, "p": "2"}),
        ("kcenter", {"k": 2, "p": 3}),
        ("max", {"k": 2}),
    ],
)
def test_make_algorithm_rejects_inexact_params(name, params):
    # `True == 1` and `2.0 == 2`: neither may pass for an integer parameter.
    with pytest.raises(ParamError):
        make_algorithm(name, params)


@pytest.mark.parametrize(
    "name, params, param",
    [
        ("kcenter", {}, "k"),
        ("kcenter", {"k": 0}, "k"),
        ("kmedian", {"k": 2, "max_union": 2.9}, "max_union"),
        ("kcenter", {"k": 2, "p": 3}, "p"),
        ("dlr", {}, "d"),
        ("dlr", {"d": 0}, "d"),
    ],
)
def test_make_algorithm_names_the_faulty_parameter(name, params, param):
    with pytest.raises(ParamError) as info:
        make_algorithm(name, params)
    assert info.value.param == param


@pytest.mark.parametrize(
    "name, params",
    [("max", False), ("max", 0), ("max", ""), ("max", []), ("kcenter", [("k", 3)])],
    ids=["false", "zero", "empty_string", "empty_list", "list_of_pairs"],
)
def test_make_algorithm_refuses_params_that_are_not_a_mapping(name, params):
    # Only None means "no params": each of these used to build an algorithm.
    with pytest.raises(ParamError, match=f"^{name} parameters must be a mapping, got "):
        make_algorithm(name, params)


def test_make_algorithm_accepts_every_norm():
    for p in (1, 2, NORM_INF):
        assert make_algorithm("kmedian", {"k": 1, "p": p}).p == p  # type: ignore[attr-defined]


def test_union_points_deduplicates():
    a = _points(1, 2)
    b = _points(2, 3)
    assert reference_union([a, b]) == ((Fraction(1),), (Fraction(2),), (Fraction(3),))
