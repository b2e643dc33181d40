"""Exact rational parsing and small-matrix linear algebra."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exclusim.numerics import (
    DimensionError,
    RMatrix,
    _scaled,
    rational,
    solve_integer_rows,
)
from reference_linalg import (
    add,
    column,
    reference_det,
    reference_inverse,
    reference_matmul,
    reference_solve,
    scale,
    sub,
)


# =============================================================================
# rational parsing
# =============================================================================


def test_rational_accepts_int_str_fraction():
    assert rational(3) == Fraction(3)
    assert rational("5/6") == Fraction(5, 6)
    assert rational(" -7/2 ") == Fraction(-7, 2)
    assert rational(Fraction(1, 3)) == Fraction(1, 3)


@pytest.mark.parametrize("value", [Fraction(0), Fraction(-7, 2), Fraction(2**200, 3**90)])
def test_rational_returns_a_fraction_unchanged(value):
    assert rational(value) is value


def test_rational_rejects_floats():
    with pytest.raises(TypeError):
        rational(0.5)


@pytest.mark.parametrize("value", [True, False])
def test_rational_rejects_booleans(value):
    # `bool` subclasses `int`, but a flag is no number; the scenario loader
    # reports this same text at the field's path.
    with pytest.raises(TypeError) as info:
        rational(value)
    assert str(info.value) == f"expected an integer or 'p/q' string, got {value!r}"


def test_rational_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        rational("1/0")


@pytest.mark.parametrize(
    "text", ["0.5", "1e3", "1e10000000", "-47e-2", ".5", "1.", "1_000", "\u0663", "inf", "1/-2"]
)
def test_rational_refuses_decimal_and_exponent_strings(text):
    with pytest.raises(ValueError) as info:
        rational(f" {text} ")
    assert str(info.value) == f"Invalid literal for Fraction: {text!r}"


@pytest.mark.parametrize("text", ["1" * 5000, "-" + "2" * 4301, "1/" + "3" * 5000])
def test_rational_keeps_the_interpreters_digit_cap(text):
    with pytest.raises(ValueError) as got:
        rational(text)
    with pytest.raises(ValueError) as want:
        Fraction(text)
    assert str(got.value) == str(want.value)


def _parsed(function, text):
    try:
        return function(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


# A sign, ASCII digits and an optional "/digits", with whitespace around them.
_DOCUMENTED = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*", re.ASCII)


@given(text=st.text(alphabet="0123456789+-/._eE \t", max_size=7))
@example(text=" -7/2 ")
@example(text="+0/3")
@example(text="-1/0")
@example(text="007/0014")
@settings(max_examples=500, deadline=None)
def test_rational_reads_its_documented_strings_as_fraction_does(text):
    if _DOCUMENTED.fullmatch(text):
        assert _parsed(rational, text) == _parsed(Fraction, text.strip())
    else:
        assert _parsed(rational, text) == (
            ValueError, f"Invalid literal for Fraction: {text.strip()!r}"
        )


# =============================================================================
# matrix construction and arithmetic
# =============================================================================


def test_matrix_shape_validation():
    with pytest.raises(DimensionError):
        RMatrix([])
    with pytest.raises(DimensionError):
        RMatrix([[1, 2], [3]])


def test_matrix_add_sub_scale():
    a = RMatrix([[1, 2], [3, 4]])
    b = RMatrix([["1/2", 0], [0, "1/2"]])
    assert add(a, b)[0, 0] == Fraction(3, 2)
    assert sub(a, b)[1, 1] == Fraction(7, 2)
    assert scale(a, "1/2")[1, 0] == Fraction(3, 2)


def test_matmul_and_transpose():
    a = RMatrix([[1, 2], [3, 4]])
    b = RMatrix([[5], [6]])
    assert (a @ b).column_values() == (Fraction(17), Fraction(39))
    assert a.transpose().rows == ((Fraction(1), Fraction(3)), (Fraction(2), Fraction(4)))
    assert (b.transpose() @ b)[0, 0] == Fraction(61)


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        RMatrix([[1, 2]]) @ RMatrix([[1, 2]])


# =============================================================================
# elimination: determinant, solve, inverse
# =============================================================================


def test_det_known_values():
    assert RMatrix([[2, 1], [1, 1]]).det() == Fraction(1)
    assert RMatrix([[3, 3], [3, 5]]).det() == Fraction(6)
    assert RMatrix([[1, 2], [2, 4]]).det() == Fraction(0)


def test_solve_known_system():
    # The moment system behind a two-coefficient fit over three rows.
    a = RMatrix([[3, 3], [3, 5]])
    rhs = column([4, 5])
    x = a.solve(rhs)
    assert x is not None
    assert x.column_values() == (Fraction(5, 6), Fraction(1, 2))


def test_solve_singular_returns_none():
    assert RMatrix([[1, 2], [2, 4]]).solve(column([1, 1])) is None
    assert RMatrix([[1, 2], [2, 4]]).inverse() is None


def test_solve_requires_square():
    with pytest.raises(DimensionError):
        RMatrix([[1, 2]]).solve(column([1]))


def test_inverse_known():
    inv = RMatrix([[2, 1], [1, 1]]).inverse()
    assert inv == RMatrix([[1, -1], [-1, 2]])


_small_fraction = st.fractions(
    min_value=-9, max_value=9, max_denominator=7
)


@given(
    entries=st.lists(_small_fraction, min_size=9, max_size=9),
    rhs=st.lists(_small_fraction, min_size=3, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_solve_then_multiply_recovers_rhs(entries, rhs):
    a = RMatrix([entries[0:3], entries[3:6], entries[6:9]])
    b = column(rhs)
    x = a.solve(b)
    if x is None:
        assert a.det() == 0
    else:
        assert (a @ x).column_values() == tuple(rhs)
        assert a.det() != 0


@given(entries=st.lists(_small_fraction, min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_inverse_multiplies_to_identity(entries):
    a = RMatrix([entries[0:2], entries[2:4]])
    inv = a.inverse()
    if inv is not None:
        assert a @ inv == RMatrix.identity(2)


# =============================================================================
# differential test: the fraction-free kernel against Gauss-Jordan over Fraction
# =============================================================================

_entry = st.one_of(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**12)),
)


@st.composite
def _square_systems(draw):
    """A square matrix (n from 1 to 5) and a right-hand side with 1 to n+1 columns.

    Besides generic matrices, the shapes force what elimination must get
    right: zero leading entries (row swaps, or a singular first column), a
    row dependent on two others, a zero column, and sparse matrices whose
    entries are each zero with probability 1/2 (a zero in the pivot column
    at a later step, and pivots that come after a swap).
    """
    n = draw(st.integers(1, 5))
    rows = [[draw(_entry) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["generic", "zero_lead", "dependent", "zero_column", "sparse"]))
    if shape == "sparse":
        rows = [[Fraction(0) if draw(st.booleans()) else v for v in row] for row in rows]
    elif shape == "zero_lead":
        for i in range(draw(st.integers(1, n))):
            rows[i][0] = Fraction(0)
    elif shape == "dependent":
        c, e = draw(_entry), draw(_entry)
        other = rows[min(1, n - 2)] if n > 1 else [Fraction(0)]
        rows[-1] = [c * x + e * y for x, y in zip(rows[0], other)]
    elif shape == "zero_column":
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = Fraction(0)
    width = draw(st.integers(1, n + 1))
    rhs = [[draw(_entry) for _ in range(width)] for _ in range(n)]
    return rows, rhs


def _all_fractions(m):
    return m is None or all(type(v) is Fraction for row in m.rows for v in row)


def test_kernel_returns_the_signed_determinant():
    # One row swap: d is det A = -1, and the rows are d times X = (7, 5).
    assert solve_integer_rows([[0, 1, 5], [1, 0, 7]]) == (-1, [[-7], [-5]])
    # The empty system: its determinant is 1, and it has no rows.
    assert solve_integer_rows([]) == (1, [])


@given(system=_square_systems())
@example(system=([[0, 1], [1, 0]], [[1], [2]]))
@example(system=([[0, 0, 1], [0, 2, 0], [3, 0, 0]], [[1, 0], [0, 1], [1, 1]]))
@example(system=([[1, 2], [2, 4]], [[1], [1]]))
@example(system=([["1/2", "1/3"], ["1/5", "1/7"]], [["1/4"], ["1/6"]]))
@example(system=([["-3/4"]], [["5/6", 0]]))
@settings(max_examples=400, deadline=None)
def test_kernel_matches_fraction_gauss_jordan(system):
    a, b = RMatrix(system[0]), RMatrix(system[1])
    solution = a.solve(b)
    assert solution == reference_solve(a, b)
    assert a.det() == reference_det(a)
    assert type(a.det()) is Fraction
    # The kernel's own d, on the rows scaled to ints, is the signed determinant.
    scales, ints = zip(*map(_scaled, a.rows))
    solved = solve_integer_rows(list(ints))
    kernel_det = 0 if solved is None else Fraction(solved[0], math.prod(scales))
    assert kernel_det == reference_det(a)
    assert (solution is None) == (a.det() == 0)
    inverse = a.inverse()
    assert inverse == reference_inverse(a)
    assert a @ b == reference_matmul(a, b)
    assert b.transpose() @ a == reference_matmul(b.transpose(), a)
    for m in (solution, inverse, a @ b, a.transpose()):
        assert _all_fractions(m)
