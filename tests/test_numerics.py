"""Exact rational parsing and small-matrix linear algebra."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exclusim.numerics import (
    DimensionError,
    RMatrix,
    format_rational,
    rational,
    rational_sqrt,
)


# =============================================================================
# rational parsing and formatting
# =============================================================================


def test_rational_accepts_int_str_fraction():
    assert rational(3) == Fraction(3)
    assert rational("5/6") == Fraction(5, 6)
    assert rational(" -7/2 ") == Fraction(-7, 2)
    assert rational(Fraction(1, 3)) == Fraction(1, 3)


def test_rational_rejects_floats():
    with pytest.raises(TypeError):
        rational(0.5)


def test_rational_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        rational("1/0")


def test_format_rational_roundtrip():
    assert format_rational(Fraction(5, 6)) == "5/6"
    assert format_rational(Fraction(4)) == "4"
    assert rational(format_rational(Fraction(-9, 4))) == Fraction(-9, 4)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    with pytest.raises(ValueError):
        rational_sqrt(Fraction(-1))


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
    assert (a + b)[0, 0] == Fraction(3, 2)
    assert (a - b)[1, 1] == Fraction(7, 2)
    assert a.scale("1/2")[1, 0] == Fraction(3, 2)


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
    rhs = RMatrix.column([4, 5])
    x = a.solve(rhs)
    assert x is not None
    assert x.column_values() == (Fraction(5, 6), Fraction(1, 2))


def test_solve_singular_returns_none():
    assert RMatrix([[1, 2], [2, 4]]).solve(RMatrix.column([1, 1])) is None
    assert RMatrix([[1, 2], [2, 4]]).inverse() is None


def test_solve_requires_square():
    with pytest.raises(DimensionError):
        RMatrix([[1, 2]]).solve(RMatrix.column([1]))


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
    b = RMatrix.column(rhs)
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
