"""Exact rational scalars and small dense rational matrices.

Every quantity in the simulator is a ``fractions.Fraction``: the verdicts
downstream (does one run's output differ from another's?) are exact-equality
predicates, so floating point is never acceptable. ``Fraction`` already
guarantees the canonical form (reduced, positive denominator), which is why
there is no separate rational wrapper here, only parse/format helpers for the
"p/q" wire format and a matrix type sized for normal-equation work.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Rational = Fraction

RationalLike = Union[Fraction, int, str]


class DimensionError(ValueError):
    """Matrix shapes do not admit the requested operation."""


def rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational.

    Floats are rejected on purpose: silently rationalizing a float would
    smuggle rounding error into exact-equality comparisons.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"not an exact rational: {value!r}")


def format_rational(value: Fraction) -> str:
    """Render a rational in the canonical "p/q" (or bare "p") form."""
    return str(value)


def rational_sqrt(value: Fraction) -> Optional[Fraction]:
    """Exact square root of a non-negative rational, or None if irrational."""
    if value < 0:
        raise ValueError("square root of a negative rational")
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


class RMatrix:
    """Immutable dense matrix of exact rationals.

    Intended for the small systems that arise here (normal equations in
    dimension d+1, d <= a handful), so the implementation favors clarity:
    plain Gaussian elimination with first-nonzero pivoting, which is the
    right pivot rule for exact arithmetic.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[RationalLike]]):
        self.rows: tuple[tuple[Fraction, ...], ...] = tuple(
            tuple(rational(v) for v in row) for row in rows
        )
        if self.rows:
            width = len(self.rows[0])
            if width == 0 or any(len(row) != width for row in self.rows):
                raise DimensionError("ragged or empty matrix rows")
        else:
            raise DimensionError("matrix must have at least one row")

    # ------------------------------------------------------------------
    # shape and access
    # ------------------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def __getitem__(self, index: tuple[int, int]) -> Fraction:
        r, c = index
        return self.rows[r][c]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.rows)
        return f"RMatrix[{body}]"

    @staticmethod
    def identity(n: int) -> "RMatrix":
        return RMatrix(
            [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "RMatrix":
        return RMatrix([[Fraction(0)] * ncols for _ in range(nrows)])

    @staticmethod
    def column(values: Sequence[RationalLike]) -> "RMatrix":
        return RMatrix([[v] for v in values])

    def column_values(self, c: int = 0) -> tuple[Fraction, ...]:
        return tuple(row[c] for row in self.rows)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def _same_shape(self, other: "RMatrix") -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionError(
                f"shape mismatch: {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )

    def __add__(self, other: "RMatrix") -> "RMatrix":
        self._same_shape(other)
        return RMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "RMatrix") -> "RMatrix":
        self._same_shape(other)
        return RMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def scale(self, factor: RationalLike) -> "RMatrix":
        f = rational(factor)
        return RMatrix([[f * v for v in row] for row in self.rows])

    def __matmul__(self, other: "RMatrix") -> "RMatrix":
        if self.ncols != other.nrows:
            raise DimensionError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        return RMatrix(
            [
                [
                    sum((self.rows[i][k] * other.rows[k][j] for k in range(self.ncols)), Fraction(0))
                    for j in range(other.ncols)
                ]
                for i in range(self.nrows)
            ]
        )

    def transpose(self) -> "RMatrix":
        return RMatrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        )

    # ------------------------------------------------------------------
    # elimination
    # ------------------------------------------------------------------

    def det(self) -> Fraction:
        if self.nrows != self.ncols:
            raise DimensionError("determinant of a non-square matrix")
        work = [list(row) for row in self.rows]
        n = self.nrows
        det = Fraction(1)
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
            if pivot_row is None:
                return Fraction(0)
            if pivot_row != col:
                work[col], work[pivot_row] = work[pivot_row], work[col]
                det = -det
            pivot = work[col][col]
            det *= pivot
            for r in range(col + 1, n):
                if work[r][col] == 0:
                    continue
                factor = work[r][col] / pivot
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
        return det

    def solve(self, rhs: "RMatrix") -> Optional["RMatrix"]:
        """Solve self @ X = rhs exactly; None signals a singular system."""
        if self.nrows != self.ncols:
            raise DimensionError("solve requires a square matrix")
        if rhs.nrows != self.nrows:
            raise DimensionError("right-hand side has the wrong number of rows")
        n = self.nrows
        work = [list(a) + list(b) for a, b in zip(self.rows, rhs.rows)]
        width = n + rhs.ncols
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
            if pivot_row is None:
                return None
            if pivot_row != col:
                work[col], work[pivot_row] = work[pivot_row], work[col]
            pivot = work[col][col]
            work[col] = [v / pivot for v in work[col]]
            for r in range(n):
                if r != col and work[r][col] != 0:
                    factor = work[r][col]
                    work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
        return RMatrix([row[n:width] for row in work])

    def inverse(self) -> Optional["RMatrix"]:
        return self.solve(RMatrix.identity(self.nrows))
