"""Exact rational scalars and small dense rational matrices.

Every quantity in the simulator is a ``fractions.Fraction``: the verdicts
downstream (does one run's output differ from another's?) are exact-equality
predicates, so floating point is never acceptable. ``Fraction`` already
guarantees the canonical form (reduced, positive denominator), which is why
there is no separate rational wrapper here, only a parse helper for the "p/q"
wire format and a matrix type sized for normal-equation work. `RMatrix`
offers products, transposes and elimination; it has no elementwise sums,
since the moments are added as integer `algorithms.ScaledMoments` records.
Public constructors coerce and check their input; `_exact` wraps values that
exclusim computed, canonical by construction, and `rational` returns a
`Fraction` unchanged.

The matrix kernel computes on plain ints. Each row (or column) is scaled by
the least common multiple of its own denominators; elimination is
fraction-free (Bareiss 1968, "Sylvester's identity and multistep
integer-preserving Gaussian elimination"), so every intermediate division is
exact; and each result entry becomes one ``Fraction`` at the end. The results
are the same reduced rationals that ``Fraction`` arithmetic would give. The
Gauss-Jordan loop is one function over integer rows, `solve_integer_rows`,
which updates the rows in place, each at its full width, and returns the
determinant d of the left block and the rows of d times the solution.
`RMatrix.solve` and `RMatrix.det` call it on their scaled rows, and
`ScaledMoments.solve`, the one solve of the regression fold state
(`algorithms.DlrAlgorithm`) and of the probe-ladder inference
(`strategies.triangulation_infer`), hands it the integer system directly:
the Gram block over the squared feature scale on the left and the cross
vector over the feature scale times the target scale on the right, so the
pivots stay as small as the features and the large target integers stay in
the right-hand column.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import attrgetter, mul
from typing import Iterable, Optional, Sequence, Union

RationalLike = Union[Fraction, int, str]

_NUMERATOR, _DENOMINATOR = attrgetter("numerator"), attrgetter("denominator")

# The string forms `rational` reads: a signed numerator, an optional denominator.
_RATIONAL_TEXT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


class DimensionError(ValueError):
    """Matrix shapes do not admit the requested operation."""


def is_int(value: object) -> bool:
    """Whether `value` is an int and not a bool, though `bool` subclasses `int`."""
    return isinstance(value, int) and not isinstance(value, bool)


def rational(value: RationalLike) -> Fraction:
    """Coerce an int or "p/q" string to an exact rational; return a Fraction unchanged.

    Floats are rejected on purpose: silently rationalizing a float would
    smuggle rounding error into exact-equality comparisons; so are booleans,
    though `bool` subclasses `int`. A string is an optional sign, ASCII
    digits and an optional "/digits", with whitespace around it; the decimal
    and exponent forms `Fraction` also reads are refused with its message,
    since "1e10000000" would build an integer of ten million digits.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        text = value.strip()
        match = _RATIONAL_TEXT.fullmatch(text)
        if match is None:
            raise ValueError(f"Invalid literal for Fraction: {text!r}")
        numerator, denominator = match.groups()
        # `int` keeps the interpreter's cap on digits, so an overlong string
        # fails as `Fraction` would fail on it.
        if denominator is None:
            return Fraction(int(numerator))
        return Fraction(int(numerator), int(denominator))
    # `int` before `Fraction`: a failing check against an abstract base class is slow.
    if is_int(value):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"expected an integer or 'p/q' string, got {value!r}")


def _scaled(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The lcm of the denominators of `values`, and `values` times it as ints.

    Integer values, the common case of a feature row, take no division.
    """
    scale = math.lcm(*map(_DENOMINATOR, values))
    if scale == 1:
        return 1, list(map(_NUMERATOR, values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def solve_integer_rows(work: list[list[int]]) -> Optional[tuple[int, list[list[int]]]]:
    """Solve the integer system [A | B] given by its n rows; None if A is singular.

    Fraction-free Gauss-Jordan (Bareiss), in place on rows that keep their
    full width: at step k, with `pivot` the entry of row k in column k,
    `previous` the pivot before it and `f` another row's entry in column k,
    each entry `a` of that row right of column k, above the pivot row as
    well as below, becomes `(pivot * a - f * b) // previous`, where `b` is
    the pivot row's entry; the division is always exact. Columns up to k
    are never read again, so they are left as they are. The pivot is the
    first nonzero entry of column k from row k down, so row scaling does
    not change which systems are singular; a swap also negates the row it
    moves down, which keeps both the determinant and the solution. The
    elimination turns the left block into the last pivot d, the
    determinant of A, times the identity, so the returned rows (the right
    block) are d times the solution X of A @ X = B. `work` is overwritten.
    """
    n = len(work)
    previous = 1
    for k in range(n):
        for pivot_row in range(k, n):
            if work[pivot_row][k]:
                break
        else:
            return None
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], [-v for v in work[k]]
        pivot_line = work[k]
        pivot = pivot_line[k]
        columns = range(k + 1, len(pivot_line))
        for r in range(n):
            if r != k:
                line = work[r]
                f = line[k]
                for j in columns:
                    line[j] = (pivot * line[j] - f * pivot_line[j]) // previous
        previous = pivot
    return previous, [row[n:] for row in work]


class RMatrix:
    """Immutable dense matrix of exact rationals.

    Intended for the small systems that arise here (normal equations in
    dimension d+1, d <= a handful). `solve` and `det` scale each row to ints
    by the lcm of its own denominators, which changes neither the solution
    nor (up to the product of the scales) the determinant, and hand them to
    `solve_integer_rows`, the one fraction-free elimination. The pivot is the
    first nonzero entry of the column, the right rule for exact arithmetic;
    an entry is zero here exactly when it is zero under `Fraction`
    elimination, so the same systems are singular. `@` takes integer dot
    products of the scaled rows and columns and builds one `Fraction` per
    entry.
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

    @classmethod
    def _exact(cls, rows: tuple[tuple[Fraction, ...], ...]) -> "RMatrix":
        """Wrap rows that are already a valid matrix of `Fraction`s.

        For results computed here, which are canonical by construction; the
        public constructor is the input boundary and keeps its checks.
        """
        matrix = object.__new__(cls)
        matrix.rows = rows
        return matrix

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
        one, zero = Fraction(1), Fraction(0)
        return RMatrix._exact(
            tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        )

    def column_values(self, c: int = 0) -> tuple[Fraction, ...]:
        return tuple(row[c] for row in self.rows)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def __matmul__(self, other: "RMatrix") -> "RMatrix":
        if self.ncols != other.nrows:
            raise DimensionError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        left = [_scaled(row) for row in self.rows]
        right = [_scaled(column) for column in zip(*other.rows)]
        return RMatrix._exact(
            tuple(
                tuple(Fraction(sum(map(mul, a, b)), s * t) for t, b in right) for s, a in left
            )
        )

    def transpose(self) -> "RMatrix":
        return RMatrix._exact(tuple(zip(*self.rows)))

    # ------------------------------------------------------------------
    # elimination
    # ------------------------------------------------------------------

    def det(self) -> Fraction:
        """The kernel's determinant of the scaled rows, over the row scales."""
        if self.nrows != self.ncols:
            raise DimensionError("determinant of a non-square matrix")
        scales, ints = zip(*map(_scaled, self.rows))
        solved = solve_integer_rows(list(ints))
        return Fraction(0) if solved is None else Fraction(solved[0], math.prod(scales))

    def solve(self, rhs: "RMatrix") -> Optional["RMatrix"]:
        """Solve self @ X = rhs exactly; None signals a singular system.

        Each row of [self | rhs] is scaled to ints and `solve_integer_rows`
        eliminates; X is its right block over its determinant.
        """
        if self.nrows != self.ncols:
            raise DimensionError("solve requires a square matrix")
        if rhs.nrows != self.nrows:
            raise DimensionError("right-hand side has the wrong number of rows")
        solved = solve_integer_rows([_scaled(a + b)[1] for a, b in zip(self.rows, rhs.rows)])
        if solved is None:
            return None
        denominator, rows = solved
        return RMatrix._exact(tuple(tuple(Fraction(v, denominator) for v in row) for row in rows))

    def inverse(self) -> Optional["RMatrix"]:
        return self.solve(RMatrix.identity(self.nrows))
