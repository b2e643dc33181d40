"""Gauss-Jordan elimination and products over `Fraction`: the oracle for `RMatrix`.

This is how `RMatrix` computed before its kernel became fraction-free
(Bareiss) elimination and integer-scaled products: every step is plain
`Fraction` arithmetic with first-nonzero pivoting. The differential tests in
`test_numerics.py` compare the two exactly, including which systems are
singular.

`zeros`, `column`, `add`, `sub` and `scale` are the matrix builders and
elementwise operations that only the `Fraction` oracles (`reference_moments`,
the probe-ladder oracle) and the tests use, so they live here rather than on
`RMatrix`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from exclusim.numerics import DimensionError, RationalLike, RMatrix, rational


def zeros(nrows: int, ncols: int) -> RMatrix:
    return RMatrix([[0] * ncols] * nrows)


def column(values: Sequence[RationalLike]) -> RMatrix:
    return RMatrix([[v] for v in values])


def _same_shape(a: RMatrix, b: RMatrix) -> None:
    if a.nrows != b.nrows or a.ncols != b.ncols:
        raise DimensionError(f"shape mismatch: {a.nrows}x{a.ncols} vs {b.nrows}x{b.ncols}")


def add(a: RMatrix, b: RMatrix) -> RMatrix:
    _same_shape(a, b)
    return RMatrix([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)])


def sub(a: RMatrix, b: RMatrix) -> RMatrix:
    _same_shape(a, b)
    return RMatrix([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)])


def scale(a: RMatrix, factor: RationalLike) -> RMatrix:
    f = rational(factor)
    return RMatrix([[f * v for v in row] for row in a.rows])


def reference_det(a: RMatrix) -> Fraction:
    work = [list(row) for row in a.rows]
    n = a.nrows
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
            work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return det


def reference_solve(a: RMatrix, rhs: RMatrix) -> Optional[RMatrix]:
    """Solve a @ X = rhs by Gauss-Jordan over `Fraction`; None if singular."""
    n = a.nrows
    work = [list(x) + list(y) for x, y in zip(a.rows, rhs.rows)]
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
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return RMatrix([row[n:] for row in work])


def reference_inverse(a: RMatrix) -> Optional[RMatrix]:
    return reference_solve(a, RMatrix.identity(a.nrows))


def reference_matmul(a: RMatrix, b: RMatrix) -> RMatrix:
    return RMatrix(
        [
            [
                sum((a.rows[i][k] * b.rows[k][j] for k in range(a.ncols)), Fraction(0))
                for j in range(b.ncols)
            ]
            for i in range(a.nrows)
        ]
    )
