"""Exact linear algebra over the rationals.

Fraction-free (Bareiss) elimination on denominator-cleared integer rows keeps
entries as minors, not ever-growing fractions; solving scans columns only up
to the last pivot.  Inputs are rectangular sequences of sequences of ints or
Fractions; nothing here is float-aware.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .core import _scaled, as_fraction

__all__ = [
    "clear_denominators",
    "row_echelon_int",
    "rank",
    "row_basis",
    "solve_columns",
    "solve_linear",
    "matrix_multiply",
    "transpose",
]

Matrix = Sequence[Sequence]


def clear_denominators(row: Sequence) -> list:
    """Scale a rational row by the lcm of denominators; returns integers."""
    return _scaled([as_fraction(v) for v in row])[1]


def _width(rows: Matrix) -> int:
    """The common length of the rows; a ragged matrix is an error, not a truncation."""
    for i, r in enumerate(rows):
        if len(r) != len(rows[0]):
            raise ValueError(f"row {i} has length {len(r)} but row 0 has length {len(rows[0])}")
    return len(rows[0]) if rows else 0


def _primitive(row: list) -> list:
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else list(row)


def row_echelon_int(rows: list) -> tuple:
    """Fraction-free row echelon form of an integer matrix.

    Returns (echelon_rows, pivot_columns); echelon_rows are the nonzero rows,
    so len(echelon_rows) == rank.  All intermediate divisions are exact.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = _width(m)
    pivots = []
    r = 0
    prev = 1
    for c in range(nc):
        p = next((i for i in range(r, nr) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, nr):
            if not any(m[i][c:]):
                continue
            for j in range(c + 1, nc):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return [m[i] for i in range(r)], pivots


def rank(rows: Matrix) -> int:
    ech, _ = row_echelon_int([clear_denominators(r) for r in rows])
    return len(ech)


def row_basis(rows: Matrix) -> list:
    """A basis of the row space, as primitive integer-entry Fraction rows."""
    ech, _ = row_echelon_int([clear_denominators(r) for r in rows])
    return [[Fraction(v) for v in _primitive(r)] for r in ech]


def solve_columns(columns: Iterable[Sequence[int]], b: Sequence) -> tuple:
    """One exact solution of sum_j x_j * columns[j] = b; None if b is outside their span.

    A column (integers, length len(b)) is kept if it adds rank to the kept
    ones, and the scan stops at full row rank.  The kept columns are the
    lexicographically first column basis; every other coordinate is 0.
    Returns ({kept column index: value} | None, rank).
    """
    m = len(b)
    reduced = []  # (pivot row, kept column reduced against the earlier ones)
    kept = []  # (column index, kept column)
    for j, col in enumerate(columns):
        if len(col) != m:
            raise ValueError(f"column {j} has length {len(col)} but b has length {m}")
        v = list(col)
        for p, e in reduced:
            if v[p]:
                g = gcd(e[p], v[p])
                ep, vp = e[p] // g, v[p] // g
                v = [ep * x - vp * y for x, y in zip(v, e)]
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            continue
        reduced.append((p, _primitive(v)))
        kept.append((j, col))
        if len(kept) == m:
            break
    r = len(kept)
    aug = [clear_denominators([col[i] for _, col in kept] + [b[i]]) for i in range(m)]
    ech, pivots = row_echelon_int(aug)
    if r in pivots:
        return None, r
    # the kept columns are independent, so pivot i sits in row i, column i
    x = [Fraction(0)] * r
    for i in range(r - 1, -1, -1):
        x[i] = Fraction(ech[i][r] - sum(ech[i][c] * x[c] for c in range(i + 1, r)), ech[i][i])
    return {kept[i][0]: x[i] for i in range(r)}, r


def solve_linear(a: Matrix, b: Sequence) -> tuple:
    """One exact solution of a x = b with free variables pinned to zero.

    Returns (solution | None, nullity); None when the system is inconsistent.
    The pivot columns are the lexicographically first column basis of `a`
    (see solve_columns), so the output is deterministic.
    """
    rows = [list(r) for r in a]
    nc = _width(rows)
    if len(b) != len(rows):
        raise ValueError(f"rhs length {len(b)} != row count {len(rows)}")
    aug = [clear_denominators(row + [v]) for row, v in zip(rows, b)]
    rhs = [row.pop() for row in aug]
    solution, r = solve_columns(zip(*aug), rhs)
    if solution is None:
        return None, nc - r
    return [solution.get(j, Fraction(0)) for j in range(nc)], nc - r


def transpose(rows: Matrix) -> list:
    _width(rows)
    return [list(col) for col in zip(*rows)]


def matrix_multiply(a: Matrix, b: Matrix) -> list:
    if a and _width(a) != len(b):
        raise ValueError(f"row 0 of a has length {len(a[0])} but b has {len(b)} rows")
    bt = transpose(b)
    return [
        [sum((as_fraction(x) * as_fraction(y) for x, y in zip(row, col)), Fraction(0)) for col in bt]
        for row in a
    ]
