"""The row-Bareiss solver that column-scan solving replaced, kept as a test oracle.

It clears the denominators of every row of the augmented matrix [a | b],
eliminates across all columns, and back-substitutes over every column with
Fraction products.  Its pivot columns are the lexicographically first column
basis of `a`, so `linalg.solve_linear` must return exactly what it returns.
"""

from fractions import Fraction

from tabloids.linalg import clear_denominators, row_echelon_int


def solve_linear(a, b):
    """(solution | None, nullity) of a x = b with free variables pinned to zero."""
    rows = [list(r) for r in a]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if len(b) != nr:
        raise ValueError(f"rhs length {len(b)} != row count {nr}")
    aug = [clear_denominators(list(rows[i]) + [b[i]]) for i in range(nr)]
    ech, pivots = row_echelon_int(aug)
    if nc in pivots:
        return None, nc - (len(pivots) - 1)
    nullity = nc - len(pivots)
    x = [Fraction(0)] * nc
    for i in range(len(ech) - 1, -1, -1):
        c = pivots[i]
        acc = Fraction(ech[i][nc])
        for j in range(c + 1, nc):
            if ech[i][j]:
                acc -= ech[i][j] * x[j]
        x[c] = acc / ech[i][c]
    return x, nullity
