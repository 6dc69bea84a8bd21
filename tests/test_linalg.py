"""Fraction-free elimination cross-checked against sympy's exact routines."""

import random
from fractions import Fraction

import linalg_oracles as oracle
import pytest
import sympy

from tabloids import linalg


def random_matrix(rng, rows, cols, lo=-6, hi=6, denoms=(1, 2, 3)):
    return [
        [Fraction(rng.randint(lo, hi), rng.choice(denoms)) for _ in range(cols)]
        for _ in range(rows)
    ]


def low_rank_matrix(rng, rows, cols, r):
    a = random_matrix(rng, rows, r)
    b = random_matrix(rng, r, cols)
    return linalg.matrix_multiply(a, b)


def to_sympy(m):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in m])


def test_clear_denominators():
    row = [Fraction(1, 2), Fraction(2, 3), 1]
    assert linalg.clear_denominators(row) == [3, 4, 6]
    assert linalg.clear_denominators([]) == []


def test_rank_matches_sympy():
    rng = random.Random(101)
    for _ in range(25):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        m = random_matrix(rng, rows, cols)
        assert linalg.rank(m) == to_sympy(m).rank()
    for _ in range(15):
        rows, cols = rng.randint(2, 7), rng.randint(2, 7)
        r = rng.randint(1, min(rows, cols))
        m = low_rank_matrix(rng, rows, cols, r)
        assert linalg.rank(m) == to_sympy(m).rank()


def test_row_basis_spans_row_space():
    rng = random.Random(55)
    for _ in range(20):
        rows, cols = rng.randint(2, 6), rng.randint(2, 6)
        m = low_rank_matrix(rng, rows, cols, rng.randint(1, min(rows, cols)))
        basis = linalg.row_basis(m)
        assert len(basis) == linalg.rank(m)
        assert linalg.rank(basis) == len(basis)
        assert linalg.rank(list(m) + basis) == len(basis)


def test_solve_linear_consistent():
    rng = random.Random(77)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, rows, cols)
        x_true = [Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(cols)]
        b = [sum((av * xv for av, xv in zip(row, x_true)), Fraction(0)) for row in a]
        x, nullity = linalg.solve_linear(a, b)
        assert x is not None
        assert nullity == cols - linalg.rank(a)
        for row, rhs in zip(a, b):
            assert sum((av * xv for av, xv in zip(row, x)), Fraction(0)) == rhs


def test_solve_linear_inconsistent():
    a = [[1, 1], [1, 1]]
    b = [1, 2]
    x, _ = linalg.solve_linear(a, b)
    assert x is None


def test_solve_free_variables_pinned_to_zero():
    # one equation, three unknowns: pivot on the first column only
    x, nullity = linalg.solve_linear([[2, 1, 1]], [4])
    assert x == [2, 0, 0]
    assert nullity == 2


def test_matrix_helpers():
    a = [[1, 2], [3, 4]]
    assert linalg.transpose(a) == [[1, 3], [2, 4]]
    assert linalg.matrix_multiply(a, a) == [[7, 10], [15, 22]]
    with pytest.raises(ValueError):
        linalg.solve_linear([[1, 2]], [1, 2])


def test_solve_linear_matches_row_bareiss_oracle():
    rng = random.Random(2024)
    cases = [([], []), ([[], []], [0, 0]), ([[], []], [0, 1]), ([[0, 0, 0]], [0]), ([[0, 0]], [3])]
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        r = rng.randint(1, min(rows, cols))
        kind = rng.choice(("full", "deficient", "inconsistent", "wide", "tall"))
        if kind == "wide":
            rows, cols = min(rows, cols), max(rows, cols) + 2
        elif kind == "tall":
            rows, cols = max(rows, cols) + 2, min(rows, cols)
        if kind in ("deficient", "inconsistent"):
            a = low_rank_matrix(rng, rows, cols, r)
        else:
            a = random_matrix(rng, rows, cols)
        x_true = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 5))) for _ in range(cols)]
        b = [sum((av * xv for av, xv in zip(row, x_true)), Fraction(0)) for row in a]
        if kind in ("inconsistent", "tall"):
            b = [Fraction(rng.randint(-5, 5), rng.choice((1, 3))) for _ in a]
        if rng.random() < 0.3:
            at = rng.randint(0, len(a))
            a.insert(at, [0] * cols)
            b.insert(at, rng.choice((0, 0, 1)))
        cases.append((a, b))
    outcomes = set()
    for a, b in cases:
        got = linalg.solve_linear(a, b)
        assert got == oracle.solve_linear(a, b)
        outcomes.add(got[0] is None)
    assert outcomes == {True, False}


def test_solve_columns_stops_at_full_row_rank():
    # columns 1 and 3 repeat earlier ones, so the pivots are columns 0 and 2
    cols = [(1, 2), (2, 4), (0, 1), (3, 1), (5, 5)]
    read = []

    def stream():
        for j, c in enumerate(cols):
            read.append(j)
            yield c

    solution, r = linalg.solve_columns(stream(), [Fraction(1, 2), 3])
    assert (solution, r) == ({0: Fraction(1, 2), 2: Fraction(2)}, 2)
    assert read == [0, 1, 2]


def test_solve_columns_inconsistent_reads_every_column():
    solution, r = linalg.solve_columns([(1, 1), (2, 2), (0, 0)], [1, 2])
    assert (solution, r) == (None, 1)
    assert linalg.solve_columns([], [0, 0]) == ({}, 0)
    assert linalg.solve_columns([], [0, 1]) == (None, 0)


def test_rank_refuses_ragged_rows():
    with pytest.raises(ValueError, match="row 1 has length 3 but row 0 has length 2"):
        linalg.rank([[1, 2], [3, 4, 5]])
    with pytest.raises(ValueError, match="row 1 has length 2 but row 0 has length 3"):
        linalg.rank([[1, 2, 3], [3, 4]])


def test_row_basis_refuses_ragged_rows():
    with pytest.raises(ValueError, match="row 1 has length 2 but row 0 has length 3"):
        linalg.row_basis([[0, 0, 1], [1, 2]])


def test_solve_linear_refuses_ragged_rows():
    with pytest.raises(ValueError, match="row 1 has length 3 but row 0 has length 2"):
        linalg.solve_linear([[1, 2], [3, 4, 5]], [1, 2])


def test_solve_columns_refuses_ragged_columns():
    with pytest.raises(ValueError, match="column 1 has length 1 but b has length 2"):
        linalg.solve_columns([(1, 2), (3,)], [1, 2])


def test_transpose_refuses_ragged_rows():
    with pytest.raises(ValueError, match="row 1 has length 1 but row 0 has length 2"):
        linalg.transpose([[1, 2], [3]])


def test_matrix_multiply_refuses_mismatched_dimensions():
    with pytest.raises(ValueError, match="row 0 of a has length 3 but b has 2 rows"):
        linalg.matrix_multiply([[1, 2, 3]], [[1], [2]])
    with pytest.raises(ValueError, match="row 1 has length 1 but row 0 has length 2"):
        linalg.matrix_multiply([[1, 2], [3]], [[1], [2]])
    with pytest.raises(ValueError, match="row 1 has length 2 but row 0 has length 1"):
        linalg.matrix_multiply([[1, 2]], [[1], [2, 3]])
