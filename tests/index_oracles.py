"""Index code that the word kernel in `tabloids.core` replaced, kept as test oracles.

`unrank_word` recomputes the multinomial of each suffix of the shape from
factorials and walks the combination loop even for one-element rows.
`lex_rank` ranks a `Tabloid` row by row through the combination rank, and
`act_vector` relabels through unrank -> act_tabloid -> lex_rank per entry.
`tabloid_str` is the printed form that `Tabloid.__str__` produced itself.
"""

from math import factorial

from tabloids.core import (
    ModuleVector,
    ShapeMismatchError,
    _combination_rank,
    _combination_unrank,
    _suffix_counts,
    act_tabloid,
    as_composition,
    unrank,
)


def _multinomial(parts):
    num = factorial(sum(parts))
    for p in parts:
        num //= factorial(p)
    return num


def unrank_word(shape, rank):
    """The word (rows concatenated top to bottom) of the tabloid at `rank`."""
    shape = as_composition(shape)
    total = shape.tabloid_count()
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range for |X^{shape.parts}| = {total}")
    avail = list(range(1, shape.n + 1))
    word = []
    for i, k in enumerate(shape.parts):
        c, rank = divmod(rank, _multinomial(shape.parts[i + 1 :]))
        row = _combination_unrank(avail, k, c)
        word.extend(row)
        avail = [v for v in avail if v not in row]
    return tuple(word)


def lex_rank(x):
    """Position of x in the lexicographic listing of its shape (0-based)."""
    avail = list(range(1, x.n + 1))
    rank = 0
    for row, below in zip(x.rows, _suffix_counts(x.shape.parts)[1:]):
        rank += _combination_rank(avail, row) * below
        avail = [v for v in avail if v not in row]
    return rank


def act_vector(sigma, f):
    """Relabel: the result takes at sigma.x the value f took at x."""
    if sigma.n != f.shape.n:
        raise ShapeMismatchError(
            f"permutation on {sigma.n} symbols, vector on {f.shape.n}"
        )
    moved = {}
    for rank, val in f.support():
        moved[lex_rank(act_tabloid(sigma, unrank(f.shape, rank)))] = val
    return ModuleVector(f.shape, moved)


def tabloid_str(x):
    if x.shape.is_full_ranking():
        return ">".join(str(row[0]) for row in x.rows)
    return " | ".join(" ".join(map(str, row)) for row in x.rows)
