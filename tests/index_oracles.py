"""The unranking that the cached-count `core.unrank_word` replaced, kept as a test oracle.

Every call recomputes the multinomial of each suffix of the shape from
factorials and walks the combination loop even for one-element rows.
"""

from math import factorial

from tabloids.core import _combination_unrank, as_composition


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
