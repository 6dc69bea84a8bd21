"""Per-entry `Fraction` arithmetic for vectors and games, kept as test oracles.

These are the merge loops that `core.linear_combination` and `core._combine`
replaced: every link of a chain such as `a * c - b` builds a dict of
`Fraction`s.  `t1k_adjoint` is the per-coalition `Fraction` loop that the
integer-scaled version in `tabloids.games` replaced.
"""

from fractions import Fraction
from math import comb

from tabloids.core import ModuleVector, as_fraction
from tabloids.games import Game, level_masks, level_shape


def add(a, b):
    acc = dict(a.support())
    for r, v in b.support():
        s = acc.get(r, Fraction(0)) + v
        if s:
            acc[r] = s
        else:
            acc.pop(r, None)
    return ModuleVector(a.shape, acc)


def neg(a):
    return ModuleVector(a.shape, {r: -v for r, v in a.support()})


def sub(a, b):
    return add(a, neg(b))


def mul(a, scalar):
    c = as_fraction(scalar)
    if not c:
        return ModuleVector.zero(a.shape)
    return ModuleVector(a.shape, {r: v * c for r, v in a.support()})


def truediv(a, scalar):
    return mul(a, Fraction(1) / as_fraction(scalar))


def combination(shape, terms):
    """Fold of mul and add over (c, v) pairs, from the zero vector."""
    total = ModuleVector.zero(shape)
    for c, v in terms:
        total = add(total, mul(v, c))
    return total


def game_add(v, w):
    acc = dict(v.items())
    for mask, val in w.items():
        acc[mask] = acc.get(mask, Fraction(0)) + val
    return Game(v.n, acc)


def game_mul(v, scalar):
    c = as_fraction(scalar)
    return Game(v.n, {m: val * c for m, val in v.items()})


def game_sub(v, w):
    return game_add(v, game_mul(w, -1))


def t1k_adjoint(h, n, k):
    gamma = comb(n - 2, k - 1)
    dense = h.to_list()
    total = sum(dense, Fraction(0))
    out = []
    for mask in level_masks(n, k):
        inside = sum(
            (dense[i - 1] for i in range(1, n + 1) if mask & (1 << (i - 1))),
            Fraction(0),
        )
        out.append((inside - Fraction(k, n) * total) / gamma)
    return ModuleVector(level_shape(n, k), out)
