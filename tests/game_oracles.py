"""Reference implementations of the game calculus, kept as test oracles.

These are the straightforward loops that `tabloids.games` replaced:
self-duality by dualising every basis game and applying the concept to
both, and the level statistics recomputed per coalition size with one scan
of the game for every average and every deviation.  The sweep is O(4^n),
so it is used only to check the closed forms on small n.  `marginal_apply`
is the per-coalition loop that the level sums replaced.
"""

from fractions import Fraction
from math import comb

from tabloids.core import ModuleVector, candidate_shape
from tabloids.games import (
    Game,
    LevelDecomposition,
    MarginalWeights,
    SolutionCoefficients,
    basis_games,
    dual_game,
    level_masks,
    level_shape,
    t1k_adjoint,
    u1_projection_scale,
)


def level_average(v: Game, k: int) -> Fraction:
    total = sum(
        (val for mask, val in v.items() if mask.bit_count() == k), Fraction(0)
    )
    return total / comb(v.n, k)


def t0k_apply(v: Game, k: int) -> ModuleVector:
    return ModuleVector.constant(candidate_shape(v.n), level_average(v, k) / k)


def _deviation_sums(v: Game, k: int) -> list:
    avg = level_average(v, k)
    sums = [Fraction(0)] * v.n
    for mask in level_masks(v.n, k):
        d = v.value(mask) - avg
        if d:
            for i in range(1, v.n + 1):
                if mask & (1 << (i - 1)):
                    sums[i - 1] += d
    return sums


def t1k_apply(v: Game, k: int) -> ModuleVector:
    gamma = comb(v.n - 2, k - 1)
    return ModuleVector(candidate_shape(v.n), [s / gamma for s in _deviation_sums(v, k)])


def solution_apply(c: SolutionCoefficients, v: Game) -> ModuleVector:
    n = v.n
    out = ModuleVector.zero(candidate_shape(n))
    for k in range(1, n + 1):
        if c.c0[k - 1]:
            out = out + t0k_apply(v, k) * c.c0[k - 1]
    for k in range(1, n):
        if c.c1[k - 1]:
            out = out + t1k_apply(v, k) * c.c1[k - 1]
    return out


def decompose_game(v: Game) -> dict:
    n = v.n
    out = {}
    for k in range(1, n + 1):
        level = v.level_vector(k)
        avg_part = ModuleVector.constant(level_shape(n, k), level_average(v, k))
        if k <= n - 1:
            dev_part = t1k_adjoint(t1k_apply(v, k), n, k) / u1_projection_scale(n, k)
        else:
            dev_part = ModuleVector.zero(level_shape(n, k))
        out[k] = LevelDecomposition(avg_part, dev_part, level - avg_part - dev_part)
    return out


def marginal_apply(m: MarginalWeights, v: Game) -> ModuleVector:
    n = v.n
    out = [Fraction(0)] * n
    for mask, val in v.items():
        size = mask.bit_count()
        w_in = m.m[size - 1]
        w_out = m.m[size] if size < n else Fraction(0)
        for i in range(n):
            if mask & (1 << i):
                if w_in:
                    out[i] += w_in * val
            elif w_out:
                out[i] -= w_out * val
    return ModuleVector(candidate_shape(n), out)


def self_dual_sweep(phi) -> bool:
    """Whether phi(v*) == phi(v) on every single-coalition basis game."""
    if isinstance(phi, MarginalWeights):
        apply = lambda v: marginal_apply(phi, v)
    else:
        apply = lambda v: solution_apply(phi, v)
    for e in basis_games(phi.n):
        if apply(dual_game(e)) != apply(e):
            return False
    return True
