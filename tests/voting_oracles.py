"""Reference implementations of the voting operators, kept as test oracles.

These are the straightforward loops the word kernel in `tabloids.voting`
replaced: each visits a `Tabloid` per entry (via `unrank` or
`cached_tabloids`) and accumulates `Fraction`s.  They are slow and build
n!-sized tables, so they are used only to check the kernel on small n.
`RankingScores` is the result object that kept one `Tabloid` per entry.
"""

from fractions import Fraction

from tabloids import specht
from tabloids.core import (
    ModuleVector,
    ShapeMismatchError,
    cached_tabloids,
    candidate_shape,
    enumerate_tabloids,
    full_ranking_shape,
    pair_shape,
    unrank,
)
from tabloids.voting import _row_weights, borda_weights, pair_rank

from index_oracles import lex_rank
from linalg_oracles import solve_linear


class RankingScores:
    """Scores plus the derived winner set and tie-aware ordinal tiers.

    `tiers[k]` holds the tabloids with the k-th highest distinct score, in
    lexicographic rank order, so every tabloid of the shape is in one tier.
    """

    __slots__ = ("scores", "winners", "tiers")

    def __init__(self, scores):
        dense = scores.to_list()
        by_value = {}
        for x, v in zip(enumerate_tabloids(scores.shape), dense):
            by_value.setdefault(v, []).append(x)
        tiers = tuple(tuple(by_value[v]) for v in sorted(by_value, reverse=True))
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "tiers", tiers)
        object.__setattr__(self, "winners", frozenset(tiers[0]) if tiers else frozenset())

    def __setattr__(self, name, value):
        raise AttributeError("RankingScores is immutable")

    def tier_of(self, x):
        for i, tier in enumerate(self.tiers):
            if x in tier:
                return i
        raise ValueError(f"{x} not indexed by these scores")

    def ordinal_signature(self):
        """Tier index per lexicographic rank; equal iff ordinal outcomes agree."""
        sig = [0] * self.scores.size
        for i, tier in enumerate(self.tiers):
            for x in tier:
                sig[lex_rank(x)] = i
        return tuple(sig)

    def winner_candidates(self):
        """Winning candidate labels, for per-candidate score shapes."""
        parts = self.scores.shape.parts
        if len(parts) != 2 or parts[0] != 1:
            raise ShapeMismatchError("winner_candidates needs shape (1, n-1)")
        return tuple(sorted(x.rows[0][0] for x in self.winners))


def tally_scores(w, vec):
    shape = vec.shape
    n = shape.n
    weights = _row_weights(w, shape)
    scores = [Fraction(0)] * n
    for rank, val in vec.support():
        x = unrank(shape, rank)
        for row_idx, row in enumerate(x.rows):
            wj = weights[row_idx]
            if wj:
                for e in row:
                    scores[e - 1] += val * wj
    return ModuleVector(candidate_shape(n), scores)


def tally_adjoint(w, scores, shape):
    weights = _row_weights(w, shape)
    h = scores.to_list()
    out = []
    for x in cached_tabloids(shape.parts):
        acc = Fraction(0)
        for row_idx, row in enumerate(x.rows):
            wj = weights[row_idx]
            if wj:
                for e in row:
                    acc += wj * h[e - 1]
        out.append(acc)
    return ModuleVector(shape, out)


def pairs_map(vec):
    shape = vec.shape
    n = shape.n
    out = {}
    for rank, val in vec.support():
        word = unrank(shape, rank).to_ranking()
        for a in range(n):
            for b in range(a + 1, n):
                pr = pair_rank(word[a], word[b], n)
                out[pr] = out.get(pr, Fraction(0)) + val
    return ModuleVector(pair_shape(n), out)


def pairs_map_adjoint(g):
    n = g.shape.n
    dense = g.to_list()
    shape = full_ranking_shape(n)
    out = []
    for x in cached_tabloids(shape.parts):
        word = x.to_ranking()
        acc = Fraction(0)
        for a in range(n):
            for b in range(a + 1, n):
                acc += dense[pair_rank(word[a], word[b], n)]
        out.append(acc)
    return ModuleVector(shape, out)


def kemeny_operator_apply(vec):
    return pairs_map_adjoint(pairs_map(vec))


def spectral_components(vec):
    """(T0 f, T1 f, T2 f) from the projection formulas on the oracle operators."""
    n = vec.shape.n
    borda = borda_weights(n)
    beta0, beta1 = specht.borda_gram_eigenvalues(n)
    t0f = ModuleVector.constant(vec.shape, vec.sum_values() / vec.size)
    gram = tally_adjoint(borda, tally_scores(borda, vec), vec.shape)
    t1f = (gram - t0f * beta0) / beta1
    if n == 2:
        return (t0f, t1f)
    k0, k1, k2 = specht.kemeny_eigenvalues(n)
    return (t0f, t1f, (kemeny_operator_apply(vec) - t0f * k0 - t1f * k1) / k2)


def construct_profile_system(hats, targets):
    """(solution, nullity) of the joint tally system: all n rows per rule, built
    per Tabloid, solved by row-Bareiss elimination over every column."""
    n = hats[0].shape.n
    tabloids = cached_tabloids(full_ranking_shape(n).parts)
    rows, rhs = [], []
    for h, r in zip(hats, targets):
        weights = h.to_list()
        dense_target = r.to_list()
        for i in range(1, n + 1):
            rows.append([weights[x.row_of(i)] for x in tabloids])
            rhs.append(dense_target[i - 1])
    return solve_linear(rows, rhs)
