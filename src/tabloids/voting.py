"""Positional tallies, ranking scoring functions, and the pairs/Kemeny family.

Candidates are labeled 1..n.  A ballot profile is a nonnegative-integer
vector over the tabloids of one shape; every operator here also accepts an
arbitrary exact-rational vector on the same space.  The operators are
matrix-free and work on tabloid words in integers: a tally costs O(n) and
the pairs map O(n^2) per support entry, their adjoints as much per tabloid
of the domain.  Explicit matrices exist only on demand for small n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Mapping, Sequence, Union

from . import linalg, specht
from .core import (
    InfeasibleError,
    ModuleVector,
    Permutation,
    ShapeLike,
    ShapeMismatchError,
    Tabloid,
    _scaled,
    as_composition,
    as_fraction,
    act_vector,
    expect_json,
    candidate_shape,
    full_ranking_shape,
    iter_words,
    lex_rank,
    linear_combination,
    pair_shape,
    parse_rational,
    unrank,
    unrank_word,
)
from .specht import LinearMap

__all__ = [
    "Profile",
    "WeightingVector",
    "RankingScores",
    "ConstructedProfile",
    "borda_weights",
    "plurality_weights",
    "antiplurality_weights",
    "as_vector",
    "tally_scores",
    "tally_adjoint",
    "positional_tally",
    "tally_map",
    "weighting_equivalent",
    "srsf_apply",
    "kendall_tau",
    "kendall_score_vector",
    "pair_rank",
    "pair_unrank",
    "pairs_map",
    "pairs_map_adjoint",
    "pairs_operator",
    "kemeny_operator_apply",
    "kemeny_operator",
    "kemeny_apply",
    "family_apply",
    "borda_srsf_apply",
    "construct_profile",
    "profile_from_json_dict",
    "profile_from_csv",
    "weighting_from_json_dict",
]


class Profile:
    """Ballot counts per tabloid: nonnegative integers over one shape.

    Arbitrary rational vectors are fine for every operator in this module;
    this wrapper is the validated "real election data" case.
    """

    __slots__ = ("counts",)

    def __init__(self, counts: ModuleVector):
        for rank, val in counts.support():
            if val.denominator != 1 or val < 0:
                raise ValueError(
                    f"profile entry at rank {rank} is {val}; ballot counts "
                    "must be nonnegative integers (use a raw ModuleVector for "
                    "general functions)"
                )
        object.__setattr__(self, "counts", counts)

    def __setattr__(self, name, value):
        raise AttributeError("Profile is immutable")

    @classmethod
    def from_ballots(cls, shape: ShapeLike, ballots: Iterable) -> "Profile":
        """Build from (tabloid-or-rows, nonnegative int count) pairs; repeated ballots add up."""
        shape = as_composition(shape)
        acc: dict = {}
        for idx, (entry, count) in enumerate(ballots):
            x = entry if isinstance(entry, Tabloid) else Tabloid(entry)
            if x.shape != shape:
                raise ShapeMismatchError(
                    f"ballot {x} has shape {x.shape.parts}, expected {shape.parts}"
                )
            if isinstance(count, bool) or not isinstance(count, int) or count < 0:
                raise ValueError(f"ballot #{idx}: count {count!r} is not a nonnegative integer")
            rank = lex_rank(x)
            acc[rank] = acc.get(rank, 0) + count
        return cls(ModuleVector(shape, acc))

    @property
    def shape(self):
        return self.counts.shape

    @property
    def n(self) -> int:
        return self.counts.shape.n

    @property
    def voter_total(self) -> Fraction:
        return self.counts.sum_values()

    def __eq__(self, other):
        return isinstance(other, Profile) and self.counts == other.counts

    def __repr__(self):
        return f"Profile({self.counts!r})"


VectorLike = Union[ModuleVector, Profile]


def as_vector(f: VectorLike) -> ModuleVector:
    if isinstance(f, Profile):
        return f.counts
    if isinstance(f, ModuleVector):
        return f
    raise TypeError(f"expected ModuleVector or Profile, got {type(f).__name__}")


class WeightingVector:
    """Per-rank point schedule w_1 >= ... >= w_n defining a positional rule.

    Monotonicity is required by default; pass allow_unsorted=True to work
    with arbitrary score schedules.
    """

    __slots__ = ("vector",)

    def __init__(self, weights: Iterable, allow_unsorted: bool = False):
        ws = tuple(as_fraction(w) for w in weights)
        if len(ws) < 2:
            raise ValueError("need at least two weights")
        if not allow_unsorted:
            if any(a < b for a, b in zip(ws, ws[1:])):
                raise ValueError(
                    f"weights must be non-increasing: {ws} "
                    "(allow_unsorted=True overrides)"
                )
        object.__setattr__(self, "vector", ModuleVector(candidate_shape(len(ws)), ws))

    def __setattr__(self, name, value):
        raise AttributeError("WeightingVector is immutable")

    @property
    def n(self) -> int:
        return self.vector.shape.n

    @property
    def weights(self) -> tuple:
        return tuple(self.vector.to_list())

    def hat(self) -> ModuleVector:
        """The sum-zero part; it alone determines ordinal outcomes."""
        return specht.project_mean(self.vector)[1]

    def __eq__(self, other):
        return isinstance(other, WeightingVector) and self.vector == other.vector

    def __repr__(self):
        return f"WeightingVector({[str(w) for w in self.weights]})"


def borda_weights(n: int) -> WeightingVector:
    return WeightingVector(range(n - 1, -1, -1))


def plurality_weights(n: int) -> WeightingVector:
    return WeightingVector([1] + [0] * (n - 1))


def antiplurality_weights(n: int) -> WeightingVector:
    return WeightingVector([1] * (n - 1) + [0])


class RankingScores:
    """Scores plus the derived winner set and tie-aware ordinal tiers.

    `ranks[k]` holds the ranks with the k-th highest distinct score, ascending,
    so every rank is in one tier; `tiers` and `winners` unrank on each access.
    """

    __slots__ = ("scores", "ranks")

    def __init__(self, scores: ModuleVector):
        by_value: dict = {}
        for rank, v in enumerate(_scaled(scores.to_list())[1]):
            by_value.setdefault(v, []).append(rank)
        ranks = tuple(tuple(by_value[v]) for v in sorted(by_value, reverse=True))
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "ranks", ranks)

    def __setattr__(self, name, value):
        raise AttributeError("RankingScores is immutable")

    @property
    def tiers(self) -> tuple:
        return tuple(tuple(unrank(self.scores.shape, r) for r in tier) for tier in self.ranks)

    @property
    def winners(self) -> frozenset:
        return frozenset(unrank(self.scores.shape, r) for r in self.ranks[0])

    def tier_of(self, x: Tabloid) -> int:
        v = self.scores.at(x)
        return sum(self.scores[tier[0]] > v for tier in self.ranks)

    def ordinal_signature(self) -> tuple:
        """Tier index per lexicographic rank; equal iff ordinal outcomes agree."""
        sig = [0] * self.scores.size
        for i, tier in enumerate(self.ranks):
            for r in tier:
                sig[r] = i
        return tuple(sig)

    def winner_candidates(self) -> tuple:
        """Winning candidate labels, for per-candidate score shapes."""
        parts = self.scores.shape.parts
        if len(parts) != 2 or parts[0] != 1:
            raise ShapeMismatchError("winner_candidates needs shape (1, n-1)")
        return tuple(r + 1 for r in self.ranks[0])

    def __repr__(self):
        return f"RankingScores(winners={sorted(map(str, self.winners))})"


# ---------------------------------------------------------------------------
# Positional tallies


def _row_weights(w, shape) -> list:
    """Resolve the per-row weight list for a tally over the given shape."""
    m = len(shape.parts)
    if isinstance(w, WeightingVector):
        if m != shape.n:
            raise ShapeMismatchError(
                f"a WeightingVector scores full rankings; shape {shape.parts} "
                f"has {m} rows, pass a {m}-entry weight sequence instead"
            )
        if w.n != shape.n:
            raise ShapeMismatchError(
                f"weighting vector is for n={w.n}, data has n={shape.n}"
            )
        return list(w.weights)
    ws = [as_fraction(v) for v in w]
    if len(ws) != m:
        raise ShapeMismatchError(
            f"need one weight per row: {m} rows vs {len(ws)} weights"
        )
    return ws


def _unscaled(shape, acc: list, d: int) -> ModuleVector:
    """Divide an operator's integer result by the product d of its inputs' scales."""
    return ModuleVector(shape, [Fraction(a, d) for a in acc])


def _position_weights(weights: list, shape) -> list:
    """The row weight of each position of a word of the shape."""
    return [wj for wj, p in zip(weights, shape.parts) for _ in range(p)]


def tally_scores(w, f: VectorLike) -> ModuleVector:
    """Per-candidate points: candidate i earns f(x) * w_(row of i in x)."""
    vec = as_vector(f)
    shape = vec.shape
    n = shape.n
    dw, weights = _scaled(_row_weights(w, shape))
    support = vec.support()
    df, vals = _scaled([v for _, v in support])
    pos_w = _position_weights(weights, shape)
    scores = [0] * (n + 1)
    for (rank, _), val in zip(support, vals):
        for e, wj in zip(unrank_word(shape, rank), pos_w):
            scores[e] += val * wj
    return _unscaled(candidate_shape(n), scores[1:], dw * df)


def tally_adjoint(w, scores: ModuleVector, shape: ShapeLike | None = None) -> ModuleVector:
    """Adjoint of the tally: spread per-candidate values back over tabloids."""
    n = scores.shape.n
    shape = full_ranking_shape(n) if shape is None else as_composition(shape)
    if shape.n != n:
        raise ShapeMismatchError(f"shape {shape.parts} does not match n={n}")
    dw, weights = _scaled(_row_weights(w, shape))
    dh, h = _scaled(scores.to_list())
    pos_w = _position_weights(weights, shape)
    h_of = [0, *h].__getitem__
    out = [sum(map(mul, pos_w, map(h_of, word))) for word in iter_words(shape)]
    return _unscaled(shape, out, dw * dh)


def positional_tally(w, f: VectorLike) -> RankingScores:
    """Run the positional rule given by w; winners are the argmax candidates."""
    return RankingScores(tally_scores(w, f))


def tally_map(w, shape: ShapeLike | None = None) -> LinearMap:
    """The tally as a LinearMap (with adjoint), for effective-space work."""
    if isinstance(w, WeightingVector):
        n = w.n
        dom = full_ranking_shape(n) if shape is None else as_composition(shape)
    else:
        if shape is None:
            raise ValueError("shape is required when w is a raw weight sequence")
        dom = as_composition(shape)
        n = dom.n
    weights = _row_weights(w, dom)
    return LinearMap(
        dom,
        candidate_shape(n),
        lambda f: tally_scores(weights, f),
        lambda s: tally_adjoint(weights, s, dom),
        name="tally",
    )


def weighting_equivalent(w1: WeightingVector, w2: WeightingVector) -> bool:
    """True iff the two schedules give identical ordinal outcomes on all data.

    Equivalence means the sum-zero parts are positive multiples of each
    other (shifting every weight or rescaling by a positive factor never
    changes who beats whom).
    """
    if w1.n != w2.n:
        raise ShapeMismatchError("weighting vectors have different n")
    h1, h2 = w1.hat(), w2.hat()
    if h1.is_zero() and h2.is_zero():
        return True
    if h1.is_zero() or h2.is_zero():
        return False
    r0, v0 = h1.support()[0]
    alpha = h2[r0] / v0
    return alpha > 0 and h2 == h1 * alpha


# ---------------------------------------------------------------------------
# Simple ranking scoring functions


def srsf_apply(z: ModuleVector, f: VectorLike) -> RankingScores:
    """Score every full ranking by the relabeled copies of the template z.

    The ballot at ranking x contributes f(x) times z relabeled by the
    permutation carrying the reference ranking 1..n onto x.
    """
    vec = as_vector(f)
    shape = vec.shape
    if not shape.is_full_ranking() or not z.shape.is_full_ranking():
        raise ShapeMismatchError("ranking scoring needs full-ranking shapes")
    if z.shape != shape:
        raise ShapeMismatchError("template and data sizes differ")
    return RankingScores(linear_combination(shape, (
        (val, act_vector(Permutation(unrank_word(shape, rank)), z))
        for rank, val in vec.support()
    )))


def kendall_tau(x: Tabloid, y: Tabloid) -> int:
    """Number of candidate pairs the two full rankings order oppositely."""
    if not x.shape.is_full_ranking() or x.shape != y.shape:
        raise ShapeMismatchError("Kendall tau is defined on full rankings of equal n")
    rx, ry = x.row_index(), y.row_index()
    n = x.n
    return sum(
        1
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if (rx[i] < rx[j]) != (ry[i] < ry[j])
    )


def kendall_score_vector(n: int) -> ModuleVector:
    """Template z(x) = (max distance) - (Kendall tau to the reference ranking).

    Feeding this to srsf_apply reproduces the Kemeny rule.
    """
    shape = full_ranking_shape(n)
    return ModuleVector(shape, [
        sum(a < b for i, a in enumerate(w) for b in w[i + 1 :]) for w in iter_words(shape)
    ])


# ---------------------------------------------------------------------------
# Pairs map and the Kemeny rule


def pair_rank(i: int, j: int, n: int) -> int:
    """Lexicographic rank of the ordered-pair tabloid (i on top, j second)."""
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"bad candidate pair ({i}, {j}) for n={n}")
    return (i - 1) * (n - 1) + (j - 1 if j < i else j - 2)


def pair_unrank(rank: int, n: int) -> tuple:
    i, rem = divmod(rank, n - 1)
    j = rem if rem < i else rem + 1
    return (i + 1, j + 1)


def _pair_table(n: int) -> list:
    """table[i][j] = pair_rank(i, j, n) for candidates i != j, else 0."""
    return [[pair_rank(i, j, n) if i and j and i != j else 0 for j in range(n + 1)]
            for i in range(n + 1)]


def pairs_map(f: VectorLike) -> ModuleVector:
    """Catalogue, per ordered pair (i, j), the weight of rankings with i over j."""
    vec = as_vector(f)
    shape = vec.shape
    if not shape.is_full_ranking():
        raise ShapeMismatchError("pairs map is defined on full rankings")
    n = shape.n
    if n < 2:
        raise ValueError("pairs map needs n >= 2")
    table = _pair_table(n)
    support = vec.support()
    d, vals = _scaled([v for _, v in support])
    out = [0] * (n * (n - 1))
    for (rank, _), val in zip(support, vals):
        word = unrank_word(shape, rank)
        for a, i in enumerate(word):
            row = table[i]
            for j in word[a + 1 :]:
                out[row[j]] += val
    return _unscaled(pair_shape(n), out, d)


def pairs_map_adjoint(g: ModuleVector) -> ModuleVector:
    """Adjoint of the pairs map: a ranking collects its pairs' values."""
    n = g.shape.n
    if g.shape != pair_shape(n):
        raise ShapeMismatchError(
            f"expected pair shape {pair_shape(n).parts}, got {g.shape.parts}"
        )
    d, dense = _scaled(g.to_list())
    # over[i][j]: the value of the pair (i, j), i over j
    over = [[dense[r] for r in row] for row in _pair_table(n)]
    shape = full_ranking_shape(n)
    out = [
        sum(sum(map(over[i].__getitem__, word[a + 1 :])) for a, i in enumerate(word))
        for word in iter_words(shape)
    ]
    return _unscaled(shape, out, d)


def pairs_operator(n: int) -> LinearMap:
    return LinearMap(
        full_ranking_shape(n), pair_shape(n), pairs_map, pairs_map_adjoint,
        name="pairs",
    )


def kemeny_operator_apply(f: VectorLike) -> ModuleVector:
    """Pairwise-agreement scores: the pairs map composed with its adjoint."""
    return pairs_map_adjoint(pairs_map(f))


def kemeny_operator(n: int) -> LinearMap:
    shape = full_ranking_shape(n)
    return LinearMap(shape, shape, kemeny_operator_apply, kemeny_operator_apply,
                     name="kemeny")


def kemeny_apply(f: VectorLike) -> RankingScores:
    """Kemeny rule: winning rankings maximize total pairwise agreement.

    Equivalently they minimize the summed Kendall tau distance to the
    ballots.
    """
    return RankingScores(kemeny_operator_apply(f))


def family_apply(gamma: Sequence, f: VectorLike) -> RankingScores:
    """The three-parameter spectral family containing Borda and Kemeny.

    gamma = (g0, g1, g2) weights the constant, deviation, and pairwise
    eigencomponents.  Ordinal output depends only on g2/g1 when g1 > 0.
    """
    vec = as_vector(f)
    n = vec.shape.n
    if n < 3:
        raise ValueError("the spectral family needs n >= 3")
    g0, g1, g2 = (as_fraction(g) for g in gamma)
    t0f, t1f, t2f = specht.spectral_components(vec)
    return RankingScores(linear_combination(vec.shape, [(g0, t0f), (g1, t1f), (g2, t2f)]))


def borda_srsf_apply(w, f: VectorLike) -> RankingScores:
    """Lift a positional rule to rankings via the Borda adjoint.

    Winning rankings list candidates in descending w-score order, so the top
    candidate of any winning ranking is a w-tally winner.
    """
    vec = as_vector(f)
    n = vec.shape.n
    scores = tally_scores(w, vec)
    return RankingScores(tally_adjoint(borda_weights(n), scores))


# ---------------------------------------------------------------------------
# Profile construction (joint tally inversion)


@dataclass(frozen=True)
class ConstructedProfile:
    """A solution of a joint tally system, with the affine solution dimension.

    When integer post-processing was requested, `scale` and `shift` record
    the positive multiple and the all-ones offset applied to the raw
    solution; tallies of the result equal scale times the requested targets.
    """

    solution: ModuleVector
    affine_dimension: int
    scale: int = 1
    shift: int = 0


def _as_hat(w) -> ModuleVector:
    if isinstance(w, WeightingVector):
        return w.hat()
    if isinstance(w, ModuleVector):
        parts = w.shape.parts
        if len(parts) != 2 or parts[0] != 1:
            raise ShapeMismatchError(f"weighting hat must live on (1, n-1), got {parts}")
        if w.sum_values() != 0:
            raise ValueError("weighting hat must sum to zero (pass a WeightingVector to hat it)")
        return w
    raise TypeError(f"expected WeightingVector or ModuleVector, got {type(w).__name__}")


def construct_profile(ws: Sequence, targets: Sequence[ModuleVector], *,
                      integer_profile: bool = False,
                      shift_bound: int | None = None) -> ConstructedProfile:
    """Find one exact f whose tally under every given weighting hat hits its target.

    `ws` are sum-zero weighting hats (WeightingVectors are hatted
    automatically) and must be linearly independent; `targets` are sum-zero
    per-candidate vectors.  Solutions always exist and form an affine space
    whose dimension is returned; the particular solution is the one with
    free coordinates (in lexicographic rank order) pinned to zero.

    With integer_profile=True the solution is rescaled by a positive integer
    and shifted by a multiple of the all-ones vector (which no sum-zero
    tally can see) until it is a nonnegative-integer profile; an
    InfeasibleError is raised if the needed shift exceeds shift_bound.
    """
    if shift_bound is not None and shift_bound < 0:
        raise ValueError(f"shift bound must be nonnegative, got {shift_bound}")
    hats = [_as_hat(w) for w in ws]
    if not hats:
        raise ValueError("need at least one weighting vector")
    n = hats[0].shape.n
    if any(h.shape.n != n for h in hats):
        raise ShapeMismatchError("weighting vectors disagree on n")
    if len(targets) != len(hats):
        raise ValueError(f"{len(hats)} weighting vectors but {len(targets)} targets")
    for r in targets:
        if r.shape != candidate_shape(n):
            raise ShapeMismatchError(
                f"target must live on {candidate_shape(n).parts}, got {r.shape.parts}"
            )
        if r.sum_values() != 0:
            raise ValueError("targets must sum to zero")
    if linalg.rank([h.to_list() for h in hats]) != len(hats):
        raise ValueError("weighting vectors must be linearly independent")

    # Each hat sums to zero, so a rule's n rows sum to zero and candidate n's
    # row (like its zero-sum target entry) is redundant: k(n-1) rows remain.
    # Column x is the hat weight at each remaining candidate's position in x.
    shape = full_ranking_shape(n)
    scaled = [_scaled(h.to_list()) for h in hats]
    rhs = [d * t for (d, _), r in zip(scaled, targets) for t in r.to_list()[:-1]]
    columns = ([hw[w.index(i)] for _, hw in scaled for i in range(1, n)] for w in iter_words(shape))
    solution, rank = linalg.solve_columns(columns, rhs)
    if solution is None:
        raise RuntimeError("joint tally system unexpectedly inconsistent")
    nullity = shape.tabloid_count() - rank
    f = ModuleVector(shape, solution)
    for h, r in zip(hats, targets):
        if tally_scores(h.to_list(), f) != r:
            raise RuntimeError("constructed profile failed verification")

    scale, shift = 1, 0
    if integer_profile:
        scale = lcm(*(v.denominator for _, v in f.support())) if f.nonzero_count() else 1
        f = f * scale
        low = min(f.to_list(), default=Fraction(0))
        if low < 0:
            shift = int(-low)
            if shift_bound is not None and shift > shift_bound:
                raise InfeasibleError(
                    f"nonnegative representative needs shift {shift} > bound {shift_bound}"
                )
            f = f + ModuleVector.constant(shape, shift)
    return ConstructedProfile(f, nullity, scale, shift)


# ---------------------------------------------------------------------------
# File formats


def profile_from_json_dict(data: Mapping) -> Profile:
    """Ballot file: {"n": 3, "shape": [1,1,1], "ballots": [{"ranking": [[1],[2],[3]], "count": 2}, ...]}."""
    try:
        n = expect_json(data["n"], int, "n")
        parts = expect_json(data.get("shape", [1] * n), list, "shape")
        shape = as_composition(expect_json(p, int, "shape entry") for p in parts)
        ballots = expect_json(data["ballots"], list, "ballots")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad ballot file: {exc}") from None
    if shape.n != n:
        raise ShapeMismatchError(f"shape {shape.parts} does not sum to n={n}")
    pairs = []
    for idx, entry in enumerate(ballots):
        try:
            ranking = expect_json(entry["ranking"], list, "ranking")
            rows = [expect_json(row, list, "ranking row") for row in ranking]
            rows = [[expect_json(e, int, "ranking entry") for e in row] for row in rows]
            count = entry.get("count", 1)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad ballot #{idx}: {exc}") from None
        if isinstance(count, bool) or not isinstance(count, int):
            raise ValueError(f"bad ballot #{idx}: count {count!r} is not an integer")
        if count < 0:
            raise ValueError(f"bad ballot #{idx}: negative count {count}")
        pairs.append((Tabloid(rows), count))
    return Profile.from_ballots(shape, pairs)


def profile_from_csv(text: str, n: int | None = None) -> Profile:
    """Ballot lines "1>2>3,count"; full rankings only, blank lines skipped."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            ranking_part, count_part = line.rsplit(",", 1)
            order = [int(v) for v in ranking_part.split(">")]
            count = int(count_part)
        except ValueError:
            raise ValueError(f"bad ballot line {lineno}: {raw!r}") from None
        if count < 0:
            raise ValueError(f"bad ballot line {lineno}: negative count")
        pairs.append((Tabloid.from_ranking(order), count))
    if not pairs:
        if n is None:
            raise ValueError("empty ballot file and no n given")
        return Profile(ModuleVector.zero(full_ranking_shape(n)))
    size = pairs[0][0].n
    if n is not None and n != size:
        raise ShapeMismatchError(f"ballots have n={size}, expected n={n}")
    return Profile.from_ballots(full_ranking_shape(size), pairs)


def weighting_from_json_dict(data: Mapping, allow_unsorted: bool = False) -> WeightingVector:
    """Weighting file: {"weights": ["1", "1/2", "0"]}."""
    try:
        raw = data["weights"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad weighting file: {exc}") from None
    if not isinstance(raw, list):
        raise ValueError(f"bad weighting file: weights must be a list, got {raw!r}")
    return WeightingVector([parse_rational(v) for v in raw], allow_unsorted=allow_unsorted)
