"""Cooperative games, their level decomposition, and solution-concept calculus.

A game assigns an exact rational worth to every nonempty coalition of the
players 1..n (the empty coalition is implicitly worth 0).  Coalitions are
bitmasks internally (bit i-1 set means player i belongs) and size-k
coalitions are addressed by the lexicographic rank of the two-row tabloid
whose top row is the coalition, which makes the per-size level spaces
literal tabloid spaces.

Linear symmetric solution concepts are coordinatized by the per-level
average-share and membership-deviation maps, both read from one scan of the
game; efficiency and self-duality are closed-form criteria on the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable, Mapping, Union

from . import linalg
from .core import (
    Composition,
    ModuleVector,
    Permutation,
    ShapeMismatchError,
    _combine,
    _scaled,
    as_fraction,
    candidate_shape,
    expect_json,
    format_rational,
    linear_combination,
    parse_rational,
)

__all__ = [
    "MAX_PLAYERS",
    "Game",
    "SolutionCoefficients",
    "MarginalWeights",
    "LevelDecomposition",
    "level_masks",
    "basis_game",
    "basis_games",
    "act_game",
    "level_average",
    "t0k_apply",
    "t1k_apply",
    "t1k_adjoint",
    "u1_projection_scale",
    "solution_apply",
    "shapley_coefficients",
    "shapley_value",
    "efficiency_check",
    "is_efficient_on",
    "marginal_apply",
    "marginal_to_coefficients",
    "fit_marginal",
    "dual_game",
    "self_dual_check",
    "decompose_game",
    "game_from_json_dict",
    "coefficients_from_json_dict",
    "marginal_from_json_dict",
]

#: Games store 2^n - 1 coalition values; refuse anything bigger than this.
MAX_PLAYERS = 16


def level_shape(n: int, k: int) -> Composition:
    """Shape whose tabloids index size-k coalitions by their top row."""
    if k == n:
        return Composition((n,))
    return Composition((k, n - k))


@lru_cache(maxsize=256)
def level_masks(n: int, k: int) -> tuple:
    """Bitmasks of all size-k coalitions, in tabloid (lexicographic) order."""
    return tuple(
        sum(1 << (p - 1) for p in combo)
        for combo in combinations(range(1, n + 1), k)
    )


class Game:
    """An exact-rational characteristic function on nonempty coalitions."""

    __slots__ = ("n", "_values")

    def __init__(self, n: int, values: Mapping[int, object] | None = None):
        n = int(n)
        if not 1 <= n <= MAX_PLAYERS:
            raise ValueError(f"player count must be in 1..{MAX_PLAYERS}, got {n}")
        full = (1 << n) - 1
        store: dict = {}
        for mask, val in (values or {}).items():
            m = int(mask)
            if not 1 <= m <= full:
                raise ValueError(f"coalition mask {m} out of range for n={n}")
            f = as_fraction(val)
            if f:
                store[m] = f
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_values", store)

    def __setattr__(self, name, value):
        raise AttributeError("Game is immutable")

    @classmethod
    def from_coalitions(cls, n: int, values: Mapping) -> "Game":
        """Build from {iterable-of-players: worth} (or bitmask keys)."""
        masks = {}
        for key, val in values.items():
            if isinstance(key, int):
                masks[key] = val
            else:
                masks[sum(1 << (int(p) - 1) for p in key)] = val
        return cls(n, masks)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def value(self, coalition) -> Fraction:
        """Worth of a coalition given as a bitmask or an iterable of players."""
        mask = coalition if isinstance(coalition, int) else sum(
            1 << (int(p) - 1) for p in coalition
        )
        if mask == 0:
            return Fraction(0)
        if not 0 < mask <= self.full_mask:
            raise ValueError(f"coalition mask {mask} out of range")
        return self._values.get(mask, Fraction(0))

    def grand_value(self) -> Fraction:
        return self.value(self.full_mask)

    def items(self) -> list:
        """Sorted (mask, value) pairs over the nonzero coalitions."""
        return sorted(self._values.items())

    def level_vector(self, k: int) -> ModuleVector:
        """The size-k slice, as a vector on the coalition tabloids."""
        if not 1 <= k <= self.n:
            raise ValueError(f"coalition size {k} out of range 1..{self.n}")
        vals = {
            rank: self._values[mask]
            for rank, mask in enumerate(level_masks(self.n, k))
            if mask in self._values
        }
        return ModuleVector(level_shape(self.n, k), vals)

    @classmethod
    def from_level_vectors(cls, n: int, levels: Mapping[int, ModuleVector]) -> "Game":
        store: dict = {}
        for k, vec in levels.items():
            if vec.shape != level_shape(n, k):
                raise ShapeMismatchError(
                    f"level {k} expects shape {level_shape(n, k).parts}, "
                    f"got {vec.shape.parts}"
                )
            masks = level_masks(n, k)
            for rank, val in vec.support():
                store[masks[rank]] = val
        return cls(n, store)

    def __add__(self, other: "Game") -> "Game":
        if not isinstance(other, Game) or other.n != self.n:
            raise ShapeMismatchError("can only add games on the same players")
        return Game(self.n, _combine(((1, self._values), (1, other._values))))

    def __mul__(self, scalar) -> "Game":
        return Game(self.n, _combine(((as_fraction(scalar), self._values),)))

    __rmul__ = __mul__

    def __sub__(self, other: "Game") -> "Game":
        if not isinstance(other, Game) or other.n != self.n:
            raise ShapeMismatchError("can only add games on the same players")
        return Game(self.n, _combine(((1, self._values), (-1, other._values))))

    def __eq__(self, other):
        return isinstance(other, Game) and self.n == other.n and self._values == other._values

    def __repr__(self):
        shown = ", ".join(f"{m}: {v}" for m, v in self.items()[:6])
        more = "" if len(self._values) <= 6 else ", ..."
        return f"Game(n={self.n}, {{{shown}{more}}})"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "v": {str(m): format_rational(v) for m, v in self.items()},
        }


def basis_game(n: int, mask: int) -> Game:
    """The game worth 1 on a single coalition and 0 elsewhere."""
    return Game(n, {mask: 1})


def basis_games(n: int) -> Iterable[Game]:
    """All 2^n - 1 single-coalition games; they span the game space."""
    for mask in range(1, 1 << n):
        yield basis_game(n, mask)


def act_game(sigma: Permutation, v: Game) -> Game:
    """Relabel players: the image game values sigma.S as v values S."""
    if sigma.n != v.n:
        raise ShapeMismatchError("permutation size differs from player count")
    moved = {}
    for mask, val in v.items():
        new = 0
        for i in range(1, v.n + 1):
            if mask & (1 << (i - 1)):
                new |= 1 << (sigma(i) - 1)
        moved[new] = val
    return Game(v.n, moved)


# ---------------------------------------------------------------------------
# Basis maps for linear symmetric solution concepts


def _level_sums(v: Game) -> tuple:
    """Per coalition size, the total worth and each player's membership sum.

    One scan of the game, in integers scaled by the lcm of the worths'
    denominators: totals[k] sums v(S) over the coalitions with |S| = k, and
    members[k][i] sums it over those that contain player i+1.
    """
    n = v.n
    d, worths = _scaled(v._values.values())
    totals = [0] * (n + 1)
    members = [[0] * n for _ in range(n + 1)]
    for mask, val in zip(v._values, worths):
        k = mask.bit_count()
        totals[k] += val
        row = members[k]
        for i in range(n):
            if mask >> i & 1:
                row[i] += val
    return [Fraction(t, d) for t in totals], [[Fraction(s, d) for s in row] for row in members]


def _deviations(n: int, k: int, sums: tuple) -> list:
    """The t1k payoffs: membership sum less C(n-1,k-1) times the mean, over C(n-2,k-1)."""
    totals, members = sums
    expected = comb(n - 1, k - 1) * totals[k] / comb(n, k)
    out = [(s - expected) / comb(n - 2, k - 1) for s in members[k]]
    if sum(out) != 0:
        raise RuntimeError("deviation payoffs failed the sum-zero postcondition")
    return out


def level_average(v: Game, k: int) -> Fraction:
    """Mean worth over all size-k coalitions."""
    if not 1 <= k <= v.n:
        raise ValueError(f"coalition size {k} out of range 1..{v.n}")
    return _level_sums(v)[0][k] / comb(v.n, k)


def t0k_apply(v: Game, k: int) -> ModuleVector:
    """Every player receives a 1/k share of the size-k average worth."""
    return ModuleVector.constant(candidate_shape(v.n), level_average(v, k) / k)


def t1k_apply(v: Game, k: int) -> ModuleVector:
    """Per player, the normalized excess of their size-k coalitions over the mean.

    Defined for 1 <= k <= n-1; the output always sums to zero.
    """
    n = v.n
    if not 1 <= k <= n - 1:
        raise ValueError(
            f"membership deviation needs 1 <= k <= n-1, got k={k} for n={n}"
        )
    return ModuleVector(candidate_shape(n), _deviations(n, k, _level_sums(v)))


def t1k_adjoint(h: ModuleVector, n: int, k: int) -> ModuleVector:
    """Adjoint of t1k_apply, landing back on the size-k coalition space."""
    if h.shape != candidate_shape(n):
        raise ShapeMismatchError(f"expected per-player shape, got {h.shape.parts}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}")
    # (inside - k/n * total) / gamma, with h scaled to integers by d
    d, h = _scaled(h.to_list())
    total = sum(h)
    den = n * comb(n - 2, k - 1) * d
    out = [
        Fraction(n * sum(h[i] for i in range(n) if mask >> i & 1) - k * total, den)
        for mask in level_masks(n, k)
    ]
    return ModuleVector(level_shape(n, k), out)


@lru_cache(maxsize=256)
def u1_projection_scale(n: int, k: int) -> Fraction:
    """Scalar by which the pulled-back deviation map acts on its own image.

    Dividing the composition adjoint-after-apply by this value yields the
    orthogonal projection onto the deviation component of level k.  Equals
    the squared Frobenius norm of the deviation map divided by n - 1.
    """
    gamma = comb(n - 2, k - 1)
    return Fraction(comb(n, k) * k * (n - k), gamma * gamma * n * (n - 1))


# ---------------------------------------------------------------------------
# Solution concepts


@dataclass(frozen=True)
class SolutionCoefficients:
    """Coordinates of a linear symmetric solution concept.

    c0[k-1] scales the size-k average share (k = 1..n); c1[k-1] scales the
    size-k membership deviation (k = 1..n-1).
    """

    c0: tuple
    c1: tuple

    def __post_init__(self):
        c0 = tuple(as_fraction(v) for v in self.c0)
        c1 = tuple(as_fraction(v) for v in self.c1)
        if len(c0) < 2 or len(c1) != len(c0) - 1:
            raise ValueError(
                f"need n >= 2 average coefficients and n-1 deviation "
                f"coefficients, got {len(c0)} and {len(c1)}"
            )
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "c1", c1)

    @property
    def n(self) -> int:
        return len(self.c0)

    def to_json_dict(self) -> dict:
        return {
            "c0": [format_rational(v) for v in self.c0],
            "c1": [format_rational(v) for v in self.c1],
        }


@dataclass(frozen=True)
class MarginalWeights:
    """Coalition-size weights m_1..m_n for a marginal value."""

    m: tuple

    def __post_init__(self):
        m = tuple(as_fraction(v) for v in self.m)
        if len(m) < 2:
            raise ValueError("need n >= 2 marginal weights")
        object.__setattr__(self, "m", m)

    @property
    def n(self) -> int:
        return len(self.m)

    def to_json_dict(self) -> dict:
        return {"m": [format_rational(v) for v in self.m]}


def solution_apply(c: SolutionCoefficients, v: Game) -> ModuleVector:
    """Payoffs of the solution concept with coordinates c on the game v."""
    if c.n != v.n:
        raise ShapeMismatchError(f"coefficients are for n={c.n}, game has n={v.n}")
    n = v.n
    sums = _level_sums(v)
    share = sum(c0 * sums[0][k] / (k * comb(n, k)) for k, c0 in enumerate(c.c0, 1))
    out = [share] * n
    for k, c1 in enumerate(c.c1, 1):
        if c1:
            out = [x + c1 * d for x, d in zip(out, _deviations(n, k, sums))]
    return ModuleVector(candidate_shape(n), out)


def shapley_coefficients(n: int) -> SolutionCoefficients:
    """The unique efficient marginal value: full grand-average share plus
    equal 1/(n-1) deviation weights at every size."""
    if n < 2:
        raise ValueError("need n >= 2")
    return SolutionCoefficients(
        (0,) * (n - 1) + (1,),
        (Fraction(1, n - 1),) * (n - 1),
    )


def shapley_value(v: Game) -> ModuleVector:
    return solution_apply(shapley_coefficients(v.n), v)


def efficiency_check(c: SolutionCoefficients) -> bool:
    """Coefficient criterion for payoffs always summing to the grand worth.

    Only the average-share coefficients matter: all must vanish except the
    grand-coalition one, which must be 1.
    """
    return all(v == 0 for v in c.c0[:-1]) and c.c0[-1] == 1


def is_efficient_on(c: SolutionCoefficients, games: Iterable[Game]) -> bool:
    """Semantic efficiency test: payoff totals equal v(N) on every sample game."""
    for v in games:
        if solution_apply(c, v).sum_values() != v.grand_value():
            return False
    return True


def marginal_apply(m: MarginalWeights, v: Game) -> ModuleVector:
    """Payoffs weighting each marginal contribution by the coalition size."""
    if m.n != v.n:
        raise ShapeMismatchError(f"weights are for n={m.n}, game has n={v.n}")
    n = v.n
    totals, members = _level_sums(v)
    ext = m.m + (0,)
    out = [Fraction(0)] * n
    for k in range(1, n + 1):
        for i, inside in enumerate(members[k]):
            out[i] += ext[k - 1] * inside - ext[k] * (totals[k] - inside)
    return ModuleVector(candidate_shape(n), out)


def marginal_to_coefficients(m: MarginalWeights) -> SolutionCoefficients:
    """Coordinates of the marginal value with the given size weights."""
    n = m.n
    ext = m.m + (Fraction(0),)
    c0 = tuple(
        k * (ext[k - 1] * comb(n - 1, k - 1) - ext[k] * comb(n - 1, k))
        for k in range(1, n + 1)
    )
    c1 = tuple(
        comb(n - 2, k - 1) * (ext[k - 1] + ext[k]) for k in range(1, n)
    )
    return SolutionCoefficients(c0, c1)


def fit_marginal(c: SolutionCoefficients) -> tuple:
    """Least-squares marginal weights for given coordinates, and exactness.

    Solves the normal equations over the rationals; the fit is exact iff the
    solution concept is a marginal value.
    """
    n = c.n
    cols = []
    for j in range(n):
        unit = MarginalWeights(tuple(Fraction(int(i == j)) for i in range(n)))
        cj = marginal_to_coefficients(unit)
        cols.append(list(cj.c0) + list(cj.c1))
    a = linalg.transpose(cols)  # (2n-1) x n
    b = list(c.c0) + list(c.c1)
    at = cols  # n x (2n-1)
    ata = linalg.matrix_multiply(at, a)
    atb = [sum((row[i] * b[i] for i in range(len(b))), Fraction(0)) for row in at]
    solution, _ = linalg.solve_linear(ata, atb)
    if solution is None:
        raise RuntimeError("normal equations unexpectedly inconsistent")
    m = MarginalWeights(tuple(solution))
    exact = marginal_to_coefficients(m) == c
    return m, exact


# ---------------------------------------------------------------------------
# Duality


def dual_game(v: Game) -> Game:
    """The dual: a coalition gets what the grand coalition loses without it."""
    grand, full = v.grand_value(), v.full_mask
    # Game drops the zero worths itself
    return Game(v.n, {mask: grand - v.value(full ^ mask) for mask in range(1, full + 1)})


def self_dual_check(phi: Union[SolutionCoefficients, MarginalWeights]) -> bool:
    """Whether the solution concept pays every game and its dual alike.

    Read off the coefficients in O(n), as t1_k(v*) = t1_{n-k}(v) and
    avg_j(v*) = v(N) - avg_{n-j}(v): c1[k-1] == c1[n-k-1] for 1 <= k <= n-1
    and c0[j-1]/j == -c0[n-j-1]/(n-j) for 1 <= j <= n-1.
    """
    if isinstance(phi, MarginalWeights):
        phi = marginal_to_coefficients(phi)
    elif not isinstance(phi, SolutionCoefficients):
        raise TypeError(
            f"expected SolutionCoefficients or MarginalWeights, got {type(phi).__name__}"
        )
    n, c0, c1 = phi.n, phi.c0, phi.c1
    if n > MAX_PLAYERS:
        raise ValueError(f"player count must be in 1..{MAX_PLAYERS}, got {n}")
    return all(c1[k - 1] == c1[n - k - 1] for k in range(1, n)) and all(
        c0[j - 1] / j == -c0[n - j - 1] / (n - j) for j in range(1, n)
    )


# ---------------------------------------------------------------------------
# Level decomposition


@dataclass(frozen=True)
class LevelDecomposition:
    """Orthogonal split of one coalition-size slice of a game.

    average + deviation + kernel reassemble the slice; the kernel part is
    invisible to every linear symmetric solution concept.
    """

    average: ModuleVector
    deviation: ModuleVector
    kernel: ModuleVector

    def total(self) -> ModuleVector:
        return self.average + self.deviation + self.kernel


def decompose_game(v: Game) -> dict:
    """Per coalition size, split the game into average/deviation/kernel parts."""
    n = v.n
    sums = _level_sums(v)
    out = {}
    for k in range(1, n + 1):
        level = v.level_vector(k)
        avg_part = ModuleVector.constant(level_shape(n, k), sums[0][k] / comb(n, k))
        if k <= n - 1:
            h = ModuleVector(candidate_shape(n), _deviations(n, k, sums))
            dev_part = t1k_adjoint(h, n, k) / u1_projection_scale(n, k)
        else:
            dev_part = ModuleVector.zero(level_shape(n, k))
        kernel = linear_combination(level.shape, [(1, level), (-1, avg_part), (-1, dev_part)])
        out[k] = LevelDecomposition(avg_part, dev_part, kernel)
    return out


# ---------------------------------------------------------------------------
# File formats


def game_from_json_dict(data: Mapping) -> Game:
    """Game file: {"n": 3, "v": {"1": "1", "2": "3", "4": "5", "7": "6"}}.

    Keys are coalition bitmasks in decimal (bit i-1 set means player i is
    in); missing coalitions are worth 0.
    """
    try:
        n = expect_json(data["n"], int, "n")
        raw = expect_json(data.get("v", {}), dict, "v")
        values = {int(mask): parse_rational(val) for mask, val in raw.items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad game file: {exc}") from None
    return Game(n, values)


def coefficients_from_json_dict(data: Mapping) -> SolutionCoefficients:
    """Coefficient file: {"c0": ["0","0","1"], "c1": ["1/2","1/2"]}."""
    try:
        c0 = [parse_rational(v) for v in expect_json(data["c0"], list, "c0")]
        c1 = [parse_rational(v) for v in expect_json(data["c1"], list, "c1")]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad coefficient file: {exc}") from None
    return SolutionCoefficients(tuple(c0), tuple(c1))


def marginal_from_json_dict(data: Mapping) -> MarginalWeights:
    """Marginal file: {"m": ["1/3","1/6","1/3"]}."""
    try:
        m = [parse_rational(v) for v in expect_json(data["m"], list, "m")]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad marginal file: {exc}") from None
    return MarginalWeights(tuple(m))
