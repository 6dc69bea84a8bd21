"""The closed-form game calculus against the loops and sweeps it replaced.

Inputs are seeded random rationals with negative values and non-unit
denominators; every comparison is an exact equality with the oracle in
game_oracles.py.
"""

import random
from fractions import Fraction
from math import factorial

import game_oracles as oracle
import pytest

from tabloids import games
from tabloids.games import Game, MarginalWeights, SolutionCoefficients

SIZES = range(2, 9)


def rational(rng):
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7)))


def nonzero_rational(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3)))


def random_game(rng, n, dense):
    """Every coalition set (some to zero) when dense, else at most 6 of them."""
    full = (1 << n) - 1
    masks = range(1, full + 1) if dense else rng.sample(range(1, full + 1), min(full, 6))
    values = {mask: rational(rng) for mask in masks}
    values[full] = Fraction(-7, 3)
    return Game(n, values)


def random_coeffs(rng, n):
    def entry():
        return Fraction(0) if rng.random() < 0.25 else rational(rng)

    return SolutionCoefficients(
        tuple(entry() for _ in range(n)), tuple(entry() for _ in range(n - 1))
    )


def perturbed(rng, values):
    """values with one entry shifted by a nonzero rational."""
    out = list(values)
    out[rng.randrange(len(out))] += nonzero_rational(rng)
    return tuple(out)


def near_self_dual_coeffs(rng, n):
    """Coefficients meeting the duality symmetry; the midpoint share is zero."""
    c0 = [Fraction(0)] * n
    for j in range(1, (n + 1) // 2):
        a = rational(rng)
        c0[j - 1], c0[n - j - 1] = j * a, -(n - j) * a
    c0[n - 1] = rational(rng)
    half = [rational(rng) for _ in range(n // 2)]
    c1 = [half[min(k, n - 2 - k)] for k in range(n - 1)]
    return tuple(c0), tuple(c1)


def near_self_dual_cases(rng, n, count):
    """Symmetric concepts, half of them with one entry perturbed."""
    cases = []
    for i in range(count):
        c0, c1 = near_self_dual_coeffs(rng, n)
        if i % 2:
            both = perturbed(rng, c0 + c1)
            c0, c1 = both[:n], both[n:]
        cases.append(SolutionCoefficients(c0, c1))
    if n % 2 == 0:
        c0, c1 = near_self_dual_coeffs(rng, n)
        c0 = c0[: n // 2 - 1] + (nonzero_rational(rng),) + c0[n // 2 :]
        cases.append(SolutionCoefficients(c0, c1))
    for i in range(max(2, count // 2)):
        half = [rational(rng) for _ in range((n + 1) // 2)]
        m = tuple(half[min(j, n - 1 - j)] for j in range(n))
        cases.append(MarginalWeights(perturbed(rng, m) if i % 2 else m))
    cases.append(
        MarginalWeights(
            tuple(
                Fraction(factorial(k - 1) * factorial(n - k), factorial(n))
                for k in range(1, n + 1)
            )
        )
    )
    return cases


# ---------------------------------------------------------------------------
# self-duality


@pytest.mark.parametrize("n", range(2, 8))
def test_self_dual_check_matches_sweep(n):
    rng = random.Random(1000 + n)
    cases = near_self_dual_cases(rng, n, count=4 if n == 7 else 12)
    cases += [random_coeffs(rng, n) for _ in range(4)]
    verdicts = []
    for phi in cases:
        verdict = games.self_dual_check(phi)
        assert verdict == oracle.self_dual_sweep(phi), phi
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_self_dual_midpoint_share_breaks_duality():
    # at even n the criterion forces c0[n/2-1] = 0
    for n in (2, 4, 6):
        c0 = [Fraction(0)] * n
        c0[n // 2 - 1] = Fraction(1, 2)
        phi = SolutionCoefficients(c0, (1,) * (n - 1))
        assert not games.self_dual_check(phi)
        assert not oracle.self_dual_sweep(phi)


def test_self_dual_check_applies_no_concept(monkeypatch):
    def refuse(*args):
        raise AssertionError("self_dual_check evaluated the concept on a game")

    for name in ("dual_game", "solution_apply", "marginal_apply"):
        monkeypatch.setattr(games, name, refuse)
    n = games.MAX_PLAYERS
    shapley_m = MarginalWeights(
        tuple(
            Fraction(factorial(k - 1) * factorial(n - k), factorial(n))
            for k in range(1, n + 1)
        )
    )
    assert games.self_dual_check(games.shapley_coefficients(n))
    assert games.self_dual_check(shapley_m)
    assert not games.self_dual_check(MarginalWeights((1,) + (0,) * (n - 1)))


def test_self_dual_check_refusals():
    n = games.MAX_PLAYERS + 1
    with pytest.raises(ValueError, match=f"player count must be in 1..16, got {n}"):
        games.self_dual_check(games.shapley_coefficients(n))
    with pytest.raises(ValueError, match=f"got {n}"):
        games.self_dual_check(MarginalWeights((1,) * n))
    with pytest.raises(TypeError):
        games.self_dual_check((1, 0, 0))


# ---------------------------------------------------------------------------
# level statistics from one scan


@pytest.mark.parametrize("dense", (True, False), ids=("dense", "sparse"))
@pytest.mark.parametrize("n", SIZES)
def test_level_maps_match_per_level_loops(n, dense):
    rng = random.Random(2000 + 2 * n + dense)
    for _ in range(3):
        v = random_game(rng, n, dense)
        for k in range(1, n + 1):
            assert games.level_average(v, k) == oracle.level_average(v, k)
            assert games.t0k_apply(v, k) == oracle.t0k_apply(v, k)
        for k in range(1, n):
            assert games.t1k_apply(v, k) == oracle.t1k_apply(v, k)
        for _ in range(3):
            c = random_coeffs(rng, n)
            assert games.solution_apply(c, v) == oracle.solution_apply(c, v)
        c = games.shapley_coefficients(n)
        assert games.solution_apply(c, v) == oracle.solution_apply(c, v)
        m = MarginalWeights(tuple(rational(rng) for _ in range(n)))
        assert games.marginal_apply(m, v) == oracle.marginal_apply(m, v)


@pytest.mark.parametrize("dense", (True, False), ids=("dense", "sparse"))
@pytest.mark.parametrize("n", SIZES)
def test_decompose_game_matches_per_level_loops(n, dense):
    rng = random.Random(3000 + 2 * n + dense)
    v = random_game(rng, n, dense)
    assert games.decompose_game(v) == oracle.decompose_game(v)


def test_empty_game_has_zero_statistics():
    for n in (2, 5):
        v = Game(n)
        assert games.solution_apply(games.shapley_coefficients(n), v).is_zero()
        assert games.marginal_apply(MarginalWeights((1,) * n), v).is_zero()
        assert games.decompose_game(v) == oracle.decompose_game(v)
