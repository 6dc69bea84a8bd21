"""The one combination kernel of `ModuleVector` and `Game` against the merge loops it replaced.

Inputs are seeded random rationals: dense, sparse and empty vectors, zero and
negative coefficients, and denominators up to 5040.  Every comparison is an
exact equality with the oracle in vector_oracles.py.
"""

import json
import random
from fractions import Fraction

import pytest
import vector_oracles as oracle

from tabloids import core, games, specht, voting
from tabloids.cli import main
from tabloids.core import (
    Composition,
    ModuleVector,
    ShapeMismatchError,
    full_ranking_shape,
    linear_combination,
)
from tabloids.games import Game

SHAPES = [Composition(p) for p in ((1, 1, 1), (1, 3), (2, 2), (1, 1, 1, 1), (1, 1, 1, 1, 1))]


def rational(rng, max_den=7):
    return Fraction(rng.randint(-9, 9), rng.randint(1, max_den))


def random_vector(rng, shape, density, max_den=7):
    """A vector with about `density` of its entries set (some of them to zero)."""
    size = core.as_composition(shape).tabloid_count()
    ranks = [r for r in range(size) if rng.random() < density]
    return ModuleVector(shape, {r: rational(rng, max_den) for r in ranks})


def assert_no_zero_entries(vec):
    assert all(v for _, v in vec.support())
    assert vec.nonzero_count() == len(vec.support())


def scalars(rng):
    return [Fraction(0), 1, -1, 3, Fraction(-5, 7), rational(rng, 5040) or Fraction(1, 2)]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s.parts)))
def test_operators_match_oracle(shape):
    rng = random.Random(sum(shape.parts) * 31 + len(shape.parts))
    for density in (0.0, 0.2, 1.0):
        for _ in range(4):
            a = random_vector(rng, shape, density)
            b = random_vector(rng, shape, rng.choice((0.0, 0.2, 1.0)))
            for got, want in (
                (a + b, oracle.add(a, b)),
                (a - b, oracle.sub(a, b)),
                (-a, oracle.neg(a)),
            ):
                assert got == want
                assert_no_zero_entries(got)
            for c in scalars(rng):
                assert a * c == oracle.mul(a, c)
                assert c * a == oracle.mul(a, c)
                assert_no_zero_entries(a * c)
                if c:
                    assert a / c == oracle.truediv(a, c)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s.parts)))
def test_linear_combination_matches_fold(shape):
    rng = random.Random(len(shape.parts) * 101 + shape.parts[0])
    for _ in range(12):
        terms = [
            (rng.choice(scalars(rng)), random_vector(rng, shape, rng.choice((0.0, 0.3, 1.0)),
                                                     rng.choice((7, 5040))))
            for _ in range(rng.randint(0, 5))
        ]
        got = linear_combination(shape, terms)
        assert got == oracle.combination(shape, terms)
        assert got == linear_combination(shape.parts, iter(terms))
        assert_no_zero_entries(got)


def test_empty_term_list_is_the_zero_vector():
    for shape in SHAPES:
        zero = linear_combination(shape, [])
        assert zero == ModuleVector.zero(shape)
        assert zero.is_zero() and zero.support() == [] and zero.size == shape.tabloid_count()
        assert linear_combination(shape, iter(())) == zero
    empty = ModuleVector.zero((1, 1, 1))
    assert empty + empty == empty and -empty == empty and empty * 5 == empty
    assert empty.sum_values() == 0 and empty.norm2() == 0


def test_exact_cancellation_leaves_the_support():
    rng = random.Random(3)
    shape = full_ranking_shape(4)
    a = random_vector(rng, shape, 1.0, 5040)
    assert (a - a).is_zero() and (a - a).support() == []
    assert linear_combination(shape, [(Fraction(2, 3), a), (Fraction(-2, 3), a)]).is_zero()
    # cancel exactly half of the entries of a
    ranks = [r for r, _ in a.support()][::2]
    b = ModuleVector(shape, {r: -a[r] for r in ranks})
    got = a + b
    assert got == oracle.add(a, b)
    assert set(r for r, _ in got.support()) == set(r for r, _ in a.support()) - set(ranks)
    assert_no_zero_entries(got)
    # a zero coefficient contributes nothing, a negative one subtracts
    assert linear_combination(shape, [(0, a), (-1, b)]) == -b
    assert linear_combination(shape, [(0, a)]).is_zero()


def test_denominators_up_to_5040():
    rng = random.Random(5040)
    shape = full_ranking_shape(7)

    def dense():
        return ModuleVector(shape, [Fraction(rng.randint(-99, 99), rng.randint(1, 5040))
                                    for _ in range(5040)])

    a, b = dense(), dense()
    assert a + b == oracle.add(a, b)
    assert a - b == oracle.sub(a, b)
    c = Fraction(rng.randint(1, 99), rng.randint(1, 5040))
    assert linear_combination(shape, [(c, a), (-1, b)]) == oracle.sub(oracle.mul(a, c), b)
    assert a.sum_values() == sum(a.to_list(), Fraction(0))
    assert a.norm2() == sum((v * v for v in a.to_list()), Fraction(0))


def test_sparse_vectors_past_the_enumeration_limit():
    rng = random.Random(12)
    shape = full_ranking_shape(12)
    assert shape.tabloid_count() > core.ENUMERATION_LIMIT
    ranks = rng.sample(range(shape.tabloid_count()), 30)
    a = ModuleVector(shape, {r: rational(rng) for r in ranks[:20]})
    b = ModuleVector(shape, {r: rational(rng) for r in ranks[10:]})
    assert a - b == oracle.sub(a, b)
    assert linear_combination(shape, [(3, a), (Fraction(1, 2), b)]) == oracle.add(
        oracle.mul(a, 3), oracle.mul(b, Fraction(1, 2)))
    assert a.sum_values() == sum((v for _, v in a.support()), Fraction(0))


def test_equal_vectors_hash_alike():
    rng = random.Random(8)
    shape = full_ranking_shape(4)
    a = random_vector(rng, shape, 0.5)
    from_list = ModuleVector(shape, a.to_list())
    from_sum = (a + a) - a
    assert a == from_list == from_sum
    assert hash(a) == hash(from_list) == hash(from_sum)
    assert len({a, from_list, from_sum}) == 1


def test_arithmetic_errors():
    a = ModuleVector((1, 1, 1), [1, 2, 3, 0, 0, Fraction(1, 2)])
    other_shape = ModuleVector((1, 2), [1, 2, 3])
    for bad in (1.5, True):
        with pytest.raises(TypeError):
            a * bad
        with pytest.raises(TypeError):
            bad * a
        with pytest.raises(TypeError):
            a / bad
        with pytest.raises(TypeError):
            linear_combination(a.shape, [(bad, a)])
    for bad in (1, Fraction(1), [1, 2, 3, 4, 5, 6], None):
        with pytest.raises(TypeError):
            a + bad
        with pytest.raises(TypeError):
            a - bad
        with pytest.raises(TypeError):
            linear_combination(a.shape, [(1, bad)])
    with pytest.raises(TypeError):
        a * a
    with pytest.raises(ShapeMismatchError):
        a + other_shape
    with pytest.raises(ShapeMismatchError):
        a - other_shape
    with pytest.raises(ShapeMismatchError):
        linear_combination((1, 1, 1), [(1, a), (2, other_shape)])
    with pytest.raises(ShapeMismatchError):
        a.inner(other_shape)
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            a / zero


def random_game(rng, n, density, max_den=7):
    full = (1 << n) - 1
    return Game(n, {m: rational(rng, max_den) for m in range(1, full + 1)
                    if rng.random() < density})


@pytest.mark.parametrize("n", range(1, 9))
def test_game_arithmetic_matches_oracle(n):
    rng = random.Random(70 + n)
    for density in (0.0, 0.3, 1.0):
        v = random_game(rng, n, density, 5040)
        w = random_game(rng, n, rng.choice((0.0, 0.3, 1.0)))
        assert v + w == oracle.game_add(v, w)
        assert v - w == oracle.game_sub(v, w)
        assert (v - v).items() == []
        for c in scalars(rng):
            assert v * c == oracle.game_mul(v, c)
            assert c * v == oracle.game_mul(v, c)


def test_game_arithmetic_errors():
    v = Game(3, {1: 1, 7: 2})
    with pytest.raises(ShapeMismatchError):
        v + Game(4, {1: 1})
    with pytest.raises(ShapeMismatchError):
        v - Game(4, {1: 1})
    with pytest.raises(ShapeMismatchError):
        v - 3
    with pytest.raises(TypeError):
        v * 1.5
    with pytest.raises(TypeError):
        v * True


@pytest.mark.parametrize("n", range(2, 9))
def test_t1k_adjoint_matches_oracle(n):
    rng = random.Random(300 + n)
    for k in range(1, n):
        for density in (0.0, 0.5, 1.0):
            h = random_vector(rng, (1, n - 1), density, 5040)
            assert games.t1k_adjoint(h, n, k) == oracle.t1k_adjoint(h, n, k)


OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__truediv__")


def test_spectral_callers_use_no_vector_operators(monkeypatch, tmp_path, capsys):
    """Each result of these callers is one kernel call, never a chain of operators.

    The only operator allowed is the lone division that forms each deviation
    part of decompose_game (one call, so one kernel pass, per level k < n).
    """
    rng = random.Random(21)
    ballots = tmp_path / "b.json"
    ballots.write_text(json.dumps({"n": 4, "ballots": [
        {"ranking": [[1], [2], [3], [4]], "count": 3},
        {"ranking": [[4], [1], [3], [2]], "count": 2},
    ]}), encoding="utf-8")
    profiles = [random_vector(rng, full_ranking_shape(n), 0.6) for n in (2, 3, 4, 5)]
    game = random_game(rng, 5, 1.0)

    def forbidden(*args, **kwargs):
        raise AssertionError("a ModuleVector operator was called")

    divide = ModuleVector.__truediv__
    divisions = []

    def counted_division(self, scalar):
        divisions.append(scalar)
        return divide(self, scalar)

    for name in OPERATORS:
        monkeypatch.setattr(ModuleVector, name, forbidden)
    for f in profiles:
        specht.spectral_components(f)
    for f in profiles[1:]:
        voting.family_apply((1, Fraction(-2, 3), 5), f)
    assert main(["decompose", str(ballots)]) == 0
    monkeypatch.setattr(ModuleVector, "__truediv__", counted_division)
    games.decompose_game(game)
    assert len(divisions) == game.n - 1
    assert json.loads(capsys.readouterr().out)["command"] == "decompose"
