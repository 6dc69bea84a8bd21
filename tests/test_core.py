"""Tabloid enumeration, ranking, group action, and exact vector arithmetic."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from tabloids.core import (
    CapacityError,
    Composition,
    ModuleVector,
    Permutation,
    ShapeMismatchError,
    Tabloid,
    act_tabloid,
    act_vector,
    cached_tabloids,
    enumerate_tabloids,
    from_group_algebra,
    inner_product,
    iter_words,
    lex_rank,
    parse_rational,
    format_rational,
    row_sort_bijection,
    sort_rows_to_partition,
    to_group_algebra,
    unrank,
    unrank_word,
)


def brute_tabloids(parts):
    """Independent enumeration oracle: recursive subset choice, sorted by word."""

    def rec(parts, avail):
        if not parts:
            yield ()
            return
        for head in combinations(avail, parts[0]):
            rest = tuple(v for v in avail if v not in head)
            for tail in rec(parts[1:], rest):
                yield (head,) + tail

    n = sum(parts)
    all_rows = rec(tuple(parts), tuple(range(1, n + 1)))
    return sorted(all_rows, key=lambda rows: tuple(e for row in rows for e in row))


def test_composition_basics():
    c = Composition((2, 3, 1, 3))
    assert c.n == 9
    assert c.sorted().parts == (3, 3, 2, 1)
    assert c.tabloid_count() == 5040
    assert not c.is_partition()
    assert Composition((4, 2, 2, 1)).is_partition()
    with pytest.raises(ValueError):
        Composition((2, 0, 1))
    with pytest.raises(ValueError):
        Composition(())


def test_enumerate_full_rankings_n3():
    xs = enumerate_tabloids((1, 1, 1))
    assert len(xs) == 6
    assert xs[0].rows == ((1,), (2,), (3,))
    assert xs[-1].rows == ((3,), (2,), (1,))
    words = [x.word() for x in xs]
    assert words == [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]


def test_enumerate_single_row():
    xs = enumerate_tabloids((3,))
    assert len(xs) == 1
    assert xs[0].rows == ((1, 2, 3),)


def test_enumerate_matches_brute_oracle():
    for parts in [(1, 1, 1), (2, 2), (1, 2), (2, 1), (3, 2), (1, 2, 1), (2, 1, 2)]:
        got = [x.rows for x in enumerate_tabloids(parts)]
        assert got == brute_tabloids(parts), parts


def test_words_match_brute_oracle():
    for parts in [(1, 1, 1, 1), (2, 2), (1, 3), (3, 1), (2, 1, 2), (1, 2, 1), (4,), (1,)]:
        want = [tuple(e for row in rows for e in row) for rows in brute_tabloids(parts)]
        assert list(iter_words(parts)) == want, parts
        assert [unrank_word(parts, r) for r in range(len(want))] == want, parts
    with pytest.raises(ValueError):
        unrank_word((2, 2), 6)
    # the capacity check runs when the iterator is made, not when it is read
    with pytest.raises(CapacityError):
        iter_words((1,) * 11)
    with pytest.raises(CapacityError):
        iter_words((2, 2), limit=5)


def test_tabloid_count_is_multinomial():
    for parts in [(1,) * 7, (3, 3, 3), (4, 5), (2, 3, 4), (1, 8), (2, 3, 1, 3)]:
        c = Composition(parts)
        if c.tabloid_count() <= 6000:
            assert len(enumerate_tabloids(parts)) == c.tabloid_count()
    assert Composition((2, 3, 1, 3)).tabloid_count() == 5040


def test_figure_tabloid_rank_and_roundtrip():
    x = Tabloid([(2, 6), (1, 3, 5), (8,), (4, 7, 9)])
    # frozen from the brute enumeration oracle over all 5040 tabloids
    assert lex_rank(x) == 1546
    assert unrank((2, 3, 1, 3), 1546) == x


def test_rank_of_first_tabloid_is_zero():
    for parts in [(1, 1, 1), (2, 2), (2, 3, 1, 3), (5,), (1, 4)]:
        assert lex_rank(Tabloid.first(parts)) == 0


def test_rank_examples():
    assert lex_rank(Tabloid([(2,), (1,), (3,)])) == 2
    ranks = sorted(lex_rank(x) for x in enumerate_tabloids((2, 2)))
    assert ranks == list(range(6))


def test_rank_unrank_roundtrip():
    for parts in [(1, 1, 1, 1), (2, 2), (1, 3), (2, 1, 2), (3, 1, 1)]:
        xs = enumerate_tabloids(parts)
        for i, x in enumerate(xs):
            assert lex_rank(x) == i
            assert unrank(parts, i) == x
    with pytest.raises(ValueError):
        unrank((2, 2), 6)
    with pytest.raises(ValueError):
        unrank((2, 2), -1)


def test_enumeration_capacity_limit():
    with pytest.raises(CapacityError):
        enumerate_tabloids((1,) * 11)
    with pytest.raises(CapacityError):
        enumerate_tabloids((2, 2), limit=3)
    assert len(enumerate_tabloids((2, 2), limit=6)) == 6


def test_tabloid_validation():
    with pytest.raises(ValueError):
        Tabloid([(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        Tabloid([(1,), (3,)])
    assert Tabloid([(2, 1), (3,)]) == Tabloid([(1, 2), (3,)])


def test_permutation_group_axioms():
    rng = random.Random(11)
    n = 5
    perms = [Permutation(rng.sample(range(1, n + 1), n)) for _ in range(8)]
    e = Permutation.identity(n)
    for s in perms:
        assert s * s.inverse() == e
        assert s.inverse() * s == e
        for t in perms:
            for u in perms:
                assert (s * t) * u == s * (t * u)
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_act_tabloid_examples():
    x = Tabloid([(1,), (2,), (3,)])
    assert act_tabloid(Permutation.identity(3), x) == x
    swapped = act_tabloid(Permutation.transposition(3, 1, 2), x)
    assert swapped.rows == ((2,), (1,), (3,))
    with pytest.raises(ShapeMismatchError):
        act_tabloid(Permutation.identity(4), x)


def test_action_is_group_action():
    rng = random.Random(5)
    xs = enumerate_tabloids((2, 1, 2))
    for _ in range(30):
        s = Permutation(rng.sample(range(1, 6), 5))
        t = Permutation(rng.sample(range(1, 6), 5))
        x = xs[rng.randrange(len(xs))]
        assert act_tabloid(s * t, x) == act_tabloid(s, act_tabloid(t, x))


def test_action_transitive():
    for parts in [(2, 2), (1, 1, 1), (2, 3)]:
        xs = enumerate_tabloids(parts)
        n = sum(parts)
        perms = list(Permutation.all(n))
        for x in xs:
            reached = {act_tabloid(s, x) for s in perms}
            assert reached == set(xs), parts


def test_module_vector_storage_is_invisible():
    sparse = ModuleVector((1, 1, 1, 1), {0: 1, 5: Fraction(1, 2)})
    dense = ModuleVector((1, 1, 1, 1), [1, 0, 0, 0, 0, Fraction(1, 2)] + [0] * 18)
    assert sparse == dense
    assert sparse + dense == dense * 2
    assert sparse.to_list() == dense.to_list()


def test_module_vector_rejects_floats_and_bad_ranks():
    with pytest.raises(TypeError):
        ModuleVector((1, 2), [0.5, 0, 0])
    with pytest.raises(ValueError):
        ModuleVector((1, 2), {3: 1})
    with pytest.raises(ShapeMismatchError):
        ModuleVector((1, 2), [1, 2])


def test_module_vector_arithmetic():
    f = ModuleVector((1, 2), [13, 4, 7])
    g = ModuleVector((1, 2), [1, 1, 1])
    assert (f + g).to_list() == [14, 5, 8]
    assert (f - g).to_list() == [12, 3, 6]
    assert (f * Fraction(1, 2)).to_list() == [Fraction(13, 2), 2, Fraction(7, 2)]
    assert (f / 2).to_list() == [Fraction(13, 2), 2, Fraction(7, 2)]
    assert (-f).sum_values() == -24
    with pytest.raises(ShapeMismatchError):
        f + ModuleVector((1, 1, 1), [0] * 6)


def test_inner_product_examples():
    xs = enumerate_tabloids((1, 2))
    indicators = [ModuleVector.indicator(x) for x in xs]
    for i, fi in enumerate(indicators):
        for j, fj in enumerate(indicators):
            assert inner_product(fi, fj) == (1 if i == j else 0)
    f = ModuleVector((1, 2), [13, 4, 7])
    assert inner_product(f, ModuleVector.zero((1, 2))) == 0
    assert inner_product(f, ModuleVector.ones((1, 2))) == 24


def test_act_vector_moves_indicators():
    rng = random.Random(3)
    xs = enumerate_tabloids((1, 1, 1))
    for s in Permutation.all(3):
        for x in xs:
            assert act_vector(s, ModuleVector.indicator(x)) == ModuleVector.indicator(
                act_tabloid(s, x)
            )
    f = ModuleVector((2, 2), {r: rng.randint(-5, 5) for r in range(6)})
    assert act_vector(Permutation.identity(4), f) == f


def test_act_vector_is_orthogonal_and_compatible():
    rng = random.Random(17)
    shape = (1, 1, 1, 1)
    for _ in range(10):
        f = ModuleVector(shape, [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(24)])
        g = ModuleVector(shape, [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(24)])
        s = Permutation(rng.sample(range(1, 5), 4))
        t = Permutation(rng.sample(range(1, 5), 4))
        assert inner_product(act_vector(s, f), act_vector(s, g)) == inner_product(f, g)
        assert act_vector(s * t, f) == act_vector(s, act_vector(t, f))
        assert act_vector(s, f + g) == act_vector(s, f) + act_vector(s, g)
        assert act_vector(s, ModuleVector.ones(shape)) == ModuleVector.ones(shape)


def test_group_algebra_roundtrip():
    x0 = Tabloid.first((1, 1, 1))
    f = ModuleVector.indicator(x0)
    tilde = to_group_algebra(f)
    assert tilde == {Permutation.identity(3): Fraction(1)}
    const = ModuleVector.constant((1, 1, 1), 5)
    assert set(to_group_algebra(const).values()) == {Fraction(5)}

    rng = random.Random(23)
    f4 = ModuleVector((1, 1, 1, 1), [rng.randint(-9, 9) for _ in range(24)])
    assert from_group_algebra(4, to_group_algebra(f4)) == f4
    with pytest.raises(ShapeMismatchError):
        to_group_algebra(ModuleVector.zero((2, 2)))


def test_row_sort_bijection_is_equivariant():
    shape = (1, 2, 1)
    target = Composition(shape).sorted().parts
    table = row_sort_bijection(shape)
    assert sorted(table) == list(range(12))
    xs = enumerate_tabloids(shape)
    for s in Permutation.all(4):
        for x in xs:
            left = sort_rows_to_partition(act_tabloid(s, x))
            right = act_tabloid(s, sort_rows_to_partition(x))
            assert left == right
            assert left.shape.parts == target


def test_json_roundtrip():
    f = ModuleVector((1, 1, 1), {0: Fraction(1, 2), 4: 3})
    data = f.to_json_dict()
    assert data == {"shape": [1, 1, 1], "values": {"0": "1/2", "4": 3}}
    assert ModuleVector.from_json_dict(data) == f
    assert ModuleVector.from_json_dict({"shape": [1, 2], "values": {"1": "-2/4"}})[1] == Fraction(-1, 2)
    with pytest.raises(ValueError):
        ModuleVector.from_json_dict({"values": {}})


def test_rational_parsing():
    assert parse_rational("3/6") == Fraction(1, 2)
    assert parse_rational("-4") == -4
    assert parse_rational(7) == 7
    assert format_rational(Fraction(4, 2)) == 2
    assert format_rational(Fraction(-1, 3)) == "-1/3"
    for bad in ("", "1/0", "a", "1.5", None):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_cached_tabloids_consistency():
    assert list(cached_tabloids((1, 1, 1))) == enumerate_tabloids((1, 1, 1))
