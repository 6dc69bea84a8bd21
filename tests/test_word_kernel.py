"""The integer word kernel of the voting operators against the Tabloid loops it replaced.

Inputs are seeded random rationals with negative values and non-unit
denominators; every comparison is an exact equality with the oracles in
voting_oracles.py and index_oracles.py.  The rank-indexed results
(`RankingScores`, `act_vector`, word ranking and the word renderer) are
checked against the Tabloid-based code they replaced in the same way, and
the CLI may build one Tabloid per ballot entry and no more.
"""

import json
import random
from fractions import Fraction
from itertools import accumulate
from math import factorial, lcm

import index_oracles as index_oracle
import pytest
import voting_oracles as oracle

from tabloids import core, linalg, specht, voting
from tabloids.cli import main
from tabloids.core import (
    Composition,
    ModuleVector,
    Permutation,
    ShapeMismatchError,
    Tabloid,
    full_ranking_shape,
    pair_shape,
)

SIZES = range(2, 8)


def rational(rng):
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7)))


def random_vector(rng, shape, support=None):
    """Random rational vector; `support` caps the number of nonzero ranks."""
    shape = core.as_composition(shape)
    size = shape.tabloid_count()
    ranks = rng.sample(range(size), min(size, support or size))
    values = {r: rational(rng) for r in ranks}
    values[ranks[0]] = Fraction(-7, 3)  # one negative, non-integral entry
    return ModuleVector(shape, values)


def tally_shapes(n):
    shapes = [full_ranking_shape(n), Composition((1, n - 1))]
    if n >= 3:
        shapes.append(Composition((2, n - 2)))
    return shapes


def row_weights(rng, shape):
    return [rational(rng) for _ in shape.parts]


@pytest.mark.parametrize("n", SIZES)
def test_tally_scores_matches_oracle(n):
    rng = random.Random(100 + n)
    for shape in tally_shapes(n):
        w = row_weights(rng, shape)
        f = random_vector(rng, shape, support=400)
        assert voting.tally_scores(w, f) == oracle.tally_scores(w, f)
    w = voting.WeightingVector(row_weights(rng, full_ranking_shape(n)), allow_unsorted=True)
    f = random_vector(rng, full_ranking_shape(n), support=400)
    assert voting.tally_scores(w, f) == oracle.tally_scores(w, f)


@pytest.mark.parametrize("n", SIZES)
def test_tally_adjoint_matches_oracle(n):
    rng = random.Random(200 + n)
    for shape in tally_shapes(n):
        w = row_weights(rng, shape)
        h = random_vector(rng, (1, n - 1))
        assert voting.tally_adjoint(w, h, shape) == oracle.tally_adjoint(w, h, shape)


@pytest.mark.parametrize("n", SIZES)
def test_pairs_map_and_adjoint_match_oracle(n):
    rng = random.Random(300 + n)
    f = random_vector(rng, full_ranking_shape(n), support=400)
    assert voting.pairs_map(f) == oracle.pairs_map(f)
    g = random_vector(rng, pair_shape(n))
    assert voting.pairs_map_adjoint(g) == oracle.pairs_map_adjoint(g)


@pytest.mark.parametrize("n", SIZES)
def test_kemeny_operator_matches_oracle(n):
    rng = random.Random(400 + n)
    f = random_vector(rng, full_ranking_shape(n), support=400)
    assert voting.kemeny_operator_apply(f) == oracle.kemeny_operator_apply(f)


@pytest.mark.parametrize("n", SIZES)
def test_spectral_family_matches_oracle(n):
    rng = random.Random(500 + n)
    f = random_vector(rng, full_ranking_shape(n), support=200)
    components = oracle.spectral_components(f)
    assert specht.spectral_components(f) == components
    if n < 3:
        with pytest.raises(ValueError):
            voting.family_apply((1, 1, 1), f)
        return
    gamma = [rational(rng) for _ in range(3)]
    t0f, t1f, t2f = components
    want = t0f * gamma[0] + t1f * gamma[1] + t2f * gamma[2]
    assert voting.family_apply(gamma, f).scores == want


def random_profile_system(rng, n, rules):
    """`rules` independent rational weighting vectors and as many sum-zero targets."""
    while True:
        ws = [voting.WeightingVector([rational(rng) for _ in range(n)], allow_unsorted=True)
              for _ in range(rules)]
        hats = [w.hat() for w in ws]
        if linalg.rank([h.to_list() for h in hats]) == rules:
            break
    targets = [specht.project_mean(random_vector(rng, (1, n - 1)))[1] for _ in range(rules)]
    return ws, hats, targets


def integer_representative(f):
    """(scale * f + shift, scale, shift) with the least scale and shift that make f a profile."""
    scale = lcm(*(v.denominator for _, v in f.support()))
    f = f * scale
    shift = int(max(0, -min(f.to_list())))
    return f + ModuleVector.constant(f.shape, shift), scale, shift


@pytest.mark.parametrize("n", SIZES)
def test_construct_profile_matches_oracle(n):
    # the oracle solves all n rows per rule by row-Bareiss over every column
    rng = random.Random(600 + n)
    for rules in range(1, n):
        ws, hats, targets = random_profile_system(rng, n, rules)
        solution, nullity = oracle.construct_profile_system(hats, targets)
        raw = ModuleVector(full_ranking_shape(n), solution)
        assert nullity == factorial(n) - rules * (n - 1)

        built = voting.construct_profile(ws, targets)
        assert (built.solution, built.affine_dimension, built.scale, built.shift) == (
            raw, nullity, 1, 0)

        profile, scale, shift = integer_representative(raw)
        built = voting.construct_profile(ws, targets, integer_profile=True)
        assert (built.solution, built.affine_dimension, built.scale, built.shift) == (
            profile, nullity, scale, shift)


def test_construct_profile_reads_fewer_words_than_one_sweep(monkeypatch):
    # row by row, each of the k*n rows would sweep all 7! words
    read = [0]
    iter_words = voting.iter_words

    def counted(shape, limit=None):
        for word in iter_words(shape, limit):
            read[0] += 1
            yield word

    monkeypatch.setattr(voting, "iter_words", counted)
    rng = random.Random(7)
    for rules in (2, 3):
        ws, _, targets = random_profile_system(rng, 7, rules)
        voting.construct_profile(ws, targets, integer_profile=True)
    assert 0 < read[0] < factorial(7)


def test_forward_operators_on_sparse_support_past_enumeration_limit():
    rng = random.Random(12)
    shape = full_ranking_shape(12)
    assert shape.tabloid_count() > core.ENUMERATION_LIMIT
    f = random_vector(rng, shape, support=25)
    w = row_weights(rng, shape)
    assert voting.tally_scores(w, f) == oracle.tally_scores(w, f)
    assert voting.pairs_map(f) == oracle.pairs_map(f)


def _count_calls(monkeypatch, module, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


SPECTRAL_OPERATORS = ("tally_scores", "tally_adjoint", "kemeny_operator_apply",
                      "pairs_map", "pairs_map_adjoint")


def test_family_apply_runs_gram_and_kemeny_once(monkeypatch):
    f = random_vector(random.Random(7), full_ranking_shape(4))
    counts = _count_calls(monkeypatch, voting, SPECTRAL_OPERATORS)
    voting.family_apply((1, 2, 3), f)
    assert counts == dict.fromkeys(SPECTRAL_OPERATORS, 1)


def test_cli_decompose_runs_gram_and_kemeny_once(monkeypatch, tmp_path, capsys):
    ballots = tmp_path / "b.json"
    ballots.write_text(json.dumps({"n": 4, "ballots": [
        {"ranking": [[1], [2], [3], [4]], "count": 3},
        {"ranking": [[4], [1], [3], [2]], "count": 2},
    ]}), encoding="utf-8")
    counts = _count_calls(monkeypatch, voting, SPECTRAL_OPERATORS)
    assert main(["decompose", str(ballots)]) == 0
    assert counts == dict.fromkeys(SPECTRAL_OPERATORS, 1)
    assert json.loads(capsys.readouterr().out)["command"] == "decompose"


def test_operators_build_no_tabloids(monkeypatch):
    rng = random.Random(9)
    n = 5
    shape = full_ranking_shape(n)
    f = random_vector(rng, shape)
    h = random_vector(rng, (1, n - 1))
    g = random_vector(rng, pair_shape(n))
    ws = [voting.borda_weights(n), voting.plurality_weights(n)]
    targets = [specht.project_mean(random_vector(rng, (1, n - 1)))[1] for _ in ws]

    def forbidden(*args, **kwargs):
        raise AssertionError("the word kernel must not build tabloids")

    monkeypatch.setattr(core.Tabloid, "__init__", forbidden)
    for module in (core, voting):
        for name in ("unrank", "cached_tabloids"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    voting.tally_scores(voting.borda_weights(n), f)
    voting.tally_adjoint([1, 0, 0, 0, -1], h, shape)
    voting.pairs_map(f)
    voting.pairs_map_adjoint(g)
    voting.construct_profile(ws, targets, integer_profile=True)
    z = random_vector(rng, shape, support=20)
    for result in (voting.kemeny_apply(f), voting.family_apply((1, 2, 3), f),
                   voting.srsf_apply(z, f), voting.positional_tally(voting.borda_weights(n), f)):
        result.ordinal_signature()


UNRANK_SHAPES = [(1,) * n for n in range(1, 8)] + [(2, 3), (1, 4), (3, 2, 2), (2, 1, 2), (1, 1, 3)]


@pytest.mark.parametrize("parts", UNRANK_SHAPES, ids=str)
def test_unrank_word_matches_oracle(parts):
    total = Composition(parts).tabloid_count()
    words = [core.unrank_word(parts, r) for r in range(total)]
    assert words == [index_oracle.unrank_word(parts, r) for r in range(total)]
    assert words == list(core.iter_words(parts))
    for bad in (-1, total):
        with pytest.raises(ValueError, match="out of range"):
            core.unrank_word(parts, bad)


@pytest.mark.parametrize("parts", UNRANK_SHAPES, ids=str)
def test_word_rank_inverts_unrank_word(parts):
    for r, word in enumerate(core.iter_words(parts)):
        assert core._word_rank(parts, word) == r
        # the entries of a row may come in any order
        rows = [word[end - p : end][::-1] for p, end in zip(parts, accumulate(parts))]
        assert core._word_rank(parts, [e for row in rows for e in row]) == r
        x = core.unrank(parts, r)
        assert core.lex_rank(x) == index_oracle.lex_rank(x) == r


@pytest.mark.parametrize("parts", UNRANK_SHAPES, ids=str)
def test_act_vector_matches_oracle(parts):
    rng = random.Random(f"act_vector{parts}")
    shape = Composition(parts)
    for support, relabellings in ((None, 1), (3, 3)):
        f = random_vector(rng, shape, support)
        for _ in range(relabellings):
            sigma = Permutation(rng.sample(range(1, shape.n + 1), shape.n))
            assert core.act_vector(sigma, f) == index_oracle.act_vector(sigma, f)


RENDER_SHAPES = sorted(
    {(1,) * n for n in range(1, 7)} | {(1, n - 1) for n in range(2, 7)}
    | {(2, n - 2) for n in range(3, 7)} | {(3, 2, 2)}
)


@pytest.mark.parametrize("parts", RENDER_SHAPES, ids=str)
def test_word_renderer_matches_tabloid_str(parts):
    for word in core.iter_words(parts):
        x = Tabloid(word[end - p : end] for p, end in zip(parts, accumulate(parts)))
        assert core._format_word(parts, word) == str(x) == index_oracle.tabloid_str(x)


TIED_VALUES = [Fraction(v) for v in ("-3/2", "0", "1/3", "2", "7/5")]
SCORE_SHAPES = sorted({(1,) * n for n in range(2, 8)} | {(1, n - 1) for n in range(2, 8)})


@pytest.mark.parametrize("parts", SCORE_SHAPES, ids=str)
def test_ranking_scores_match_oracle(parts):
    rng = random.Random(f"ranking_scores{parts}")
    shape = Composition(parts)
    size = shape.tabloid_count()
    for values in (TIED_VALUES, TIED_VALUES[:1]):
        scores = ModuleVector(shape, [rng.choice(values) for _ in range(size)])
        new, old = voting.RankingScores(scores), oracle.RankingScores(scores)
        signature = old.ordinal_signature()
        assert new.ordinal_signature() == signature
        assert new.ranks == tuple(
            tuple(r for r in range(size) if signature[r] == i) for i in range(len(old.tiers))
        )
        assert new.tiers == old.tiers
        assert new.winners == old.winners
        for r in rng.sample(range(size), min(size, 25)):
            x = core.unrank(shape, r)
            assert new.tier_of(x) == old.tier_of(x)
        foreign = Tabloid.first((1,) * (shape.n + 1))
        for result in (new, old):
            with pytest.raises(ValueError):
                result.tier_of(foreign)
        if len(parts) == 2:
            assert new.winner_candidates() == old.winner_candidates()
        else:
            with pytest.raises(ShapeMismatchError):
                new.winner_candidates()


@pytest.mark.parametrize("command", [
    ["kemeny"], ["family", "--gamma0", "1", "--gamma1", "1/2", "--gamma2", "3"], ["tally"],
], ids=lambda argv: argv[0])
def test_cli_builds_one_tabloid_per_ballot_entry(monkeypatch, tmp_path, capsys, command):
    orders = [(1, 2, 3, 4, 5), (2, 1, 4, 3, 5), (5, 3, 4, 1, 2), (1, 2, 3, 4, 5)]
    as_json = tmp_path / "b.json"
    as_json.write_text(json.dumps({"n": 5, "ballots": [
        {"ranking": [[e] for e in order], "count": 2} for order in orders
    ]}), encoding="utf-8")
    as_csv = tmp_path / "b.csv"
    as_csv.write_text("".join(">".join(map(str, o)) + ",2\n" for o in orders), encoding="utf-8")
    built = [0]
    original = core.Tabloid.__init__

    def counted(self, rows):
        built[0] += 1
        original(self, rows)

    monkeypatch.setattr(core.Tabloid, "__init__", counted)
    for path in (as_json, as_csv):
        built[0] = 0
        assert main([command[0], str(path), *command[1:], "--format", "pretty"]) == 0
        assert built[0] == len(orders)
        assert capsys.readouterr().out.startswith(command[0])
