"""Tallies, scoring functions, the pairs/Kemeny family, and profile construction."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from tabloids import linalg, specht, voting
from tabloids.core import (
    InfeasibleError,
    ModuleVector,
    Permutation,
    ShapeMismatchError,
    Tabloid,
    act_vector,
    cached_tabloids,
    full_ranking_shape,
    lex_rank,
    pair_shape,
    to_group_algebra,
)
from tabloids.voting import (
    Profile,
    WeightingVector,
    antiplurality_weights,
    borda_srsf_apply,
    borda_weights,
    construct_profile,
    family_apply,
    kemeny_apply,
    kemeny_operator,
    kemeny_operator_apply,
    kendall_score_vector,
    kendall_tau,
    pair_rank,
    pair_unrank,
    pairs_map,
    pairs_map_adjoint,
    pairs_operator,
    plurality_weights,
    positional_tally,
    profile_from_csv,
    profile_from_json_dict,
    srsf_apply,
    tally_scores,
    weighting_equivalent,
    weighting_from_json_dict,
)

# the worked n=3 profile whose displayed tally is (5+4s, 6+6s, 3+4s)
WORKED_PROFILE = ModuleVector((1, 1, 1), [3, 2, 4, 2, 0, 3])
# two ballots for 1>2>3, two for 3>1>2, one for 2>3>1: the Kemeny tie case
TIE_PROFILE = ModuleVector((1, 1, 1), [2, 0, 0, 1, 2, 0])


def brute_tally(weights, f):
    """Oracle: loop over every tabloid and hand out points row by row."""
    shape = f.shape
    n = shape.n
    scores = [Fraction(0)] * n
    for x, val in zip(cached_tabloids(shape.parts), f.to_list()):
        for row_idx, row in enumerate(x.rows):
            for cand in row:
                scores[cand - 1] += val * weights[row_idx]
    return scores


def pair_indicator(i, j, n):
    """Oracle: the 0/1 vector marking rankings that place i above j."""
    shape = full_ranking_shape(n)
    vals = []
    for x in cached_tabloids(shape.parts):
        idx = x.row_index()
        vals.append(1 if idx[i] < idx[j] else 0)
    return ModuleVector(shape, vals)


def random_profile(rng, n, top):
    return Profile(
        ModuleVector(full_ranking_shape(n), [rng.randint(0, top) for _ in range(factorial(n))])
    )


# ---------------------------------------------------------------------------
# positional tallies


def test_worked_tally_example():
    for s in (Fraction(0), Fraction(1, 2), Fraction(1)):
        w = WeightingVector([1, s, 0])
        got = tally_scores(w, WORKED_PROFILE).to_list()
        assert got == [5 + 4 * s, 6 + 6 * s, 3 + 4 * s]


def test_zero_weights_zero_scores():
    w = WeightingVector([0, 0, 0])
    assert tally_scores(w, WORKED_PROFILE).is_zero()


def test_borda_tally_matches_brute_oracle():
    got = tally_scores(borda_weights(3), WORKED_PROFILE).to_list()
    assert got == brute_tally([2, 1, 0], WORKED_PROFILE)
    assert got == [14, 18, 10]
    result = positional_tally(borda_weights(3), WORKED_PROFILE)
    assert result.winner_candidates() == (2,)


def test_tally_matches_group_algebra_form():
    # scores = sum over the support of f-tilde of (relabeled w), read back
    rng = random.Random(2)
    n = 3
    for _ in range(5):
        f = ModuleVector(full_ranking_shape(n), [rng.randint(-4, 4) for _ in range(6)])
        w = WeightingVector([3, 1, 0])
        acc = ModuleVector.zero((1, n - 1))
        for sigma, val in to_group_algebra(f).items():
            acc = acc + act_vector(sigma, w.vector) * val
        assert acc == tally_scores(w, f)


def test_partial_ranking_tally():
    # shape (2,1): voters name their top two (unordered), then the last
    f = ModuleVector((2, 1), [5, 2, 1])
    scores = tally_scores([1, 0], f).to_list()
    assert scores == brute_tally([1, 0], f)
    assert scores == [7, 6, 3]
    with pytest.raises(ShapeMismatchError):
        tally_scores(borda_weights(3), f)  # full-ranking schedule, partial data
    with pytest.raises(ShapeMismatchError):
        tally_scores([1, 0, 0], f)


def test_tally_neutrality():
    rng = random.Random(8)
    for n in (3, 4):
        w = borda_weights(n)
        for _ in range(6):
            f = ModuleVector(full_ranking_shape(n), [rng.randint(0, 5) for _ in range(factorial(n))])
            s = Permutation(rng.sample(range(1, n + 1), n))
            assert tally_scores(w, act_vector(s, f)) == act_vector(s, tally_scores(w, f))


def test_weighting_vector_validation():
    with pytest.raises(ValueError):
        WeightingVector([0, 1, 2])
    WeightingVector([0, 1, 2], allow_unsorted=True)
    assert borda_weights(4).weights == (3, 2, 1, 0)
    assert plurality_weights(3).weights == (1, 0, 0)
    assert antiplurality_weights(3).weights == (1, 1, 0)


def test_weighting_equivalence():
    b = WeightingVector([2, 1, 0])
    half = WeightingVector([1, Fraction(1, 2), 0])
    assert weighting_equivalent(b, half)
    assert weighting_equivalent(b, b)
    shifted = WeightingVector([5, 3, 1], allow_unsorted=True)  # 2w + 1
    assert weighting_equivalent(b, shifted)
    assert not weighting_equivalent(plurality_weights(3), antiplurality_weights(3))
    const = WeightingVector([1, 1, 1])
    assert weighting_equivalent(const, WeightingVector([4, 4, 4]))
    assert not weighting_equivalent(const, b)
    reversed_b = WeightingVector([0, 1, 2], allow_unsorted=True)
    assert not weighting_equivalent(b, reversed_b)


# ---------------------------------------------------------------------------
# Kendall tau and ranking scoring


def test_kendall_tau_basics():
    xs = cached_tabloids((1, 1, 1, 1))
    for x in xs:
        assert kendall_tau(x, x) == 0
        rev = Tabloid.from_ranking(tuple(reversed(x.to_ranking())))
        assert kendall_tau(x, rev) == comb(4, 2)
    assert kendall_tau(Tabloid.from_ranking((1, 2, 3)), Tabloid.from_ranking((1, 3, 2))) == 1


def test_kendall_tau_is_a_metric_and_invariant():
    xs = cached_tabloids((1, 1, 1))
    for x in xs:
        for y in xs:
            d = kendall_tau(x, y)
            assert d == kendall_tau(y, x)
            assert 0 <= d <= 3
            assert (d == 0) == (x == y)
            for z in xs:
                assert d <= kendall_tau(x, z) + kendall_tau(z, y)
    for s in Permutation.all(3):
        for x in xs:
            for y in xs:
                from tabloids.core import act_tabloid

                assert kendall_tau(act_tabloid(s, x), act_tabloid(s, y)) == kendall_tau(x, y)


def test_kendall_tau_agrees_with_pair_indicators():
    n = 4
    xs = cached_tabloids((1,) * n)
    inds = {(i, j): pair_indicator(i, j, n) for i in range(1, 5) for j in range(1, 5) if i != j}
    for x in xs[:8]:
        for y in xs[:8]:
            agree = sum(inds[k].at(x) * inds[k].at(y) for k in inds)
            assert kendall_tau(x, y) == comb(n, 2) - agree


def test_srsf_identity_cases():
    n = 3
    shape = full_ranking_shape(n)
    z = ModuleVector(shape, [7, 1, 0, 2, 5, 3])
    f0 = ModuleVector.indicator(Tabloid.first(shape))
    assert srsf_apply(z, f0).scores == z
    ones = ModuleVector.ones(shape)
    total = srsf_apply(z, Profile(ModuleVector(shape, [2, 0, 0, 1, 2, 0])))
    const = srsf_apply(ModuleVector.ones(shape), Profile(ModuleVector(shape, [2, 0, 0, 1, 2, 0])))
    assert const.scores == ModuleVector.constant(shape, 5)
    assert total.scores.sum_values() == z.sum_values() * 5


def test_kendall_srsf_reproduces_kemeny():
    z = kendall_score_vector(3)
    assert z.to_list() == [3, 2, 2, 1, 1, 0]
    got = srsf_apply(z, TIE_PROFILE)
    assert got.scores.to_list() == [9, 8, 6, 7, 9, 6]
    rng = random.Random(12)
    for n in (3, 4):
        zn = kendall_score_vector(n)
        for _ in range(4):
            f = ModuleVector(full_ranking_shape(n), [rng.randint(-3, 6) for _ in range(factorial(n))])
            assert srsf_apply(zn, f).scores == kemeny_operator_apply(f)


# ---------------------------------------------------------------------------
# pairs map and Kemeny


def test_pair_rank_roundtrip():
    for n in (2, 3, 4, 6):
        seen = set()
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                r = pair_rank(i, j, n)
                assert pair_unrank(r, n) == (i, j)
                # agrees with the tabloid convention: i on top, j second
                rest = [v for v in range(1, n + 1) if v not in (i, j)]
                rows = [[i], [j], rest] if rest else [[i], [j]]
                assert r == lex_rank(Tabloid(rows))
                seen.add(r)
        assert seen == set(range(n * (n - 1)))


def test_pairs_map_matches_pair_indicator_oracle():
    for n in (3, 4):
        rng = random.Random(n)
        f = ModuleVector(full_ranking_shape(n), [rng.randint(-3, 5) for _ in range(factorial(n))])
        image = pairs_map(f)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    assert image[pair_rank(i, j, n)] == pair_indicator(i, j, n).inner(f)


def test_pairs_map_on_all_ones():
    for n in (3, 4, 5):
        image = pairs_map(ModuleVector.ones(full_ranking_shape(n)))
        assert set(image.to_list()) == {Fraction(factorial(n), 2)}


def test_pairs_rows_sum_to_ones():
    m = pairs_operator(3).matrix()
    a12 = m[pair_rank(1, 2, 3)]
    a21 = m[pair_rank(2, 1, 3)]
    assert [x + y for x, y in zip(a12, a21)] == [1] * 6


def test_pairs_adjoint_identity():
    rng = random.Random(21)
    for n in (3, 4):
        f = ModuleVector(full_ranking_shape(n), [rng.randint(-4, 4) for _ in range(factorial(n))])
        g = ModuleVector(pair_shape(n), [rng.randint(-4, 4) for _ in range(n * (n - 1))])
        assert pairs_map(f).inner(g) == f.inner(pairs_map_adjoint(g))


def test_kemeny_golden_n3():
    p_matrix = pairs_operator(3).matrix()
    k_matrix = kemeny_operator(3).matrix()
    assert k_matrix == linalg.matrix_multiply(linalg.transpose(p_matrix), p_matrix)


def test_kemeny_tie_example():
    result = kemeny_apply(TIE_PROFILE)
    assert result.scores.to_list() == [9, 8, 6, 7, 9, 6]
    assert {str(x) for x in result.winners} == {"1>2>3", "3>1>2"}


def test_kemeny_degenerate_two_candidates():
    f = ModuleVector((1, 1), [3, 1])
    result = kemeny_apply(f)
    assert result.scores.to_list() == [3, 1]
    assert {str(x) for x in result.winners} == {"1>2"}
    assert pairs_map(f).shape == pair_shape(2)


def test_single_ballot_wins_itself():
    for n in (3, 4):
        xs = cached_tabloids((1,) * n)
        for x in (xs[0], xs[3], xs[-1]):
            result = kemeny_apply(ModuleVector.indicator(x))
            assert result.winners == frozenset({x})


def test_kemeny_self_adjoint_and_neutral():
    rng = random.Random(6)
    for n in (3, 4):
        shape = full_ranking_shape(n)
        for _ in range(4):
            f = ModuleVector(shape, [Fraction(rng.randint(-5, 5), rng.choice((1, 2))) for _ in range(factorial(n))])
            g = ModuleVector(shape, [Fraction(rng.randint(-5, 5), rng.choice((1, 2))) for _ in range(factorial(n))])
            assert kemeny_operator_apply(f).inner(g) == f.inner(kemeny_operator_apply(g))
            s = Permutation(rng.sample(range(1, n + 1), n))
            assert kemeny_operator_apply(act_vector(s, f)) == act_vector(s, kemeny_operator_apply(f))


def test_pairs_and_family_neutrality():
    rng = random.Random(62)
    for n in (3, 4):
        shape = full_ranking_shape(n)
        for _ in range(4):
            f = ModuleVector(shape, [rng.randint(0, 6) for _ in range(factorial(n))])
            s = Permutation(rng.sample(range(1, n + 1), n))
            assert pairs_map(act_vector(s, f)) == act_vector(s, pairs_map(f))
            gamma = (2, 3, Fraction(1, 2))
            left = family_apply(gamma, act_vector(s, f)).scores
            right = act_vector(s, family_apply(gamma, f).scores)
            assert left == right


def test_kemeny_columns_are_permutations_of_first():
    for n in (3, 4):
        m = kemeny_operator(n).matrix()
        cols = linalg.transpose(m)
        first = sorted(cols[0])
        for col in cols[1:]:
            assert sorted(col) == first


# ---------------------------------------------------------------------------
# spectral family


def test_family_matches_kemeny_at_kappa():
    for n in (3, 4):
        kappa = specht.kemeny_eigenvalues(n)
        rng = random.Random(n + 40)
        f = ModuleVector(full_ranking_shape(n), [rng.randint(0, 7) for _ in range(factorial(n))])
        fam = family_apply(kappa, f)
        kem = kemeny_apply(f)
        assert fam.scores == kem.scores
    tie = family_apply(specht.kemeny_eigenvalues(3), TIE_PROFILE)
    assert {str(x) for x in tie.winners} == {"1>2>3", "3>1>2"}


def test_family_zero_gamma():
    res = family_apply((0, 0, 0), TIE_PROFILE)
    assert res.scores.is_zero()
    assert len(res.tiers) == 1


def test_family_matches_borda_gram_at_beta():
    beta0, beta1 = specht.borda_gram_eigenvalues(3)
    fam = family_apply((beta0, beta1, 0), TIE_PROFILE)
    b = borda_weights(3)
    direct = voting.tally_adjoint(b, tally_scores(b, TIE_PROFILE))
    assert fam.scores == direct


def test_family_ordinal_depends_only_on_ratio():
    rng = random.Random(77)
    f = ModuleVector(full_ranking_shape(3), [rng.randint(0, 9) for _ in range(6)])
    base = family_apply((0, 1, Fraction(1, 3)), f).ordinal_signature()
    assert family_apply((5, 1, Fraction(1, 3)), f).ordinal_signature() == base
    assert family_apply((-2, 1, Fraction(1, 3)), f).ordinal_signature() == base
    assert family_apply((0, 6, 2), f).ordinal_signature() == base


# ---------------------------------------------------------------------------
# positional rules as ranking scoring functions


def test_borda_srsf_winner_chain():
    result = borda_srsf_apply(borda_weights(3), TIE_PROFILE)
    tally = positional_tally(borda_weights(3), TIE_PROFILE)
    tally_order = sorted(range(1, 4), key=lambda i: tally.scores[i - 1], reverse=True)
    for winner in result.winners:
        ranking = winner.to_ranking()
        assert ranking[0] in tally.winner_candidates()
        scores = [tally.scores[c - 1] for c in ranking]
        assert scores == sorted(scores, reverse=True)
    assert tally_order[0] in {x.to_ranking()[0] for x in result.winners}


def test_borda_srsf_zero_profile():
    res = borda_srsf_apply(borda_weights(3), ModuleVector.zero((1, 1, 1)))
    assert res.scores.is_zero()
    assert len(res.tiers) == 1


def test_borda_rows_are_pair_sums():
    for n in (3, 4):
        b = borda_weights(n)
        t = voting.tally_map(b).matrix()
        for i in range(1, n + 1):
            expected = ModuleVector.zero(full_ranking_shape(n))
            for j in range(1, n + 1):
                if j != i:
                    expected = expected + pair_indicator(i, j, n)
            assert t[i - 1] == expected.to_list()


# ---------------------------------------------------------------------------
# profile construction


def sum_zero_vector(rng, n, span=6):
    vals = [Fraction(rng.randint(-span, span), rng.choice((1, 2, 3))) for _ in range(n)]
    mean = sum(vals, Fraction(0)) / n
    return ModuleVector((1, n - 1), [v - mean for v in vals])


def test_construct_profile_zero_target():
    built = construct_profile([borda_weights(3)], [ModuleVector.zero((1, 2))])
    assert built.solution.is_zero()
    assert built.affine_dimension == 6 - 2


def test_construct_profile_two_rules():
    rng = random.Random(99)
    for n in (3, 4):
        ws = [plurality_weights(n), borda_weights(n)]
        for _ in range(5):
            targets = [sum_zero_vector(rng, n), sum_zero_vector(rng, n)]
            built = construct_profile(ws, targets)
            hats = [w.hat() for w in ws]
            for h, r in zip(hats, targets):
                assert tally_scores(h.to_list(), built.solution) == r
            assert built.affine_dimension == factorial(n) - 2 * (n - 1)


def test_construct_profile_errors():
    b = borda_weights(3)
    with pytest.raises(ValueError):
        construct_profile([b, WeightingVector([4, 2, 0])], [ModuleVector.zero((1, 2))] * 2)
    with pytest.raises(ValueError):
        construct_profile([b], [ModuleVector((1, 2), [1, 0, 0])])
    with pytest.raises(ValueError):
        construct_profile([b], [])
    with pytest.raises(ValueError):
        construct_profile([WeightingVector([0, 0, 0])], [ModuleVector.zero((1, 2))])


def test_construct_profile_integer_representative():
    rng = random.Random(4)
    targets = [sum_zero_vector(rng, 3)]
    built = construct_profile([borda_weights(3)], targets, integer_profile=True)
    values = built.solution.to_list()
    assert all(v.denominator == 1 and v >= 0 for v in values)
    # the scaled profile tallies to scale * target
    got = tally_scores(borda_weights(3).hat().to_list(), built.solution)
    assert got == targets[0] * built.scale
    Profile(built.solution)  # must be a genuine profile
    with pytest.raises(InfeasibleError):
        construct_profile([borda_weights(3)], targets, integer_profile=True, shift_bound=0)


def test_construct_profile_rejects_negative_shift_bound():
    targets = [sum_zero_vector(random.Random(4), 3)]
    with pytest.raises(ValueError, match="shift bound"):
        construct_profile([borda_weights(3)], targets, integer_profile=True, shift_bound=-1)


def test_ordinal_agreement_iff_equivalent():
    # same tiers for equivalent schedules, on assorted profiles
    rng = random.Random(15)
    w = borda_weights(3)
    w_eq = WeightingVector([5, 3, 1], allow_unsorted=True)
    for _ in range(10):
        f = ModuleVector((1, 1, 1), [rng.randint(0, 8) for _ in range(6)])
        assert positional_tally(w, f).ordinal_signature() == positional_tally(w_eq, f).ordinal_signature()

    # non-equivalent schedules are separated by a constructed profile
    ws = [plurality_weights(3), borda_weights(3)]
    up = ModuleVector((1, 2), [1, 0, -1])
    down = ModuleVector((1, 2), [-1, 0, 1])
    built = construct_profile(ws, [up, down])
    a = positional_tally(ws[0].hat().to_list(), built.solution)
    b = positional_tally(ws[1].hat().to_list(), built.solution)
    assert a.ordinal_signature() != b.ordinal_signature()
    assert a.winner_candidates() == (1,)
    assert b.winner_candidates() == (3,)


def test_borda_kemeny_separation_sample():
    # quick randomized version of the full acceptance property
    rng = random.Random(314)
    for _ in range(100):
        profile = random_profile(rng, 3, 999)
        borda = tally_scores(borda_weights(3), profile)
        for winner in kemeny_apply(profile).winners:
            ranking = winner.to_ranking()
            assert borda[ranking[0] - 1] > borda[ranking[-1] - 1]


# ---------------------------------------------------------------------------
# file formats


def test_profile_json_parsing():
    data = {
        "n": 3,
        "shape": [1, 1, 1],
        "ballots": [
            {"ranking": [[1], [2], [3]], "count": 2},
            {"ranking": [[3], [1], [2]], "count": 2},
            {"ranking": [[2], [3], [1]], "count": 1},
        ],
    }
    p = profile_from_json_dict(data)
    assert p.counts == TIE_PROFILE
    assert p.voter_total == 5
    with pytest.raises(ValueError):
        profile_from_json_dict({"n": 3, "ballots": [{"count": 1}]})
    with pytest.raises(ShapeMismatchError):
        profile_from_json_dict({"n": 3, "shape": [1, 1], "ballots": []})
    with pytest.raises(ValueError):
        profile_from_json_dict(
            {"n": 3, "ballots": [{"ranking": [[1], [2], [3]], "count": -1}]}
        )


def test_profile_csv_parsing():
    text = "1>2>3,2\n3>1>2,2\n\n2>3>1,1\n"
    p = profile_from_csv(text)
    assert p.counts == TIE_PROFILE
    with pytest.raises(ValueError):
        profile_from_csv("1>2>3\n")
    with pytest.raises(ValueError):
        profile_from_csv("", n=None)
    assert profile_from_csv("", n=3).voter_total == 0


def test_weighting_json_parsing():
    w = weighting_from_json_dict({"weights": ["1", "1/2", "0"]})
    assert w.weights == (1, Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        weighting_from_json_dict({})


def test_profile_validation():
    with pytest.raises(ValueError):
        Profile(ModuleVector((1, 1, 1), [1, -1, 0, 0, 0, 0]))
    with pytest.raises(ValueError):
        Profile(ModuleVector((1, 1, 1), [Fraction(1, 2), 0, 0, 0, 0, 0]))
    p = Profile.from_ballots((1, 1, 1), [(Tabloid.from_ranking((1, 2, 3)), 2), ([[1], [2], [3]], 1)])
    assert p.counts[0] == 3


@pytest.mark.parametrize("count", [2.7, Fraction(3, 2), True, -3], ids=repr)
def test_from_ballots_refuses_counts_that_are_not_nonnegative_ints(count):
    x = Tabloid.from_ranking((2, 1, 3))
    with pytest.raises(ValueError, match=r"ballot #1: count .* is not a nonnegative integer"):
        Profile.from_ballots((1, 1, 1), [(x, 5), (x, count)])
