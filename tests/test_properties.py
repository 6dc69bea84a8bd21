"""Property tests: linearity of the combination kernel, norms and sums, and adjointness."""

from fractions import Fraction

import pytest

from tabloids import voting
from tabloids.core import (
    ModuleVector,
    as_composition,
    candidate_shape,
    full_ranking_shape,
    linear_combination,
    pair_shape,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given

PROPERTY = hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=5040)
SHAPES = [(1, 1), (1, 1, 1), (1, 2), (2, 2), (1, 1, 2), (1, 1, 1, 1)]


def vectors(shape):
    shape = as_composition(shape)
    size = shape.tabloid_count()
    return st.dictionaries(st.integers(0, size - 1), rationals, max_size=size).map(
        lambda values: ModuleVector(shape, values)
    )


@st.composite
def vector_pairs(draw):
    shape = draw(st.sampled_from(SHAPES))
    return draw(vectors(shape)), draw(vectors(shape))


@PROPERTY
@given(vector_pairs(), rationals, rationals)
def test_linear_combination_is_linear(pair, a, b):
    u, v = pair
    got = linear_combination(u.shape, [(a, u), (b, v)])
    assert got.to_list() == [a * x + b * y for x, y in zip(u.to_list(), v.to_list())]
    assert got == linear_combination(u.shape, [(a, u)]) + linear_combination(u.shape, [(b, v)])
    assert linear_combination(u.shape, [(a, u + v)]) == linear_combination(u.shape, [(a, u), (a, v)])


@PROPERTY
@given(st.sampled_from(SHAPES).flatmap(vectors))
def test_norm2_is_the_inner_product_with_itself(v):
    assert v.norm2() == v.inner(v) == sum((x * x for x in v.to_list()), Fraction(0))


@PROPERTY
@given(st.sampled_from(SHAPES).flatmap(vectors))
def test_sum_values_is_the_fraction_sum(v):
    assert v.sum_values() == sum(v.to_list(), Fraction(0))


@st.composite
def tally_cases(draw):
    n = draw(st.integers(2, 5))
    weights = draw(st.lists(rationals, min_size=n, max_size=n))
    return weights, draw(vectors(full_ranking_shape(n))), draw(vectors(candidate_shape(n)))


@PROPERTY
@given(tally_cases())
def test_tally_is_adjoint_to_tally_adjoint(case):
    weights, f, g = case
    shape = f.shape
    assert voting.tally_scores(weights, f).inner(g) == f.inner(
        voting.tally_adjoint(weights, g, shape)
    )


@st.composite
def pairs_cases(draw):
    n = draw(st.integers(2, 5))
    return draw(vectors(full_ranking_shape(n))), draw(vectors(pair_shape(n)))


@PROPERTY
@given(pairs_cases())
def test_pairs_map_is_adjoint_to_pairs_map_adjoint(case):
    f, g = case
    assert voting.pairs_map(f).inner(g) == f.inner(voting.pairs_map_adjoint(g))
