"""Exact-arithmetic voting and cooperative-game analysis on tabloid spaces.

The package is organized around rational-valued functions on tabloids
(ordered set partitions of {1..n}):

- ``core``: tabloids, lexicographic rank/unrank, the relabeling action,
  and exact vector arithmetic;
- ``linalg``: fraction-free elimination (rank, row bases, solving);
- ``specht``: isotypic dimensions, mean/deviation splits, spectral
  projections, effective spaces;
- ``voting``: positional tallies, ranking scoring functions, the pairs map
  and Kemeny rule, profile construction;
- ``games``: cooperative games, level decompositions, and linear symmetric
  solution concepts including the Shapley value;
- ``cli``: batch commands over the JSON/CSV file formats.
"""

from .core import (
    CapacityError,
    Composition,
    InfeasibleError,
    ModuleVector,
    Permutation,
    ShapeMismatchError,
    Tabloid,
    act_tabloid,
    act_vector,
    as_composition,
    enumerate_tabloids,
    from_group_algebra,
    inner_product,
    lex_rank,
    linear_combination,
    to_group_algebra,
    unrank,
)
from .specht import (
    IsotypicLabel,
    LinearMap,
    borda_gram_eigenvalues,
    effective_space,
    kemeny_eigenvalues,
    kemeny_eigenprojections,
    project_mean,
    subspaces_equal,
    subspaces_intersect_trivially,
    two_row_dim,
)
from .voting import (
    ConstructedProfile,
    Profile,
    RankingScores,
    WeightingVector,
    antiplurality_weights,
    borda_srsf_apply,
    borda_weights,
    construct_profile,
    family_apply,
    kemeny_apply,
    kendall_tau,
    pairs_map,
    pairs_map_adjoint,
    plurality_weights,
    positional_tally,
    srsf_apply,
    weighting_equivalent,
)
from .games import (
    Game,
    MarginalWeights,
    SolutionCoefficients,
    decompose_game,
    dual_game,
    efficiency_check,
    level_average,
    marginal_apply,
    marginal_to_coefficients,
    self_dual_check,
    shapley_coefficients,
    shapley_value,
    solution_apply,
    t0k_apply,
    t1k_apply,
)

__version__ = "0.1.0"
