"""Isotypic dimensions, mean/deviation splitting, and spectral projections.

The three irreducible families that matter here are the trivial component,
the (n-1)-dimensional "deviation" component, and the hook component of shape
(n-2,1,1) that carries the extra pairwise information the Kemeny operator
sees beyond Borda scores.  Projections onto the latter two are built from
operator identities (never from explicit tableau bases), so they stay
matrix-free and work at any n where the operators themselves do.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from . import linalg
from .core import (
    CapacityError,
    Composition,
    ModuleVector,
    ShapeLike,
    ShapeMismatchError,
    as_composition,
    as_fraction,
    full_ranking_shape,
    linear_combination,
)

__all__ = [
    "MATERIALIZE_LIMIT",
    "IsotypicLabel",
    "LinearMap",
    "two_row_dim",
    "hook_dim",
    "isotypic_dimension",
    "project_mean",
    "kemeny_eigenvalues",
    "borda_gram_eigenvalues",
    "kemeny_eigenprojections",
    "spectral_components",
    "effective_space",
    "subspaces_equal",
    "subspaces_intersect_trivially",
    "subspace_dim",
]

#: Largest domain dimension for which operators may be materialized.
MATERIALIZE_LIMIT = 5040


@dataclass(frozen=True)
class IsotypicLabel:
    """Names one irreducible constituent, optionally inside a coalition level.

    Only the constituents this library projects onto are accepted: the
    two-row shapes (n-j, j) and the hook (n-2, 1, 1).
    """

    partition: tuple
    level: int | None = None

    def __post_init__(self):
        p = tuple(int(v) for v in self.partition)
        object.__setattr__(self, "partition", p)
        if not p or any(v < 1 for v in p) or list(p) != sorted(p, reverse=True):
            raise ValueError(f"not a partition: {p}")
        n = sum(p)
        two_row = len(p) <= 2
        hook = len(p) == 3 and p == (n - 2, 1, 1)
        if not (two_row or hook):
            raise ValueError(f"unsupported constituent shape: {p}")

    @property
    def n(self) -> int:
        return sum(self.partition)

    def dimension(self) -> int:
        return isotypic_dimension(self)


def two_row_dim(n: int, j: int) -> int:
    """dim of the two-row constituent (n-j, j): C(n,j) - C(n,j-1)."""
    if not 0 <= 2 * j <= n:
        raise ValueError(f"need 0 <= j <= n/2, got j={j}, n={n}")
    return comb(n, j) - (comb(n, j - 1) if j >= 1 else 0)


def hook_dim(n: int) -> int:
    """dim of the hook constituent (n-2, 1, 1)."""
    if n < 3:
        raise ValueError("hook constituent needs n >= 3")
    return (n - 1) * (n - 2) // 2


def isotypic_dimension(label: IsotypicLabel) -> int:
    p = label.partition
    n = sum(p)
    if len(p) == 3:
        return hook_dim(n)
    j = p[1] if len(p) == 2 else 0
    return two_row_dim(n, j)


def project_mean(f: ModuleVector) -> tuple:
    """Split a per-candidate vector into (constant part, sum-zero part).

    The two parts are orthogonal and add back to f; the constant part holds
    the mean value, the deviation part the relative standings.
    """
    parts = f.shape.parts
    if len(parts) != 2 or parts[0] != 1:
        raise ShapeMismatchError(
            f"mean/deviation split expects shape (1, n-1), got {parts}"
        )
    const = _t0(f)
    return const, f - const


class LinearMap:
    """A linear map between tabloid spaces, explicit or matrix-free.

    Either `rows` (codomain-indexed rows over domain ranks) or an `apply_fn`
    must be given.  An adjoint applier may accompany a matrix-free map; for
    explicit matrices the adjoint is the transpose.
    """

    def __init__(self, domain: ShapeLike, codomain: ShapeLike, apply_fn=None,
                 adjoint_fn=None, rows=None, name: str = ""):
        self.domain = as_composition(domain)
        self.codomain = as_composition(codomain)
        self.name = name
        self._apply = apply_fn
        self._adjoint = adjoint_fn
        self._rows = None
        if rows is not None:
            rows = [tuple(as_fraction(v) for v in r) for r in rows]
            if len(rows) != self.codomain.tabloid_count() or (
                rows and len(rows[0]) != self.domain.tabloid_count()
            ):
                raise ShapeMismatchError("matrix dimensions do not match shapes")
            self._rows = rows
        if self._apply is None and self._rows is None:
            raise ValueError("need an applier or an explicit matrix")

    @classmethod
    def from_matrix(cls, domain, codomain, rows, name=""):
        return cls(domain, codomain, rows=rows, name=name)

    def __call__(self, f: ModuleVector) -> ModuleVector:
        if f.shape != self.domain:
            raise ShapeMismatchError(
                f"map expects domain {self.domain.parts}, got {f.shape.parts}"
            )
        if self._apply is not None:
            return self._apply(f)
        out = [Fraction(0)] * self.codomain.tabloid_count()
        for j, val in f.support():
            for i, row in enumerate(self._rows):
                if row[j]:
                    out[i] += row[j] * val
        return ModuleVector(self.codomain, out)

    apply = __call__

    def adjoint(self) -> "LinearMap":
        if self._adjoint is not None:
            return LinearMap(self.codomain, self.domain, self._adjoint,
                             self._apply, name=self.name + "*")
        return LinearMap(self.codomain, self.domain,
                         rows=linalg.transpose(self.matrix()),
                         name=self.name + "*")

    def compose(self, inner: "LinearMap") -> "LinearMap":
        if inner.codomain != self.domain:
            raise ShapeMismatchError("composition shapes do not chain")
        outer = self
        return LinearMap(
            inner.domain, outer.codomain,
            lambda f: outer(inner(f)),
            lambda g: inner.adjoint()(outer.adjoint()(g)),
            name=f"{outer.name}after{inner.name}" if outer.name or inner.name else "",
        )

    def matrix(self, limit: int | None = None) -> list:
        """Materialize (and cache) the explicit matrix, codomain x domain."""
        if self._rows is not None:
            return [list(r) for r in self._rows]
        cap = MATERIALIZE_LIMIT if limit is None else limit
        dim = self.domain.tabloid_count()
        if dim > cap:
            raise CapacityError(
                f"domain dimension {dim} exceeds materialization limit {cap}"
            )
        cols = []
        for r in range(dim):
            cols.append(self(ModuleVector(self.domain, {r: 1})).to_list())
        self._rows = [tuple(col[i] for col in cols)
                      for i in range(self.codomain.tabloid_count())]
        return [list(r) for r in self._rows]

    def rank(self, limit: int | None = None) -> int:
        return linalg.rank(self.matrix(limit))

    def __repr__(self):
        kind = "matrix" if self._rows is not None else "matrix-free"
        label = f" {self.name!r}" if self.name else ""
        return (f"LinearMap{label}({self.domain.parts} -> "
                f"{self.codomain.parts}, {kind})")


def kemeny_eigenvalues(n: int) -> tuple:
    """Nonzero eigenvalues of the pairwise-agreement operator on rankings.

    Three values for n >= 3; for n = 2 the third eigenspace is absent and
    only two are returned.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    k0 = Fraction(factorial(n), 2) * comb(n, 2)
    k1 = Fraction(factorial(n + 1), 6)
    if n == 2:
        return (k0, k1)
    return (k0, k1, Fraction(factorial(n), 6))


def borda_gram_eigenvalues(n: int) -> tuple:
    """Nonzero eigenvalues of the Borda tally composed with its adjoint."""
    if n < 2:
        raise ValueError("need n >= 2")
    b0 = Fraction((n - 1) * factorial(n), 2) * comb(n, 2)
    b1 = Fraction(n * factorial(n + 1), 12)
    return (b0, b1)


def _t0(f: ModuleVector) -> ModuleVector:
    return ModuleVector.constant(f.shape, f.sum_values() / f.size)


def _t1(f: ModuleVector, t0f: ModuleVector) -> ModuleVector:
    """T1 f = (B*B f - beta0 T0 f) / beta1, with one Borda Gram application B*B."""
    from . import voting

    borda = voting.borda_weights(f.shape.n)
    beta0, beta1 = borda_gram_eigenvalues(f.shape.n)
    gram = voting.tally_adjoint(borda, voting.tally_scores(borda, f))
    return linear_combination(f.shape, [(1 / beta1, gram), (-beta0 / beta1, t0f)])


def spectral_components(f: ModuleVector) -> tuple:
    """(T0 f, T1 f, T2 f): f split over the eigenspaces of the Kemeny operator K.

    Applies the Borda Gram operator once and K once, T2 f being
    (K f - k0 T0 f - k1 T1 f) / k2.  For n = 2 only (T0 f, T1 f) exist.
    """
    from . import voting

    n = f.shape.n
    if n < 2:
        raise ValueError("need n >= 2")
    if not f.shape.is_full_ranking():
        raise ShapeMismatchError(f"need full rankings, got shape {f.shape.parts}")
    t0f = _t0(f)
    t1f = _t1(f, t0f)
    if n == 2:
        return (t0f, t1f)
    k0, k1, k2 = kemeny_eigenvalues(n)
    terms = [(1 / k2, voting.kemeny_operator_apply(f)), (-k0 / k2, t0f), (-k1 / k2, t1f)]
    return (t0f, t1f, linear_combination(f.shape, terms))


@lru_cache(maxsize=32)
def kemeny_eigenprojections(n: int) -> tuple:
    """Orthogonal projections onto the eigenspaces of the Kemeny operator.

    Returns (T0, T1, T2) of self-adjoint idempotent LinearMaps on the
    full-ranking space: T0 projects onto constants, T1 onto the Borda-visible
    deviation component, T2 onto the extra pairwise component.  For n = 2
    only (T0, T1) exist.  All three are built matrix-free from the tally and
    pairs operators, so they scale to any n those operators handle; for all
    components of one vector, spectral_components shares the work.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    shape = full_ranking_shape(n)
    applies = (_t0, lambda f: _t1(f, _t0(f)), lambda f: spectral_components(f)[2])
    return tuple(LinearMap(shape, shape, fn, fn, name=f"T{i}")
                 for i, fn in enumerate(applies[: 2 if n == 2 else 3]))


# ---------------------------------------------------------------------------
# Effective spaces


def effective_space(t: LinearMap, limit: int | None = None) -> list:
    """An exact basis of the orthogonal complement of ker t.

    Computed as the row space of the materialized matrix; requires the domain
    to be small enough to materialize.  Basis vectors live on t.domain.
    """
    rows = t.matrix(limit)
    return [ModuleVector(t.domain, row) for row in linalg.row_basis(rows)]


def _stack(basis: list) -> list:
    return [v.to_list() for v in basis]


def _common_shape(a: list, b: list) -> Composition:
    vecs = list(a) + list(b)
    if not vecs:
        raise ValueError("cannot compare two empty bases without a shape")
    shape = vecs[0].shape
    if any(v.shape != shape for v in vecs):
        raise ShapeMismatchError("basis vectors live on different shapes")
    return shape


def subspace_dim(basis: list) -> int:
    if not basis:
        return 0
    return linalg.rank(_stack(basis))


def subspaces_equal(basis_a: list, basis_b: list) -> bool:
    if not basis_a and not basis_b:
        return True
    if not basis_a or not basis_b:
        return subspace_dim(basis_a) == subspace_dim(basis_b) == 0
    _common_shape(basis_a, basis_b)
    ra = subspace_dim(basis_a)
    rb = subspace_dim(basis_b)
    rab = linalg.rank(_stack(basis_a) + _stack(basis_b))
    return ra == rb == rab


def subspaces_intersect_trivially(basis_a: list, basis_b: list) -> bool:
    if not basis_a or not basis_b:
        return True
    _common_shape(basis_a, basis_b)
    ra = subspace_dim(basis_a)
    rb = subspace_dim(basis_b)
    rab = linalg.rank(_stack(basis_a) + _stack(basis_b))
    return rab == ra + rb
