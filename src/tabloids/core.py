"""Tabloid combinatorics and exact arithmetic on tabloid-indexed spaces.

A tabloid is an ordered set partition of {1..n} whose row sizes are given by
a composition of n.  Full rankings, single candidates, ordered pairs, and
coalitions are all tabloids of suitable shapes, so everything downstream
(ballot profiles, score vectors, pairwise tallies, game levels) is a
rational-valued function on a tabloid set.  This module supplies the index
objects, their rank/unrank, the relabeling action, and exact vectors: one
dict of nonzero `Fraction`s each, combined only by `linear_combination`.
No floating point is used anywhere."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, permutations
from math import comb, gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence, Union

__all__ = [
    "CapacityError",
    "ShapeMismatchError",
    "InfeasibleError",
    "Composition",
    "Tabloid",
    "Permutation",
    "ModuleVector",
    "linear_combination",
    "ENUMERATION_LIMIT",
    "as_composition",
    "as_fraction",
    "parse_rational",
    "format_rational",
    "expect_json",
    "enumerate_tabloids",
    "iter_words",
    "lex_rank",
    "unrank",
    "unrank_word",
    "act_tabloid",
    "act_vector",
    "inner_product",
    "to_group_algebra",
    "from_group_algebra",
    "sort_rows_to_partition",
    "row_sort_bijection",
]

#: Refuse to enumerate tabloid sets larger than this (see enumerate_tabloids).
ENUMERATION_LIMIT = 10_000_000


class CapacityError(RuntimeError):
    """An index set is too large to materialize under the configured limit."""


class ShapeMismatchError(ValueError):
    """Operands live on incompatible tabloid shapes or player counts."""


class InfeasibleError(RuntimeError):
    """A requested post-processing step has no solution within its bounds."""


Rational = Union[int, Fraction]


def as_fraction(value) -> Fraction:
    """Coerce int/Fraction (or a rational string) to Fraction, rejecting floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def parse_rational(text) -> Fraction:
    """Parse "p/q" or "p" (also bare ints) into a Fraction."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"cannot parse rational from {text!r}")
    s = text.strip()
    try:
        if "/" in s:
            p, q = s.split("/")
            den = int(q)
            if den == 0:
                raise ValueError
            return Fraction(int(p), den)
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse rational from {text!r}") from None


_JSON_KINDS = {int: "an integer", list: "a list", dict: "an object"}


def expect_json(value, kind: type, what: str):
    """Return a value read from JSON if it is of the given kind (int, list or dict).

    Anything else raises ValueError naming `what`; booleans are not integers.
    """
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def format_rational(value: Fraction):
    """Render a Fraction for JSON: bare int when integral, else "p/q"."""
    f = as_fraction(value)
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


class Composition:
    """An ordered list of positive row sizes summing to n."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        parts = tuple(int(p) for p in parts)
        if not parts or any(p < 1 for p in parts):
            raise ValueError(f"composition parts must be positive: {parts}")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Composition is immutable")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def sorted(self) -> "Composition":
        """The partition obtained by reordering parts non-increasingly."""
        return Composition(sorted(self.parts, reverse=True))

    def is_partition(self) -> bool:
        return all(a >= b for a, b in zip(self.parts, self.parts[1:]))

    def is_full_ranking(self) -> bool:
        return all(p == 1 for p in self.parts)

    def tabloid_count(self) -> int:
        """|X^shape| = n! / (prod of part factorials)."""
        return _suffix_counts(self.parts)[0]

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Composition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Composition{self.parts}"


ShapeLike = Union[Composition, Iterable[int]]


def as_composition(shape: ShapeLike) -> Composition:
    if isinstance(shape, Composition):
        return shape
    return Composition(shape)


def full_ranking_shape(n: int) -> Composition:
    return Composition((1,) * n)


def candidate_shape(n: int) -> Composition:
    """Shape (1, n-1): one tabloid per candidate (the one on top)."""
    if n < 2:
        raise ValueError("candidate shape needs n >= 2")
    return Composition((1, n - 1))


def pair_shape(n: int) -> Composition:
    """Shape indexing ordered candidate pairs: (1,1,n-2), or (1,1) at n=2."""
    if n < 2:
        raise ValueError("pair shape needs n >= 2")
    if n == 2:
        return Composition((1, 1))
    return Composition((1, 1, n - 2))


class Tabloid:
    """An ordered set partition of {1..n}; rows are stored sorted ascending."""

    __slots__ = ("rows", "shape")

    def __init__(self, rows: Iterable[Iterable[int]]):
        canon = tuple(tuple(sorted(int(e) for e in row)) for row in rows)
        shape = Composition(len(row) for row in canon)
        n = shape.n
        seen = [e for row in canon for e in row]
        if sorted(seen) != list(range(1, n + 1)):
            raise ValueError(f"rows must partition 1..{n}: {canon}")
        object.__setattr__(self, "rows", canon)
        object.__setattr__(self, "shape", shape)

    def __setattr__(self, name, value):
        raise AttributeError("Tabloid is immutable")

    @classmethod
    def from_ranking(cls, order: Sequence[int]) -> "Tabloid":
        """Full-ranking tabloid with order[0] on top."""
        return cls([e] for e in order)

    @classmethod
    def first(cls, shape: ShapeLike) -> "Tabloid":
        """The lexicographically first tabloid: 1..n filled row by row."""
        shape = as_composition(shape)
        return _tabloid(shape.parts, range(1, shape.n + 1))

    @property
    def n(self) -> int:
        return self.shape.n

    def word(self) -> tuple:
        """Row entries concatenated top to bottom (each row ascending)."""
        return tuple(e for row in self.rows for e in row)

    def to_ranking(self) -> tuple:
        if not self.shape.is_full_ranking():
            raise ShapeMismatchError("not a full-ranking tabloid")
        return tuple(row[0] for row in self.rows)

    def row_of(self, element: int) -> int:
        """0-based index of the row containing element."""
        for i, row in enumerate(self.rows):
            if element in row:
                return i
        raise ValueError(f"{element} not in tabloid")

    def row_index(self) -> dict:
        """element -> 0-based row index, for repeated lookups."""
        return {e: i for i, row in enumerate(self.rows) for e in row}

    def __eq__(self, other):
        return isinstance(other, Tabloid) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __lt__(self, other):
        if self.shape != other.shape:
            raise ShapeMismatchError("cannot compare tabloids of different shapes")
        return self.word() < other.word()

    def __repr__(self):
        return "Tabloid[%s]" % " | ".join(" ".join(map(str, row)) for row in self.rows)

    def __str__(self):
        return _format_word(self.shape.parts, self.word())


class Permutation:
    """A bijection on {1..n}, stored as the image tuple (images[i-1] = sigma(i))."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(int(v) for v in images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection on 1..{len(images)}: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        images = list(range(1, n + 1))
        images[a - 1], images[b - 1] = b, a
        return cls(images)

    @classmethod
    def all(cls, n: int) -> Iterator["Permutation"]:
        """All n! permutations in lexicographic order of their image words."""
        for word in permutations(range(1, n + 1)):
            yield cls(word)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise ShapeMismatchError("permutation sizes differ")
        return Permutation(self.images[other.images[i] - 1] for i in range(self.n))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.images):
            inv[img - 1] = i + 1
        return Permutation(inv)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation{self.images}"


# ---------------------------------------------------------------------------
# Enumeration and lexicographic ranking


@lru_cache(maxsize=256)
def _suffix_counts(parts: tuple) -> tuple:
    """The tabloid count of every suffix shape parts[i:], i = 0..len(parts)."""
    counts, size = [1], 0
    for p in reversed(parts):
        size += p
        counts.append(counts[-1] * comb(size, p))
    return tuple(reversed(counts))


def _tabloid(parts: Sequence[int], word: Sequence[int]) -> Tabloid:
    """The tabloid whose rows, read top to bottom, spell `word`."""
    return Tabloid(word[end - p : end] for p, end in zip(parts, accumulate(parts)))


def _format_word(parts: Sequence[int], word: Sequence[int]) -> str:
    """The printed form of a tabloid: "2>1>3" for a full ranking, else rows joined by " | "."""
    if len(parts) == len(word):
        return ">".join(map(str, word))
    rows = (word[end - p : end] for p, end in zip(parts, accumulate(parts)))
    return " | ".join(" ".join(map(str, row)) for row in rows)


def _rest_words(avail: tuple, parts: tuple) -> Iterator[tuple]:
    if len(parts) == 1:
        yield avail
        return
    for head in combinations(avail, parts[0]):
        rest = tuple(v for v in avail if v not in head)
        yield from (head + tail for tail in _rest_words(rest, parts[1:]))


def iter_words(shape: ShapeLike, limit: int | None = None) -> Iterator[tuple]:
    """The word of every tabloid of the shape, in lexicographic rank order.

    A word is the rows, each ascending, read top to bottom; words compare
    lexicographically, so the first is 1..n.  Raises CapacityError at once
    if the count exceeds `limit` (default ENUMERATION_LIMIT).
    """
    shape = as_composition(shape)
    cap = ENUMERATION_LIMIT if limit is None else limit
    count = shape.tabloid_count()
    if count > cap:
        raise CapacityError(
            f"|X^{shape.parts}| = {count} exceeds enumeration limit {cap}"
        )
    if shape.is_full_ranking():
        return permutations(range(1, shape.n + 1))
    return _rest_words(tuple(range(1, shape.n + 1)), shape.parts)


def enumerate_tabloids(shape: ShapeLike, limit: int | None = None) -> list:
    """All tabloids of the shape, in the lexicographic order of iter_words.

    Raises CapacityError if the count exceeds `limit` (default
    ENUMERATION_LIMIT).
    """
    shape = as_composition(shape)
    return [_tabloid(shape.parts, word) for word in iter_words(shape, limit)]


def _combination_rank(avail: Sequence[int], subset: Sequence[int]) -> int:
    """Lex rank of `subset` among k-subsets of the sorted pool `avail`."""
    a, k = len(avail), len(subset)
    pos = {v: i for i, v in enumerate(avail)}
    rank, prev = 0, -1
    for t, s in enumerate(sorted(subset)):
        p = pos[s]
        for q in range(prev + 1, p):
            rank += comb(a - q - 1, k - t - 1)
        prev = p
    return rank


def _combination_unrank(avail: Sequence[int], k: int, rank: int) -> tuple:
    out, q, a = [], 0, len(avail)
    for t in range(k):
        # skip the subsets whose t-th element is avail[q]
        while rank >= (c := comb(a - q - 1, k - t - 1)):
            rank -= c
            q += 1
        out.append(avail[q])
        q += 1
    return tuple(out)


def _word_rank(parts: tuple, word: Sequence[int]) -> int:
    """Lex rank of the tabloid whose rows, each in any order, spell `word` top to bottom."""
    avail = list(range(1, len(word) + 1))
    rank = 0
    for k, end, below in zip(parts, accumulate(parts), _suffix_counts(parts)[1:]):
        row = word[end - k : end]
        # a one-element row is ranked by its position among the remaining entries
        rank += (avail.index(row[0]) if k == 1 else _combination_rank(avail, row)) * below
        for e in row:
            avail.remove(e)
    return rank


def lex_rank(x: Tabloid) -> int:
    """Position of x in the lexicographic listing of its shape (0-based)."""
    return _word_rank(x.shape.parts, x.word())


def unrank_word(shape: ShapeLike, rank: int) -> tuple:
    """The word (rows concatenated top to bottom) of the tabloid at `rank`."""
    parts = as_composition(shape).parts
    counts = _suffix_counts(parts)
    if not 0 <= rank < counts[0]:
        raise ValueError(f"rank {rank} out of range for |X^{parts}| = {counts[0]}")
    avail = list(range(1, sum(parts) + 1))
    word = []
    for k, below in zip(parts, counts[1:]):
        c, rank = divmod(rank, below)
        if k == 1:
            word.append(avail.pop(c))
            continue
        row = _combination_unrank(avail, k, c)
        word.extend(row)
        avail = [v for v in avail if v not in row]
    return tuple(word)


def unrank(shape: ShapeLike, rank: int) -> Tabloid:
    """Inverse of lex_rank for the given shape."""
    return _tabloid(as_composition(shape).parts, unrank_word(shape, rank))


# ---------------------------------------------------------------------------
# Group action


def act_tabloid(sigma: Permutation, x: Tabloid) -> Tabloid:
    """Apply sigma to every entry of x; row structure is preserved."""
    if sigma.n != x.n:
        raise ShapeMismatchError(f"permutation on {sigma.n} symbols, tabloid on {x.n}")
    return Tabloid((sigma(e) for e in row) for row in x.rows)


def sort_rows_to_partition(x: Tabloid) -> Tabloid:
    """Reorder rows by non-increasing size (stable), landing in X^(sorted shape)."""
    order = sorted(range(len(x.rows)), key=lambda i: (-len(x.rows[i]), i))
    return Tabloid(x.rows[i] for i in order)


def row_sort_bijection(shape: ShapeLike, limit: int | None = None) -> list:
    """rank-to-rank table of the row-sorting bijection X^shape -> X^(sorted shape)."""
    shape = as_composition(shape)
    return [lex_rank(sort_rows_to_partition(x)) for x in enumerate_tabloids(shape, limit)]


# ---------------------------------------------------------------------------
# Module vectors


def _scaled(values) -> tuple:
    """(d, [v * d for v in values]) with d the lcm of the denominators."""
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def _combine(terms) -> dict:
    """The nonzero entries of the sum of c * values over (rational c, {key: Fraction}) pairs.

    Entry by entry on integer numerator/denominator pairs: numerators add where
    the denominators agree, else both go over their lcm; each entry becomes a
    Fraction once.  (One lcm for a whole vector would blow up every entry.)
    """
    acc: dict = {}
    for c, values in terms:
        cn, cd = c.numerator, c.denominator
        if not cn:
            continue
        for key, v in values.items():
            num, den = v.numerator * cn, v.denominator * cd
            old = acc.get(key)
            if old is None:
                acc[key] = (num, den)
            elif old[1] == den:
                acc[key] = (old[0] + num, den)
            else:
                g = gcd(old[1], den)
                acc[key] = (old[0] * (den // g) + num * (old[1] // g), old[1] // g * den)
    return {key: Fraction(num, den) for key, (num, den) in acc.items() if num}


class ModuleVector:
    """An exact rational-valued function on the tabloids of one shape.

    Values are addressed by lexicographic rank and stored as one dict of the
    nonzero entries.  Instances are immutable and all arithmetic is exact;
    every sum and multiple is one pass of linear_combination.
    """

    __slots__ = ("shape", "size", "_values")

    def __init__(self, shape: ShapeLike, values=None):
        shape = as_composition(shape)
        size = shape.tabloid_count()
        if values is None:
            items = ()
        elif isinstance(values, Mapping):
            items = values.items()
        else:
            items = list(values)
            if len(items) != size:
                raise ShapeMismatchError(
                    f"expected {size} values for shape {shape.parts}, got {len(items)}"
                )
            items = enumerate(items)
        entries: dict = {}
        for rank, val in items:
            r = int(rank)
            if not 0 <= r < size:
                raise ValueError(f"rank {r} out of range for shape {shape.parts}")
            f = as_fraction(val)
            if f:
                entries[r] = f
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "_values", entries)

    def __setattr__(self, name, value):
        raise AttributeError("ModuleVector is immutable")

    # -- constructors

    @classmethod
    def zero(cls, shape: ShapeLike) -> "ModuleVector":
        return cls(shape)

    @classmethod
    def constant(cls, shape: ShapeLike, value) -> "ModuleVector":
        shape = as_composition(shape)
        f = as_fraction(value)
        return cls(shape, {r: f for r in range(shape.tabloid_count())} if f else None)

    @classmethod
    def ones(cls, shape: ShapeLike) -> "ModuleVector":
        return cls.constant(shape, 1)

    @classmethod
    def indicator(cls, x: Tabloid) -> "ModuleVector":
        return cls(x.shape, {lex_rank(x): Fraction(1)})

    # -- access

    def __getitem__(self, rank: int) -> Fraction:
        if not 0 <= rank < self.size:
            raise IndexError(rank)
        return self._values.get(rank, Fraction(0))

    def at(self, x: Tabloid) -> Fraction:
        if x.shape != self.shape:
            raise ShapeMismatchError("tabloid shape does not match vector shape")
        return self[lex_rank(x)]

    def support(self) -> list:
        """Sorted (rank, value) pairs over the nonzero entries."""
        return sorted(self._values.items())

    def to_list(self) -> list:
        out = [Fraction(0)] * self.size
        for r, v in self._values.items():
            out[r] = v
        return out

    def nonzero_count(self) -> int:
        return len(self._values)

    def is_zero(self) -> bool:
        return not self._values

    def sum_values(self) -> Fraction:
        d, nums = _scaled(self._values.values())
        return Fraction(sum(nums), d)

    # -- arithmetic

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        return linear_combination(self.shape, ((1, self), (1, other)))

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        return linear_combination(self.shape, ((1, self), (-1, other)))

    def __neg__(self) -> "ModuleVector":
        return linear_combination(self.shape, ((-1, self),))

    def __mul__(self, scalar) -> "ModuleVector":
        return linear_combination(self.shape, ((scalar, self),))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "ModuleVector":
        c = as_fraction(scalar)
        if not c:
            raise ZeroDivisionError("division of ModuleVector by zero")
        return linear_combination(self.shape, ((1 / c, self),))

    def inner(self, other: "ModuleVector") -> Fraction:
        a, b = sorted((self._values, _same_shape(self.shape, other)), key=len)
        return sum((v * b[r] for r, v in a.items() if r in b), Fraction(0))

    def norm2(self) -> Fraction:
        """Squared Euclidean norm (kept rational; no square roots)."""
        d, nums = _scaled(self._values.values())
        return Fraction(sum(x * x for x in nums), d * d)

    def __eq__(self, other):
        if not isinstance(other, ModuleVector):
            return NotImplemented
        return self.shape == other.shape and self._values == other._values

    def __hash__(self):
        return hash((self.shape, frozenset(self._values.items())))

    def __repr__(self):
        entries = ", ".join(f"{r}: {v}" for r, v in self.support()[:8])
        more = "" if self.nonzero_count() <= 8 else ", ..."
        return f"ModuleVector({self.shape.parts}, {{{entries}{more}}})"

    # -- serialization

    def to_json_dict(self) -> dict:
        return {
            "shape": list(self.shape.parts),
            "values": {str(r): format_rational(v) for r, v in self.support()},
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ModuleVector":
        try:
            parts = expect_json(data["shape"], list, "shape")
            shape = Composition(expect_json(p, int, "shape entry") for p in parts)
            raw = expect_json(data.get("values", {}), dict, "values")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad module-vector object: {exc}") from None
        values = {int(r): parse_rational(v) for r, v in raw.items()}
        return cls(shape, values)


def _same_shape(shape: Composition, v) -> dict:
    """The entries of v, after checking that it is a ModuleVector on the shape."""
    if not isinstance(v, ModuleVector):
        raise TypeError(f"expected ModuleVector, got {type(v).__name__}")
    if v.shape != shape:
        raise ShapeMismatchError(f"shapes differ: {shape.parts} vs {v.shape.parts}")
    return v._values


def linear_combination(shape: ShapeLike, terms: Iterable) -> ModuleVector:
    """The sum of c * v over the (exact rational c, vector v on shape) pairs of terms.

    Terms are consumed one at a time; no terms give the zero vector.
    """
    shape = as_composition(shape)
    entries = _combine((as_fraction(c), _same_shape(shape, v)) for c, v in terms)
    return ModuleVector(shape, entries)


def inner_product(f: ModuleVector, g: ModuleVector) -> Fraction:
    """Sum of pointwise products over the common tabloid set."""
    return f.inner(g)


def act_vector(sigma: Permutation, f: ModuleVector) -> ModuleVector:
    """Relabel: the result takes at sigma.x the value f took at x."""
    if sigma.n != f.shape.n:
        raise ShapeMismatchError(
            f"permutation on {sigma.n} symbols, vector on {f.shape.n}"
        )
    parts, images = f.shape.parts, (0, *sigma.images)
    return ModuleVector(f.shape, {
        _word_rank(parts, [images[e] for e in unrank_word(parts, rank)]): val
        for rank, val in f.support()
    })


# ---------------------------------------------------------------------------
# Group-algebra reindexing for full rankings


def to_group_algebra(f: ModuleVector) -> dict:
    """Reindex a full-ranking vector by the permutation moving 1..n into place.

    Returns {sigma: value} over the support; the tabloid with word w
    corresponds to the permutation i -> w[i-1].
    """
    if not f.shape.is_full_ranking():
        raise ShapeMismatchError("group-algebra form needs a full-ranking shape")
    return {Permutation(unrank_word(f.shape, rank)): val for rank, val in f.support()}


def from_group_algebra(n: int, values: Mapping) -> ModuleVector:
    shape = full_ranking_shape(n)
    data = {}
    for sigma, val in values.items():
        if sigma.n != n:
            raise ShapeMismatchError("permutation size differs from n")
        data[_word_rank(shape.parts, sigma.images)] = as_fraction(val)
    return ModuleVector(shape, data)


@lru_cache(maxsize=64)
def cached_tabloids(shape_parts: tuple, limit: int | None = None) -> tuple:
    """Memoized enumerate_tabloids keyed by the raw parts tuple."""
    return tuple(enumerate_tabloids(Composition(shape_parts), limit))
