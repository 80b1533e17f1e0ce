"""Bit-parallel linear algebra over GF(2) and projective-space enumeration.

Conventions used throughout the package:

* A vector in F_2^n is a machine int with coordinate i stored in bit i,
  so 0 <= bits < 2**n.  A *point* is a nonzero vector (the points of the
  projective space PG(n-1, 2)).
* A subspace is represented by its reduced echelon basis: each basis row's
  pivot is its lowest set bit, pivots strictly increase across rows, and
  every pivot bit is cleared from the other rows.  This representation is
  unique per subspace, so equality and hashing are structural.
* Every span is computed by one kernel.  span_table(vectors) doubles a list
  so that table[x] is the XOR of vectors[i] over the set bits i of x;
  span_step() adds one vector to such a table in place and returns the
  new points.  One depth-first search over basis images on
  span_step, _image_search (given a per-level filter and candidate order),
  serves LinearInjections.image_tuples, instance search, canonical forms and
  critical numbers; only the packing walk calls span_step on its own.
  subspace_point_masks() walks the same echelon shapes as
  enumerate_subspaces() but yields point masks, not Subspace objects.
* rooted_subspace_packing() does not sweep those masks: it walks the same
  echelon tree depth first, grows each prefix's span with span_step and
  prunes a prefix once its span meets a blocked point (of W or of a chosen
  member, outside U).  A span only grows along a path, so the walk skips
  only candidates the greedy sweep in order would reject, and chooses the
  same members.
* For orbit counting, the conjugacy classes of GL(n, 2) for n <= 5 are a
  checked-in table (_GL_CLASSES: one rational canonical form and class size
  each) that the tests re-derive; for orbits, the transvections' point
  permutations generate GL(n, 2).
* Enumeration APIs are exact and require n <= 31 structurally (tables and
  point masks are built from 2**n - 1 bits).  Practical caps: n <=
  SUBSPACE_ENUM_MAX_DIM (8) for subspace enumeration, n <= 6 for
  exhaustive injection generation.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence

from .errors import BudgetExceeded

__all__ = [
    "MAX_DIM",
    "GF2Vector",
    "Subspace",
    "LinearMap",
    "LinearInjections",
    "enumerate_points",
    "enumerate_subspaces",
    "subspace_point_masks",
    "gaussian_binomial",
    "count_linear_injections",
    "random_linear_injection",
    "rooted_subspace_packing",
    "rref",
    "rank",
]

MAX_DIM = 31
SUBSPACE_ENUM_MAX_DIM = 8  # ambient cap of the searches that walk every d-subspace


def _check_dim(n: int) -> None:
    if not 0 <= n <= MAX_DIM:
        raise ValueError(f"ambient dimension must be in [0, {MAX_DIM}], got {n}")


def _reduce(v: int, basis: Iterable[int]) -> int:
    """v reduced by an echelon basis (lowest-set-bit pivots, no vector
    holding the pivot of one before it, as rref's and any list of vectors
    each reduced by those before it); zero iff v lies in its span."""
    for b in basis:
        if v & (b & -b):
            v ^= b
    return v


def rref(vectors: Sequence[int]) -> tuple[int, ...]:
    """Reduced echelon basis (lowest-set-bit pivots, ascending) of a span."""
    basis: list[int] = []  # kept sorted by pivot
    for v in vectors:
        v = _reduce(v, basis)
        if not v:
            continue
        piv = v & -v
        for i, b in enumerate(basis):
            if b & piv:
                basis[i] = b ^ v
        basis.append(v)
        basis.sort(key=lambda b: b & -b)
    return tuple(basis)


def rank(vectors: Sequence[int]) -> int:
    return len(rref(vectors))


def span_table(vectors: Sequence[int]) -> list[int]:
    """The 2^len(vectors) combinations of vectors, by doubling: table[x] is
    the XOR of vectors[i] over the set bits i of x (table[0] = 0)."""
    table = [0]
    for v in vectors:
        table += [p ^ v for p in table]
    return table


def span_step(table: list[int], level: int, v: int) -> list[int]:
    """Add v as the level-th vector of a span table, in place: table[2^level
    : 2^(level+1)] becomes table[:2^level] XOR v (a table of exactly 2^level
    entries grows).  Returns the new points; v must lie outside the span so
    far."""
    half = 1 << level
    table[half:half << 1] = new = [p ^ v for p in table[:half]]
    return new


def _span_mask(vectors: Sequence[int]) -> int:
    """Point mask (bit p-1) of the span of linearly independent vectors."""
    return _points_mask(span_table(vectors)[1:])


def _points_mask(points: Collection[int]) -> int:
    """The mask with bit p-1 set for each point p; inverse of _mask_points."""
    if len(points) <= 64:  # one OR per point is fastest on a few points
        mask = 0
        for p in points:
            mask |= 1 << (p - 1)
        return mask
    # each OR copies the mask, so many points are set in a digit string
    top = max(points)
    digits = bytearray(b"0") * top  # bit p-1 is digit top - p
    for p in points:
        digits[top - p] = 49  # ord("1")
    return int(digits, 2)


def _mask_points(mask: int) -> list[int]:
    """The points p whose bit p-1 is set in mask, ascending; inverse of
    _points_mask."""
    return [p for p, c in enumerate(bin(mask)[:1:-1], 1) if c == "1"]


@dataclass(frozen=True)
class GF2Vector:
    """Element of F_2^n packed in a word; bit i is coordinate i."""

    ambient_dim: int
    bits: int

    def __post_init__(self):
        _check_dim(self.ambient_dim)
        if not 0 <= self.bits < (1 << self.ambient_dim):
            raise ValueError(f"bits {self.bits:#x} out of range for dim {self.ambient_dim}")

    def __add__(self, other: "GF2Vector") -> "GF2Vector":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return GF2Vector(self.ambient_dim, self.bits ^ other.bits)

    def __str__(self):
        return format(self.bits, f"0{max(self.ambient_dim, 1)}b")[::-1]


def enumerate_points(n: int) -> list[GF2Vector]:
    """All 2^n - 1 points of PG(n-1, 2) in ascending bit order."""
    _check_dim(n)
    return [GF2Vector(n, bits) for bits in range(1, 1 << n)]


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of F_2^n in canonical reduced-echelon form.

    Construct with from_vectors() unless the basis is already canonical;
    __post_init__ rejects non-canonical bases.
    """

    ambient_dim: int
    basis: tuple[int, ...]

    def __post_init__(self):
        _check_dim(self.ambient_dim)
        prev_piv = 0
        for row in self.basis:
            if not 0 < row < (1 << self.ambient_dim):
                raise ValueError(f"basis row {row:#x} out of range")
            piv = row & -row
            if piv <= prev_piv:
                raise ValueError("basis rows must have strictly ascending pivots")
            prev_piv = piv
        for i, row in enumerate(self.basis):
            piv = row & -row
            for j, other in enumerate(self.basis):
                if i != j and other & piv:
                    raise ValueError("basis is not reduced")

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Sequence[int]) -> "Subspace":
        return cls(ambient_dim, rref(vectors))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, tuple(1 << i for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.ambient_dim - len(self.basis)

    def contains_bits(self, v: int) -> bool:
        return _reduce(v, self.basis) == 0

    def __contains__(self, v) -> bool:
        if isinstance(v, GF2Vector):
            if v.ambient_dim != self.ambient_dim:
                return False
            v = v.bits
        return self.contains_bits(v)

    def spanned_points(self) -> list[int]:
        """The nonzero vectors of the subspace, ascending."""
        return sorted(span_table(self.basis)[1:])

    @cached_property
    def point_mask(self) -> int:
        """Bitmask over points: bit (p - 1) set for each nonzero p in the span."""
        return _span_mask(self.basis)

    def is_subspace_of(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            return False
        return all(other.contains_bits(b) for b in self.basis)

    def intersection(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        common = self.point_mask & other.point_mask
        return Subspace.from_vectors(self.ambient_dim, _mask_points(common))

    def to_json_dict(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "basis": [format(b, "#x") for b in self.basis],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Subspace":
        return cls.from_vectors(d["ambient_dim"], [int(b, 16) for b in d["basis"]])


def gaussian_binomial(n: int, d: int) -> int:
    """Number of d-dimensional subspaces of F_2^n (q-binomial at q = 2)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if d < 0 or d > n:
        return 0
    num = math.prod((1 << (n - i)) - 1 for i in range(d))
    den = math.prod((1 << (i + 1)) - 1 for i in range(d))
    assert num % den == 0
    return num // den


def _echelon_bases(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """The canonical basis of every d-dimensional subspace of F_2^n.

    Walks echelon shapes: choose the d pivot positions, then fill the free
    cells (positions above a row's pivot that are not pivots of other rows)
    in counting order, the last row fastest.
    """
    _check_dim(n)
    if d < 0 or d > n:
        raise ValueError(f"subspace dimension must be in [0, {n}], got {d}")
    for pivots in itertools.combinations(range(n), d):
        yield from itertools.product(*_echelon_rows(n, pivots))


def _echelon_rows(n: int, pivots: tuple[int, ...]) -> list[list[int]]:
    """For each pivot p, the echelon rows with pivot p: bit p plus every
    subset of the free cells (positions above p that are not pivots), in
    counting order."""
    rows = []
    for p in pivots:
        free = [1 << q for q in range(p + 1, n) if q not in pivots]
        rows.append([c | 1 << p for c in span_table(free)])
    return rows


def enumerate_subspaces(n: int, d: int) -> Iterator[Subspace]:
    """Every d-dimensional subspace of F_2^n exactly once, canonical form."""
    for basis in _echelon_bases(n, d):
        yield Subspace(n, basis)


def subspace_point_masks(n: int, d: int) -> Iterator[int]:
    """The point masks of enumerate_subspaces(n, d), in the same order,
    without building Subspace objects."""
    for basis in _echelon_bases(n, d):
        yield _span_mask(basis)


@dataclass(frozen=True)
class LinearMap:
    """Linear map F_2^d -> F_2^n given by the images of the standard basis."""

    domain_dim: int
    codomain_dim: int
    images: tuple[int, ...]

    def __post_init__(self):
        _check_dim(self.domain_dim)
        _check_dim(self.codomain_dim)
        if len(self.images) != self.domain_dim:
            raise ValueError("need one image per domain basis vector")
        for img in self.images:
            if not 0 <= img < (1 << self.codomain_dim):
                raise ValueError(f"image {img:#x} out of range")

    @classmethod
    def identity(cls, n: int) -> "LinearMap":
        return cls(n, n, tuple(1 << i for i in range(n)))

    def apply_bits(self, x: int) -> int:
        acc = 0
        i = 0
        while x:
            if x & 1:
                acc ^= self.images[i]
            x >>= 1
            i += 1
        return acc

    def __call__(self, v: GF2Vector) -> GF2Vector:
        if v.ambient_dim != self.domain_dim:
            raise ValueError("vector not in the domain")
        return GF2Vector(self.codomain_dim, self.apply_bits(v.bits))

    @cached_property
    def is_injective(self) -> bool:
        return rank(self.images) == self.domain_dim


def count_linear_injections(d: int, n: int) -> int:
    """Number of injective linear maps F_2^d -> F_2^n: prod(2^n - 2^i)."""
    if d < 0 or n < 0:
        raise ValueError("dimensions must be nonnegative")
    if d > n:
        return 0
    return math.prod((1 << n) - (1 << i) for i in range(d))


@lru_cache(maxsize=None)
def _transvection_perms(n: int) -> tuple[tuple[int, ...], ...]:
    """The point permutations of the transvections x -> x ^ (x_i e_j), i != j,
    of F_2^n: perm[x] is the image of x (perm[0] = 0).  They generate GL(n, 2)
    (which is SL(n, 2) over GF(2)), and each is an involution."""
    return tuple(
        tuple(x ^ (1 << j) if x >> i & 1 else x for x in range(1 << n))
        for i in range(n) for j in range(n) if i != j
    )


# _GL_CLASSES[n]: one (columns, class size) pair per conjugacy class of
# GL(n, 2), n <= 5: the basis images (as for LinearMap) of the class's rational
# canonical form, and |GL(n, 2)| over its centralizer order.  Fixed data: the
# tests re-derive it (Kung 1981; Macdonald, Symmetric Functions and Hall
# Polynomials, ch. IV) and, for n <= 4, conjugate by every element.
_GL_CLASSES = (
    (((), 1),),
    (((1,), 1),),
    (((2, 3), 2), ((2, 1), 3), ((1, 2), 1)),
    (((2, 4, 5), 24), ((2, 4, 3), 24), ((1, 4, 6), 56), ((2, 4, 7), 42), ((2, 1, 4), 21),
     ((1, 2, 4), 1)),
    (((2, 4, 8, 15), 1344), ((2, 4, 8, 9), 1344), ((2, 4, 8, 3), 1344), ((2, 4, 8, 5), 1680),
     ((2, 3, 8, 12), 112), ((1, 4, 8, 10), 2880), ((1, 4, 8, 6), 2880), ((2, 1, 8, 12), 3360),
     ((1, 2, 8, 12), 1120), ((2, 4, 8, 1), 2520), ((2, 4, 7, 8), 1260), ((2, 1, 8, 4), 210),
     ((2, 1, 4, 8), 105), ((1, 2, 4, 8), 1)),
    (((2, 4, 8, 16, 29), 322560), ((2, 4, 8, 16, 27), 322560), ((2, 4, 8, 16, 23), 322560),
     ((2, 4, 8, 16, 15), 322560), ((2, 4, 8, 16, 9), 322560), ((2, 4, 8, 16, 5), 322560),
     ((2, 3, 8, 16, 20), 476160), ((2, 3, 8, 16, 12), 476160), ((1, 4, 8, 16, 30), 666624),
     ((1, 4, 8, 16, 18), 666624), ((1, 4, 8, 16, 6), 666624), ((1, 4, 8, 16, 10), 833280),
     ((1, 4, 6, 16, 24), 55552), ((2, 1, 8, 16, 20), 714240), ((2, 1, 8, 16, 12), 714240),
     ((1, 2, 8, 16, 20), 238080), ((1, 2, 8, 16, 12), 238080), ((2, 4, 7, 16, 24), 833280),
     ((2, 1, 4, 16, 24), 416640), ((1, 2, 4, 16, 24), 19840), ((2, 4, 8, 16, 19), 624960),
     ((2, 4, 8, 1, 16), 312480), ((2, 4, 7, 16, 8), 78120), ((2, 4, 7, 8, 16), 26040),
     ((2, 1, 8, 4, 16), 6510), ((2, 1, 4, 8, 16), 465), ((1, 2, 4, 8, 16), 1)),
)


class LinearInjections(SequenceABC):
    """The injective linear maps F_2^d -> F_2^n as a lazy indexable sequence.

    Order: an injection is the tuple of its basis images (img_0, ..., img_{d-1});
    sequences are ordered lexicographically by that tuple.  len() multiplies the
    per-level candidate counts (2^n - 2^i admissible images at level i, by span
    exclusion), __getitem__ decodes a mixed-radix index, and index() inverts it,
    so the full sequence never needs materializing to know its cardinality.

    d > n yields an empty sequence with .vacuous set (density denominators
    need to tell "no injections exist" apart from an error).
    """

    def __init__(self, domain_dim: int, codomain_dim: int):
        if domain_dim < 0 or codomain_dim < 0:
            raise ValueError("dimensions must be nonnegative")
        _check_dim(codomain_dim)
        self.domain_dim = domain_dim
        self.codomain_dim = codomain_dim
        self.vacuous = domain_dim > codomain_dim
        if self.vacuous:
            self._level_counts: list[int] = []
        else:
            self._level_counts = [
                (1 << codomain_dim) - (1 << i) for i in range(domain_dim)
            ]

    def __len__(self) -> int:
        if self.vacuous:
            return 0
        return math.prod(self._level_counts)

    def _kth_outside_span(self, span_sorted: list[int], k: int) -> int:
        # k-th (0-based) element of [1, 2^n) not in the sorted span list.
        val = k + 1
        for s in span_sorted:
            if s <= val:
                val += 1
        return val

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return [self[i] for i in range(*idx.indices(len(self)))]
        total = len(self)
        if idx < 0:
            idx += total
        if not 0 <= idx < total:
            raise IndexError("injection index out of range")
        digits = []
        for cap in reversed(self._level_counts):
            digits.append(idx % cap)
            idx //= cap
        digits.reverse()
        images: list[int] = []
        for digit in digits:
            images.append(self._kth_outside_span(sorted(span_table(images)[1:]), digit))
        return LinearMap(self.domain_dim, self.codomain_dim, tuple(images))

    def index(self, phi: LinearMap) -> int:
        if not isinstance(phi, LinearMap):
            raise ValueError("not a LinearMap")
        if (phi.domain_dim, phi.codomain_dim) != (self.domain_dim, self.codomain_dim):
            raise ValueError("dimension mismatch")
        if not phi.is_injective:
            raise ValueError("map is not injective")
        idx = 0
        for i, (cap, img) in enumerate(zip(self._level_counts, phi.images)):
            below = sum(1 for s in span_table(phi.images[:i])[1:] if s < img)
            digit = (img - 1) - below
            assert 0 <= digit < cap
            idx = idx * cap + digit
        return idx

    def image_tuples(self) -> Iterator[tuple[int, ...]]:
        """Iterate the image tuples in index order without LinearMap overhead.
        A generator function, so that a tracer wrapping it sees each item."""
        yield from _image_search(self.domain_dim, self.codomain_dim)

    def __iter__(self) -> Iterator[LinearMap]:
        for images in self.image_tuples():
            yield LinearMap(self.domain_dim, self.codomain_dim, images)

    def __contains__(self, phi) -> bool:
        try:
            self.index(phi)
            return True
        except ValueError:
            return False


def _image_search(
    d: int, n: int, admits: Optional[Callable[[int, int, list[int]], bool]] = None,
    order: Optional[Sequence[int]] = None,
) -> Iterator[tuple[int, ...]]:
    """The image tuples of the injective linear maps F_2^d -> F_2^n that the
    filter admits, depth first over the basis images.

    Level i tries the images in order (ascending by default), skips those in
    the span of the images chosen so far and keeps img only if admits(i, img,
    table) holds; table[:2^i] is that span as a span table, so table[x] ^ img
    is the image of the point 2^i + x.  A rejected image prunes its subtree.
    With no filter and the default order this is LinearInjections(d, n).
    """
    if d > n:
        return
    if d == 0:
        yield ()
        return
    if order is None:
        order = range(1, 1 << n)
    images = [0] * d
    table = [0]  # the span table of images[:i]; span_step grows it
    # the points spanned by images[:i]; a bit test on a point mask would
    # copy the mask, which made searches over 2^n points quadratic
    spanned: set[int] = set()

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        last = i == d - 1  # the last span is never read
        for img in order:
            if img in spanned:
                continue
            if admits is not None and not admits(i, img, table):
                continue
            images[i] = img
            if last:
                yield tuple(images)
                continue
            new = span_step(table, i, img)
            spanned.update(new)
            yield from rec(i + 1)
            spanned.difference_update(new)

    yield from rec(0)


def random_linear_injection(d: int, n: int, rng) -> LinearMap:
    """Uniformly random injective linear map F_2^d -> F_2^n (d <= n)."""
    if d > n:
        raise ValueError(f"no injections from dim {d} into dim {n}")
    _check_dim(n)
    images: list[int] = []
    basis: list[int] = []  # each image reduced by those before it: an echelon basis
    for _ in range(d):
        img = rng.randrange(1, 1 << n)
        while not (reduced := _reduce(img, basis)):
            img = rng.randrange(1, 1 << n)
        images.append(img)
        basis.append(reduced)
    return LinearMap(d, n, tuple(images))


def rooted_subspace_packing(U: Subspace, W: Subspace, V_dim: int) -> list[Subspace]:
    """Greedy maximal family of subspaces U_i rooted at U and avoiding W.

    Given nested U <= W <= F_2^{V_dim}, returns U_1, ..., U_m with
    dim(U_i) = d := V_dim - dim(W) + dim(U), U_i meet W = U, and pairwise
    U_i meet U_j = U.  Greedy over the canonical subspace order of
    enumerate_subspaces(V_dim, d), so the output is reproducible.

    The candidates are not swept one by one: a depth-first walk of the
    echelon tree (pivot combinations in order, then one row per level, the
    last row fastest) grows each prefix's span with span_step and prunes the
    prefix as soon as its span meets blocked, the points of W and of the
    chosen members outside U.  A span only grows along a path, so a pruned
    prefix has no admissible completion.  A leaf X that is not pruned meets W
    inside U, and dim(X meet W) >= d + dim(W) - V_dim = dim(U), so X meets W
    exactly in U: it is chosen, and its points join blocked.  The walk
    therefore picks what the sweep in order would pick.

    Maximality gives m >= 2^(V_dim - 2d) when the nesting is strict
    (U < W < F_2^{V_dim}); that bound is asserted.  With U = W or
    W = F_2^{V_dim} only the single subspace U + (complement of W) is
    admissible, so just m >= 1 is guaranteed.
    """
    _check_dim(V_dim)
    if U.ambient_dim != V_dim or W.ambient_dim != V_dim:
        raise ValueError("U and W must live in F_2^{V_dim}")
    if not U.is_subspace_of(W):
        raise ValueError("inputs must be nested: U <= W")
    if V_dim > SUBSPACE_ENUM_MAX_DIM:
        raise BudgetExceeded(
            f"subspace enumeration capped at ambient dim {SUBSPACE_ENUM_MAX_DIM}, got {V_dim}"
        )
    d = V_dim - W.dim + U.dim
    u_mask = U.point_mask
    blocked = W.point_mask & ~u_mask
    family: list[Subspace] = []
    basis = [0] * d
    table = [0]  # span table of basis[:level], grown by span_step

    def walk(rows: list[list[int]], level: int, mask: int) -> None:
        nonlocal blocked
        if level == d:
            family.append(Subspace(V_dim, tuple(basis)))
            blocked |= mask & ~u_mask
            return
        for row in rows[level]:
            grown = mask | _points_mask(span_step(table, level, row))
            if not grown & blocked:
                basis[level] = row
                walk(rows, level + 1, grown)

    for pivots in itertools.combinations(range(V_dim), d):
        walk(_echelon_rows(V_dim, pivots), 0, 0)
    m = len(family)
    bound = 2 ** (V_dim - 2 * d) if V_dim >= 2 * d else 0
    if U.dim < W.dim < V_dim:
        assert m >= max(bound, 1), f"packing bound violated: m={m} < 2^({V_dim}-2*{d})"
    else:
        assert m >= 1, "rooted family is never empty"
    return family
