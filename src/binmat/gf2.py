"""Bit-parallel linear algebra over GF(2) and projective-space enumeration.

Conventions used throughout the package:

* A vector in F_2^n is a machine int with coordinate i stored in bit i,
  so 0 <= bits < 2**n.  A *point* is a nonzero vector (the points of the
  projective space PG(n-1, 2)).
* A subspace is represented by its reduced echelon basis: each basis row's
  pivot is its lowest set bit, pivots strictly increase across rows, and
  every pivot bit is cleared from the other rows.  This representation is
  unique per subspace, so equality and hashing are structural.
* Enumeration APIs are exact and require n <= 31 structurally (tables and
  point masks are built from 2**n - 1 bits).  Practical caps: n <= 8 for
  subspace enumeration, n <= 6 for exhaustive injection generation.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .errors import BudgetExceeded

__all__ = [
    "MAX_DIM",
    "GF2Vector",
    "Subspace",
    "LinearMap",
    "LinearInjections",
    "enumerate_points",
    "enumerate_subspaces",
    "count_subspaces",
    "gaussian_binomial",
    "enumerate_linear_injections",
    "count_linear_injections",
    "random_linear_injection",
    "random_invertible_map",
    "rooted_subspace_packing",
    "rref",
    "rank",
]

MAX_DIM = 31


def _check_dim(n: int) -> None:
    if not 0 <= n <= MAX_DIM:
        raise ValueError(f"ambient dimension must be in [0, {MAX_DIM}], got {n}")


def rref(vectors: Sequence[int]) -> tuple[int, ...]:
    """Reduced echelon basis (lowest-set-bit pivots, ascending) of a span."""
    basis: list[int] = []  # kept sorted by pivot
    for v in vectors:
        for b in basis:
            if v & (b & -b):
                v ^= b
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


@dataclass(frozen=True)
class GF2Vector:
    """Element of F_2^n packed in a word; bit i is coordinate i."""

    ambient_dim: int
    bits: int

    def __post_init__(self):
        _check_dim(self.ambient_dim)
        if not 0 <= self.bits < (1 << self.ambient_dim):
            raise ValueError(f"bits {self.bits:#x} out of range for dim {self.ambient_dim}")

    @property
    def is_point(self) -> bool:
        return self.bits != 0

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
        for b in self.basis:
            if v & (b & -b):
                v ^= b
        return v == 0

    def __contains__(self, v) -> bool:
        if isinstance(v, GF2Vector):
            if v.ambient_dim != self.ambient_dim:
                return False
            v = v.bits
        return self.contains_bits(v)

    def combination(self, coeffs: int) -> int:
        """Linear combination of basis rows selected by the bits of coeffs."""
        acc = 0
        for i, b in enumerate(self.basis):
            if (coeffs >> i) & 1:
                acc ^= b
        return acc

    def spanned_points(self) -> list[int]:
        """The nonzero vectors of the subspace, ascending."""
        pts = []
        for coeffs in range(1, 1 << len(self.basis)):
            pts.append(self.combination(coeffs))
        pts.sort()
        return pts

    @cached_property
    def point_mask(self) -> int:
        """Bitmask over points: bit (p - 1) set for each nonzero p in the span."""
        pts = [0]
        for b in self.basis:
            pts += [p ^ b for p in pts]
        mask = 0
        for p in pts[1:]:
            mask |= 1 << (p - 1)
        return mask

    def is_subspace_of(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            return False
        return all(other.contains_bits(b) for b in self.basis)

    def intersection(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        common = self.point_mask & other.point_mask
        vecs = []
        m = common
        while m:
            low = m & -m
            vecs.append(low.bit_length())  # point p has mask bit p-1
            m ^= low
        return Subspace.from_vectors(self.ambient_dim, vecs)

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


def enumerate_subspaces(n: int, d: int) -> Iterator[Subspace]:
    """Every d-dimensional subspace of F_2^n exactly once, canonical form.

    Enumeration walks echelon shapes: choose the d pivot positions, then fill
    the free cells (positions above a row's pivot that are not pivots of other
    rows) in counting order.
    """
    _check_dim(n)
    if d < 0 or d > n:
        raise ValueError(f"subspace dimension must be in [0, {n}], got {d}")
    if d == 0:
        yield Subspace(n, ())
        return
    for pivots in itertools.combinations(range(n), d):
        pivset = frozenset(pivots)
        free = [[q for q in range(p + 1, n) if q not in pivset] for p in pivots]
        for choice in itertools.product(*(range(1 << len(f)) for f in free)):
            rows = []
            for i, p in enumerate(pivots):
                row = 1 << p
                c = choice[i]
                for k, q in enumerate(free[i]):
                    if (c >> k) & 1:
                        row |= 1 << q
                rows.append(row)
            yield Subspace(n, tuple(rows))


def count_subspaces(n: int, d: int) -> int:
    return gaussian_binomial(n, d)


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

    def image_subspace(self) -> Subspace:
        return Subspace.from_vectors(self.codomain_dim, self.images)


def count_linear_injections(d: int, n: int) -> int:
    """Number of injective linear maps F_2^d -> F_2^n: prod(2^n - 2^i)."""
    if d < 0 or n < 0:
        raise ValueError("dimensions must be nonnegative")
    if d > n:
        return 0
    return math.prod((1 << n) - (1 << i) for i in range(d))


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
        span_pts: list[int] = []  # sorted nonzero span elements
        for digit in digits:
            img = self._kth_outside_span(span_pts, digit)
            new_pts = [img] + [s ^ img for s in span_pts]
            images.append(img)
            span_pts = sorted(span_pts + new_pts)
        return LinearMap(self.domain_dim, self.codomain_dim, tuple(images))

    def index(self, phi: LinearMap) -> int:
        if not isinstance(phi, LinearMap):
            raise ValueError("not a LinearMap")
        if (phi.domain_dim, phi.codomain_dim) != (self.domain_dim, self.codomain_dim):
            raise ValueError("dimension mismatch")
        if not phi.is_injective:
            raise ValueError("map is not injective")
        idx = 0
        span_pts: list[int] = []
        for cap, img in zip(self._level_counts, phi.images):
            below = sum(1 for s in span_pts if s < img)
            digit = (img - 1) - below
            assert 0 <= digit < cap
            idx = idx * cap + digit
            span_pts = sorted(span_pts + [img] + [s ^ img for s in span_pts])
        return idx

    def image_tuples(self) -> Iterator[tuple[int, ...]]:
        """Iterate the image tuples in index order without LinearMap overhead."""
        if self.vacuous:
            return
        d, n = self.domain_dim, self.codomain_dim
        npts = (1 << n) - 1
        images = [0] * d
        span_mask = [0] * (d + 1)  # bitmask over points, bit p-1
        span_mask[0] = 0

        def rec(level: int) -> Iterator[tuple[int, ...]]:
            if level == d:
                yield tuple(images)
                return
            mask = span_mask[level]
            for img in range(1, npts + 1):
                if (mask >> (img - 1)) & 1:
                    continue
                images[level] = img
                new = mask | (1 << (img - 1))
                m = mask
                while m:
                    low = m & -m
                    m ^= low
                    p = low.bit_length() ^ img  # point p = (bit index + 1) ^ img
                    new |= 1 << (p - 1)
                span_mask[level + 1] = new
                yield from rec(level + 1)

        yield from rec(0)

    def __iter__(self) -> Iterator[LinearMap]:
        for images in self.image_tuples():
            yield LinearMap(self.domain_dim, self.codomain_dim, images)

    def __contains__(self, phi) -> bool:
        try:
            self.index(phi)
            return True
        except ValueError:
            return False


def enumerate_linear_injections(d: int, n: int) -> LinearInjections:
    return LinearInjections(d, n)


def random_linear_injection(d: int, n: int, rng) -> LinearMap:
    """Uniformly random injective linear map F_2^d -> F_2^n (d <= n)."""
    if d > n:
        raise ValueError(f"no injections from dim {d} into dim {n}")
    _check_dim(n)
    images: list[int] = []
    basis: list[int] = []
    for _ in range(d):
        while True:
            img = rng.randrange(1, 1 << n)
            red = img
            for b in basis:
                if red & (b & -b):
                    red ^= b
            if red:
                break
        images.append(img)
        basis = list(rref(basis + [img]))
    return LinearMap(d, n, tuple(images))


def random_invertible_map(n: int, rng) -> LinearMap:
    return random_linear_injection(n, n, rng)


def rooted_subspace_packing(U: Subspace, W: Subspace, V_dim: int) -> list[Subspace]:
    """Greedy maximal family of subspaces U_i rooted at U and avoiding W.

    Given nested U <= W <= F_2^{V_dim}, returns U_1, ..., U_m with
    dim(U_i) = d := V_dim - dim(W) + dim(U), U_i meet W = U, and pairwise
    U_i meet U_j = U.  Greedy over the canonical subspace order (ties broken
    by enumeration order, so the output is reproducible).

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
    if V_dim > 8:
        raise BudgetExceeded(f"subspace enumeration capped at ambient dim 8, got {V_dim}")
    d = V_dim - W.dim + U.dim
    u_mask = U.point_mask
    w_mask = W.point_mask
    family: list[Subspace] = []
    masks: list[int] = []
    for X in enumerate_subspaces(V_dim, d):
        xm = X.point_mask
        if xm & w_mask != u_mask:
            continue
        if any(xm & fm != u_mask for fm in masks):
            continue
        family.append(X)
        masks.append(xm)
    m = len(family)
    bound = 2 ** (V_dim - 2 * d) if V_dim >= 2 * d else 0
    if U.dim < W.dim < V_dim:
        assert m >= max(bound, 1), f"packing bound violated: m={m} < 2^({V_dim}-2*{d})"
    else:
        assert m >= 1, "rooted family is never empty"
    return family
