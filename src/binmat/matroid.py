"""Simple binary matroids and patterns over PG(n-1, 2).

A matroid here is just a total {0,1}-valued function on the 2^n - 1 points
of F_2^n (stored as one bit table packed in an int, bit p-1 for point p).
A pattern additionally allows the unconstrained value '*'.  An instance of a
pattern N in a target M is an injective linear map phi with
N(x) = M(phi(x)) for every non-star cell x of N.

Everything in this module is exact: densities are fractions, searches are
backtracking over basis-image choices with pruning on the partial span.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

from .errors import BudgetExceeded
from .gf2 import (
    GF2Vector,
    LinearInjections,
    LinearMap,
    Subspace,
    count_linear_injections,
    enumerate_subspaces,
    random_linear_injection,
    rank,
    span_step,
    span_table,
)

__all__ = [
    "STAR",
    "Matroid",
    "Pattern",
    "RealFunction",
    "restrict",
    "find_instance",
    "count_instances",
    "is_isomorphic",
    "canonical_form",
    "density",
    "density_in_function",
    "bose_burton",
    "vanishing_pattern",
    "is_k_affine",
    "evaluations",
    "critical_number",
    "extensions",
    "ext_membership",
    "sample_matroid",
    "sample_extension",
    "builtin_pattern",
    "load_table",
]

STAR = "*"

EXTENSION_FREE_CELL_CAP = 25
EVALUATION_STAR_CAP = 20
TABLE_MAX_DIM = 20  # the largest dimension any routine handles (factor partitions)


def _npts(dim: int) -> int:
    """Number of points of F_2^dim.  Every table size goes through here, so
    a dimension no routine handles is refused before anything is allocated."""
    if not 0 <= dim <= TABLE_MAX_DIM:
        raise ValueError(f"dimension must be in [0, {TABLE_MAX_DIM}], got {dim}")
    return (1 << dim) - 1


@dataclass(frozen=True)
class Matroid:
    """Total map from the points of F_2^dim to {0,1}, packed in `table`."""

    dim: int
    table: int

    def __post_init__(self):
        if not 0 <= self.table < (1 << _npts(self.dim)):
            raise ValueError(f"table out of range for dim {self.dim}")

    @classmethod
    def from_values(cls, values) -> "Matroid":
        values = list(values)
        n = (len(values) + 1).bit_length() - 1
        if len(values) != _npts(n):
            raise ValueError(f"need 2^n - 1 values, got {len(values)}")
        table = 0
        for i, v in enumerate(values):
            if v not in (0, 1):
                raise ValueError(f"matroid values are 0/1, got {v!r}")
            table |= v << i
        return cls(n, table)

    @classmethod
    def constant(cls, dim: int, value: int) -> "Matroid":
        if value not in (0, 1):
            raise ValueError("constant value must be 0 or 1")
        return cls(dim, value * ((1 << _npts(dim)) - 1))

    @property
    def n_points(self) -> int:
        return _npts(self.dim)

    def value_bits(self, p: int) -> int:
        if not 1 <= p <= self.n_points:
            raise ValueError(f"{p} is not a point of PG({self.dim}-1, 2)")
        return (self.table >> (p - 1)) & 1

    def __call__(self, x: Union[int, GF2Vector]) -> int:
        if isinstance(x, GF2Vector):
            if x.ambient_dim != self.dim:
                raise ValueError("ambient dimension mismatch")
            x = x.bits
        return self.value_bits(x)

    @property
    def weight(self) -> int:
        return self.table.bit_count()

    @property
    def ones_mask(self) -> int:
        return self.table

    @property
    def zeros_mask(self) -> int:
        return ((1 << self.n_points) - 1) ^ self.table

    def complement(self) -> "Matroid":
        return Matroid(self.dim, self.zeros_mask)

    def to_pattern(self) -> "Pattern":
        return Pattern(self.dim, self.ones_mask, self.zeros_mask)

    def to_text(self) -> str:
        chars = "".join(str((self.table >> i) & 1) for i in range(self.n_points))
        return f"dim={self.dim}\n{chars}\n"

    def to_json_dict(self) -> dict:
        return {
            "format": 1,
            "kind": "matroid",
            "dim": self.dim,
            "table": "".join(str((self.table >> i) & 1) for i in range(self.n_points)),
        }

    def __repr__(self):
        tbl = "".join(str((self.table >> i) & 1) for i in range(self.n_points))
        return f"Matroid(dim={self.dim}, table={tbl!r})"


@dataclass(frozen=True)
class Pattern:
    """Total map from points to {0, 1, *}; ones/zeros are disjoint bit masks."""

    dim: int
    ones: int
    zeros: int

    def __post_init__(self):
        full = (1 << _npts(self.dim)) - 1
        if not (0 <= self.ones <= full and 0 <= self.zeros <= full):
            raise ValueError(f"masks out of range for dim {self.dim}")
        if self.ones & self.zeros:
            raise ValueError("a cell cannot be both 0 and 1")

    @classmethod
    def from_values(cls, values) -> "Pattern":
        values = list(values)
        n = (len(values) + 1).bit_length() - 1
        if len(values) != _npts(n):
            raise ValueError(f"need 2^n - 1 values, got {len(values)}")
        ones = zeros = 0
        for i, v in enumerate(values):
            if v == 1:
                ones |= 1 << i
            elif v == 0:
                zeros |= 1 << i
            elif v != STAR and v is not None:
                raise ValueError(f"pattern values are 0/1/'*', got {v!r}")
        return cls(n, ones, zeros)

    @classmethod
    def constant(cls, dim: int, value) -> "Pattern":
        full = (1 << _npts(dim)) - 1
        if value == 1:
            return cls(dim, full, 0)
        if value == 0:
            return cls(dim, 0, full)
        if value == STAR:
            return cls(dim, 0, 0)
        raise ValueError("constant value must be 0, 1 or '*'")

    @property
    def n_points(self) -> int:
        return _npts(self.dim)

    @property
    def stars(self) -> int:
        return ((1 << self.n_points) - 1) ^ (self.ones | self.zeros)

    def value_bits(self, p: int):
        if not 1 <= p <= self.n_points:
            raise ValueError(f"{p} is not a point of PG({self.dim}-1, 2)")
        if (self.ones >> (p - 1)) & 1:
            return 1
        if (self.zeros >> (p - 1)) & 1:
            return 0
        return STAR

    def __call__(self, x: Union[int, GF2Vector]):
        if isinstance(x, GF2Vector):
            if x.ambient_dim != self.dim:
                raise ValueError("ambient dimension mismatch")
            x = x.bits
        return self.value_bits(x)

    @property
    def is_star_free(self) -> bool:
        return self.stars == 0

    def to_matroid(self) -> Matroid:
        if not self.is_star_free:
            raise ValueError("pattern has '*' cells, not a matroid")
        return Matroid(self.dim, self.ones)

    def complement(self) -> "Pattern":
        return Pattern(self.dim, self.zeros, self.ones)

    def ones_only(self) -> "Pattern":
        """Weaken all 0 cells to '*' (keep only the one-constraints)."""
        return Pattern(self.dim, self.ones, 0)

    def zeros_only(self) -> "Pattern":
        return Pattern(self.dim, 0, self.zeros)

    def to_text(self) -> str:
        chars = "".join(str(self.value_bits(p)) for p in range(1, self.n_points + 1))
        return f"dim={self.dim}\n{chars}\n"

    def to_json_dict(self) -> dict:
        return {
            "format": 1,
            "kind": "pattern",
            "dim": self.dim,
            "table": "".join(str(self.value_bits(p)) for p in range(1, self.n_points + 1)),
        }

    def __repr__(self):
        tbl = "".join(str(self.value_bits(p)) for p in range(1, self.n_points + 1))
        return f"Pattern(dim={self.dim}, table={tbl!r})"


def _parse_table_text(text: str) -> tuple[int, str]:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) != 2 or not lines[0].startswith("dim="):
        raise ValueError("expected a 'dim=n' line followed by one table line")
    try:
        dim = int(lines[0][4:])
    except ValueError:
        raise ValueError(f"bad dimension in {lines[0]!r}") from None
    chars = lines[1]
    if len(chars) != _npts(dim):
        raise ValueError(f"table length {len(chars)} does not match dim={dim}")
    bad = set(chars) - {"0", "1", STAR}
    if bad:
        raise ValueError(f"bad table characters: {sorted(bad)}")
    return dim, chars


def load_table(text: str) -> Union[Matroid, Pattern]:
    """Parse the text format; returns a Matroid when the table is star-free."""
    dim, chars = _parse_table_text(text)
    if STAR in chars:
        return Pattern.from_values([c if c == STAR else int(c) for c in chars])
    if dim == 0:
        return Matroid(0, 0)
    return Matroid.from_values([int(c) for c in chars])


def load_json_dict(d: dict) -> Union[Matroid, Pattern]:
    if d.get("format") != 1:
        raise ValueError(f"unsupported format tag {d.get('format')!r}")
    obj = load_table(f"dim={d['dim']}\n{d['table']}\n")
    kind = d.get("kind")
    if kind == "pattern" and isinstance(obj, Matroid):
        return obj.to_pattern()
    if kind == "matroid" and isinstance(obj, Pattern):
        raise ValueError("matroid payload contains '*' cells")
    return obj


def _coerce_pattern(obj) -> Pattern:
    if isinstance(obj, Pattern):
        return obj
    if isinstance(obj, Matroid):
        return obj.to_pattern()
    raise TypeError(f"expected Matroid or Pattern, got {type(obj).__name__}")


def restrict(obj, W: Subspace):
    """Restriction to a subspace, reindexed by W's canonical basis map."""
    if W.ambient_dim != obj.dim:
        raise ValueError("subspace lives in a different ambient space")
    d = W.dim
    pts = span_table(W.basis)
    if isinstance(obj, Matroid):
        table = 0
        for y in range(1, _npts(d) + 1):
            table |= obj.value_bits(pts[y]) << (y - 1)
        return Matroid(d, table)
    if isinstance(obj, Pattern):
        ones = zeros = 0
        for y in range(1, _npts(d) + 1):
            v = obj.value_bits(pts[y])
            if v == 1:
                ones |= 1 << (y - 1)
            elif v == 0:
                zeros |= 1 << (y - 1)
        return Pattern(d, ones, zeros)
    raise TypeError(f"expected Matroid or Pattern, got {type(obj).__name__}")


# --- instance search -------------------------------------------------------

def _search_instances(
    src: Pattern, tgt, limit: Optional[int] = None
) -> Iterator[tuple[int, ...]]:
    """Yield image tuples of the injections realizing src inside tgt.

    tgt may be a Matroid or a Pattern; for a Pattern target the match is
    exact (a '*' cell of tgt satisfies no 0/1 requirement of src, so
    constrained source cells must land on equal-valued target cells).
    """
    d = src.dim
    tgt_pat = _coerce_pattern(tgt)
    n = tgt_pat.dim
    if d > n:
        return
    if d == 0:
        yield ()
        return
    tgt_ones, tgt_zeros = tgt_pat.ones, tgt_pat.zeros
    # constraints for the points first determined at each level:
    # level i decides phi on {2^i + xoff : 0 <= xoff < 2^i}
    cons: list[list[tuple[int, int]]] = []
    for i in range(d):
        lvl = []
        for xoff in range(1 << i):
            x = (1 << i) + xoff
            v = src.value_bits(x)
            if v == 1:
                lvl.append((xoff, tgt_ones))
            elif v == 0:
                lvl.append((xoff, tgt_zeros))
        cons.append(lvl)
    phi = [0] * (1 << d)  # the span table of images[:i]
    images = [0] * d
    emitted = 0

    def rec(i: int, mask: int) -> Iterator[tuple[int, ...]]:
        nonlocal emitted
        for img in range(1, (1 << n)):
            if (mask >> (img - 1)) & 1:
                continue
            ok = True
            for xoff, need in cons[i]:
                p = phi[xoff] ^ img
                if not (need >> (p - 1)) & 1:
                    ok = False
                    break
            if not ok:
                continue
            images[i] = img
            if i + 1 == d:
                emitted += 1
                yield tuple(images)
                if limit is not None and emitted >= limit:
                    return
                continue
            yield from rec(i + 1, span_step(phi, i, img, mask))
            if limit is not None and emitted >= limit:
                return

    yield from rec(0, 0)


def find_instance(N, M) -> Optional[LinearMap]:
    """A witness injection realizing N inside M, or None."""
    src = _coerce_pattern(N)
    tgt_dim = M.dim
    for images in _search_instances(src, M, limit=1):
        return LinearMap(src.dim, tgt_dim, images)
    return None


def count_instances(N, M) -> int:
    src = _coerce_pattern(N)
    return sum(1 for _ in _search_instances(src, M))


def is_isomorphic(M1: Matroid, M2: Matroid) -> bool:
    """True iff some invertible linear map carries M2 to M1."""
    if M1.dim != M2.dim:
        return False
    if M1.weight != M2.weight:
        return False
    return find_instance(M1.to_pattern(), M2) is not None


def canonical_form(M: Matroid) -> Matroid:
    """Lexicographically minimal table over the GL(n,2) orbit of M.

    Branch and bound over basis-image choices: candidate images are tried
    zeros-first, partial tables are pruned against the best-so-far prefix,
    and the search stops as soon as the orbit's absolute lower bound (the
    sorted value multiset) is reached.  Exact for n <= 5; isomorphism at
    n >= 6 is out of enumeration scope.
    """
    n = M.dim
    if n == 0:
        return M
    if n > 5:
        raise BudgetExceeded("canonical_form is capped at dim 5")
    npts = M.n_points
    vals = [(M.table >> i) & 1 for i in range(npts)]
    lower = sorted(vals)
    if vals == lower:
        return M
    best = vals[:]
    cur = [0] * npts
    phi = [0] * (1 << n)
    order = sorted(range(1, npts + 1), key=lambda p: (vals[p - 1], p))
    done = False

    def rec(i: int, span_mask: int) -> None:
        nonlocal done
        base = (1 << i) - 1
        blk = 1 << i
        end = base + blk
        for img in order:
            if done:
                return
            if (span_mask >> (img - 1)) & 1:
                continue
            for xoff in range(blk):
                cur[base + xoff] = vals[(phi[xoff] ^ img) - 1]
            if cur[:end] > best[:end]:
                continue
            if i + 1 == n:
                if cur < best:
                    best[:] = cur
                    if best == lower:
                        done = True
                        return
                continue
            rec(i + 1, span_step(phi, i, img, span_mask))

    rec(0, 0)
    table = 0
    for i, v in enumerate(best):
        table |= v << i
    return Matroid(n, table)


# --- densities --------------------------------------------------------------

def density(N, M: Matroid) -> Fraction:
    """Probability that a uniform linear injection is an N-instance in M."""
    src = _coerce_pattern(N)
    if src.dim > M.dim:
        raise ValueError(
            f"no injections from dim {src.dim} into dim {M.dim}: density undefined"
        )
    total = count_linear_injections(src.dim, M.dim)
    return Fraction(count_instances(src, M), total)


@dataclass(frozen=True)
class RealFunction:
    """[0,1]-valued function on the points of F_2^dim."""

    dim: int
    values: tuple

    def __post_init__(self):
        if len(self.values) != _npts(self.dim):
            raise ValueError(f"need 2^dim - 1 values, got {len(self.values)}")
        for v in self.values:
            if not 0 <= v <= 1:
                raise ValueError(f"value {v!r} outside [0, 1]")

    @classmethod
    def from_matroid(cls, M: Matroid) -> "RealFunction":
        return cls(M.dim, tuple((M.table >> i) & 1 for i in range(M.n_points)))

    @property
    def n_points(self) -> int:
        return len(self.values)

    def value_bits(self, p: int):
        return self.values[p - 1]

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, (int, Fraction)) for v in self.values)


def density_in_function(N, f: RealFunction, samples: Optional[int] = None, seed: int = 0):
    """t(N, f): expected product of f over N's one-cells and (1-f) over its
    zero-cells, under a uniform random linear injection.

    Exact summation over all injections when samples is None (Fraction
    result for exact-valued f); Monte-Carlo with the given sample count and
    seed otherwise (float result).
    """
    src = _coerce_pattern(N)
    d, n = src.dim, f.dim
    if d > n:
        raise ValueError(f"no injections from dim {d} into dim {n}")
    constrained = []
    for p in range(1, src.n_points + 1):
        v = src.value_bits(p)
        if v != STAR:
            constrained.append((p, v))

    def term(phi_map) -> object:
        prod = Fraction(1) if f.is_exact and samples is None else 1.0
        for x, want in constrained:
            fx = f.value_bits(phi_map(x))
            prod *= fx if want == 1 else 1 - fx
            if prod == 0:
                break
        return prod

    if samples is None:
        seq = LinearInjections(d, n)
        total = len(seq)
        acc = Fraction(0) if f.is_exact else 0.0
        for images in seq.image_tuples():
            acc += term(span_table(images).__getitem__)
        return acc / total
    if samples <= 0:
        raise ValueError("monte_carlo mode needs samples > 0")
    rng = random.Random(seed)
    acc_f = 0.0
    for _ in range(samples):
        inj = random_linear_injection(d, n, rng)
        acc_f += float(term(inj.apply_bits))
    return acc_f / samples


# --- named patterns ---------------------------------------------------------

def bose_burton(k: int, d: int) -> Pattern:
    """Dim-d pattern: '*' on the canonical codim-k subspace, 1 elsewhere."""
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= d, got k={k}, d={d}")
    full = (1 << _npts(d)) - 1
    stars = (1 << _npts(d - k)) - 1  # points below 2^(d-k) span the star subspace
    return Pattern(d, full ^ stars, 0)


def vanishing_pattern(k: int, d: int) -> Pattern:
    """Dim-d pattern: 0 on the canonical codim-k subspace, '*' elsewhere.

    M has critical number <= k iff this pattern has an instance in M (d =
    dim M); used as a cross-check for critical_number.
    """
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= d, got k={k}, d={d}")
    return Pattern(d, 0, (1 << _npts(d - k)) - 1)


def is_k_affine(A: Pattern, k: int) -> bool:
    """True iff A's star set (plus 0) is a subspace of codimension exactly k."""
    star_mask = A.stars
    pts = []
    m = star_mask
    while m:
        low = m & -m
        m ^= low
        pts.append(low.bit_length())
    r = rank(pts)
    if len(pts) != (1 << r) - 1:
        return False
    return A.dim - r == k


def evaluations(B: Pattern) -> Iterator[Matroid]:
    """All matroids obtained by filling B's '*' cells with bits."""
    star_positions = []
    m = B.stars
    while m:
        low = m & -m
        m ^= low
        star_positions.append(low.bit_length() - 1)
    if len(star_positions) > EVALUATION_STAR_CAP:
        raise BudgetExceeded(
            f"{len(star_positions)} star cells exceed the evaluation cap "
            f"({EVALUATION_STAR_CAP}); sample instead"
        )
    for bits in range(1 << len(star_positions)):
        table = B.ones
        for j, pos in enumerate(star_positions):
            if (bits >> j) & 1:
                table |= 1 << pos
        yield Matroid(B.dim, table)


# --- critical number --------------------------------------------------------

def _max_flat_dim_in_mask(n: int, pts_mask: int) -> int:
    """Max dimension of a linear subspace whose nonzero points all lie in
    pts_mask (a bitmask over points, bit p-1)."""
    count = pts_mask.bit_count()
    cap = 0
    while cap < n and (1 << (cap + 1)) - 1 <= count:
        cap += 1
    best = 0
    seen = set()
    table = [0]  # the span table of the current flat; span_step grows it

    def rec(span_mask: int, dim: int, min_next: int) -> None:
        nonlocal best
        if dim > best:
            best = dim
        if best >= cap:
            return
        span_pts = table[1:1 << dim]
        for p in range(min_next, (1 << n)):
            pb = 1 << (p - 1)
            if not pts_mask & pb or span_mask & pb:
                continue
            for q in span_pts:  # the coset p + span must lie in pts_mask
                if not (pts_mask >> ((q ^ p) - 1)) & 1:
                    break
            else:
                new_mask = span_step(table, dim, p, span_mask)
                if new_mask not in seen:
                    seen.add(new_mask)
                    rec(new_mask, dim + 1, p + 1)
                    if best >= cap:
                        return

    rec(0, 0, 1)
    return best


def critical_number(M: Matroid) -> int:
    """Least codimension of a subspace on which M vanishes identically."""
    return M.dim - _max_flat_dim_in_mask(M.dim, M.zeros_mask)


# --- extension operators ----------------------------------------------------

def extensions(M: Matroid, k: int, exact_dim: bool = True) -> Iterator[Matroid]:
    """All matroids of dimension dim+k (or <=, per flag) restricting to M on
    the canonical first-coordinates subspace."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = M.dim
    free = (1 << (n + k)) - (1 << n)  # budget first: n + k may pass TABLE_MAX_DIM
    if free > EXTENSION_FREE_CELL_CAP:
        raise BudgetExceeded(
            f"{free} free cells exceed the enumeration cap "
            f"({EXTENSION_FREE_CELL_CAP}); use sample_extension"
        )
    js = range(k, k + 1) if exact_dim else range(k + 1)
    for j in js:
        shift = _npts(n)
        width = _npts(n + j) - shift
        for bits in range(1 << width):
            yield Matroid(n + j, M.table | (bits << shift))


def ext_membership(Mp: Matroid, M: Matroid, k: int) -> bool:
    """True iff M is (isomorphic to) a restriction of Mp to a subspace of
    codimension at most k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not M.dim <= Mp.dim <= M.dim + k:
        return False
    for W in enumerate_subspaces(Mp.dim, M.dim):
        sub = restrict(Mp, W)
        if sub.weight == M.weight and is_isomorphic(sub, M):
            return True
    return False


# --- samplers ----------------------------------------------------------------

def _as_rng(seed) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def sample_matroid(n: int, seed) -> Matroid:
    """Uniformly random dim-n matroid, deterministic per seed."""
    rng = _as_rng(seed)
    npts = _npts(n)
    return Matroid(n, rng.getrandbits(npts) if npts else 0)


def sample_extension(M: Matroid, k: int, seed) -> Matroid:
    """Uniformly random exact-dimension extension of M, deterministic per seed."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    rng = _as_rng(seed)
    n = M.dim
    width = _npts(n + k) - _npts(n)
    bits = rng.getrandbits(width) if width else 0
    return Matroid(n + k, M.table | (bits << _npts(n)))


# --- builtin pattern names (shared by CLI and tests) -------------------------

def builtin_pattern(name: str) -> Pattern:
    """Patterns addressable by name: O2, I1, BB:k:d, ones:d, zeros:d."""
    if name == "O2":
        return Pattern.constant(2, 0)
    if name == "I1":
        return Pattern.constant(1, 1)
    parts = name.split(":")
    try:
        if parts[0] == "BB" and len(parts) == 3:
            return bose_burton(int(parts[1]), int(parts[2]))
        if parts[0] == "ones" and len(parts) == 2:
            return Pattern.constant(int(parts[1]), 1)
        if parts[0] == "zeros" and len(parts) == 2:
            return Pattern.constant(int(parts[1]), 0)
    except ValueError as exc:
        raise ValueError(f"bad parameters in pattern name {name!r}: {exc}") from None
    raise ValueError(
        f"unknown pattern name {name!r} (want O2, I1, BB:k:d, ones:d or zeros:d)"
    )
