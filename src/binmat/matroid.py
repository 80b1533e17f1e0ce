"""Simple binary matroids and patterns over PG(n-1, 2).

A matroid here is just a total {0,1}-valued function on the 2^n - 1 points
of F_2^n (stored as one bit table packed in an int, bit p-1 for point p).
A pattern additionally allows the unconstrained value '*'.  An instance of a
pattern N in a target M is an injective linear map phi with
N(x) = M(phi(x)) for every non-star cell x of N.

Everything in this module is exact: densities are fractions.  Instance
search, canonical_form and critical_number are one search over basis images,
gf2._image_search, each with a filter that prunes on the partial span.
count_instances walks that search only over the first d - 1 images and
counts the last level by popcount: per prefix, every admissible last image
is one bit of an int mask over F_2^n (the AND of the last level's need
masks, each moved by gf2._xor_shift).
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
    _image_search,
    _mask_points,
    _points_mask,
    _xor_shift,
    count_linear_injections,
    random_linear_injection,
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
    "ext_membership",
    "sample_matroid",
    "sample_extension",
    "builtin_pattern",
    "load_table",
]

STAR = "*"

EVALUATION_STAR_CAP = 20
TABLE_MAX_DIM = 20  # the largest dimension any routine handles (factor partitions)


def _npts(dim: int) -> int:
    """Number of points of F_2^dim.  Every table size goes through here, so
    a dimension no routine handles is refused before anything is allocated."""
    if not 0 <= dim <= TABLE_MAX_DIM:
        raise ValueError(f"dimension must be in [0, {TABLE_MAX_DIM}], got {dim}")
    return (1 << dim) - 1


def _mask_cells(mask: int, n: int) -> str:
    """The n bits of mask as '0'/'1' characters, bit 0 first, in linear time
    (the leading 1 keeps the zero high bits, then it is cut off)."""
    return bin(mask | 1 << n)[3:][::-1]


def _cells_mask(cells: str) -> int:
    """Inverse of _mask_cells on a '0'/'1' string, in linear time."""
    return int("0" + cells[::-1], 2)


class _Table:
    """What Matroid and Pattern share: a labeling of the n_points points of
    F_2^dim, rendered from one cell string whose character p-1 is the value
    of point p."""

    @property
    def n_points(self) -> int:
        return _npts(self.dim)

    def __call__(self, x: Union[int, GF2Vector]):
        if isinstance(x, GF2Vector):
            if x.ambient_dim != self.dim:
                raise ValueError("ambient dimension mismatch")
            x = x.bits
        return self.value_bits(x)

    def to_text(self) -> str:
        return f"dim={self.dim}\n{self.cells()}\n"

    def to_json_dict(self) -> dict:
        kind = type(self).__name__.lower()
        return {"format": 1, "kind": kind, "dim": self.dim, "table": self.cells()}

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, table={self.cells()!r})"


@dataclass(frozen=True, repr=False)
class Matroid(_Table):
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
        for v in values:
            if v not in (0, 1):
                raise ValueError(f"matroid values are 0/1, got {v!r}")
        return cls(n, _cells_mask("".join("01"[v] for v in values)))

    @classmethod
    def constant(cls, dim: int, value: int) -> "Matroid":
        if value not in (0, 1):
            raise ValueError("constant value must be 0 or 1")
        return cls(dim, value * ((1 << _npts(dim)) - 1))

    def value_bits(self, p: int) -> int:
        if not 1 <= p <= self.n_points:
            raise ValueError(f"{p} is not a point of PG({self.dim}-1, 2)")
        return (self.table >> (p - 1)) & 1

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

    def cells(self) -> str:
        return _mask_cells(self.table, self.n_points)


@dataclass(frozen=True, repr=False)
class Pattern(_Table):
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
        cells = []
        for v in values:
            if v == 1 or v == 0:
                cells.append("1" if v == 1 else "0")
            elif v == STAR or v is None:
                cells.append(STAR)
            else:
                raise ValueError(f"pattern values are 0/1/'*', got {v!r}")
        return cls(n, *_star_cells_masks("".join(cells)))

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

    def cells(self) -> str:
        n = self.n_points
        ones, stars = _mask_cells(self.ones, n), _mask_cells(self.stars, n)
        return "".join(STAR if s == "1" else c for c, s in zip(ones, stars))


_ZERO_CELLS = str.maketrans("01" + STAR, "100")  # the zero cells as '1'


def _star_cells_masks(cells: str) -> tuple[int, int]:
    """(ones, zeros) masks of a '0'/'1'/'*' cell string, in linear time."""
    return _cells_mask(cells.replace(STAR, "0")), _cells_mask(cells.translate(_ZERO_CELLS))


def _parse_table_text(text: str) -> tuple[int, str]:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) == 1 and lines[0].startswith("dim="):
        lines.append("")  # a dim-0 table's cell line is empty; any other dim fails below
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
    ones, zeros = _star_cells_masks(chars)
    if STAR not in chars:
        return Matroid(dim, ones)
    return Pattern(dim, ones, zeros)


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
    pts = span_table(W.basis)

    def pull_back(mask: int) -> int:
        on = bytearray(1 << obj.dim)  # on[p]: p is set in mask; O(1), unlike a shift of mask
        for p in _mask_points(mask):
            on[p] = 1
        return _points_mask([y for y in range(1, len(pts)) if on[pts[y]]])

    if isinstance(obj, Matroid):
        return Matroid(W.dim, pull_back(obj.table))
    if isinstance(obj, Pattern):
        return Pattern(W.dim, pull_back(obj.ones), pull_back(obj.zeros))
    raise TypeError(f"expected Matroid or Pattern, got {type(obj).__name__}")


# --- instance search -------------------------------------------------------

def _instance_levels(N, tgt):
    """The instance search of N in tgt as (d, n, cons, admits), or None when
    no injection can realize N: level i decides phi on the points 2^i + xoff
    (0 <= xoff < 2^i), cons[i] lists each constrained one as (xoff, need),
    need the target's mask of the value it asks for (bit v for vector v), and
    admits is the per-level filter of gf2._image_search.

    N and tgt may each be a Matroid or a Pattern; for a Pattern target the
    match is exact (a '*' cell of tgt satisfies no 0/1 requirement of N, so
    constrained source cells must land on equal-valued target cells).
    """
    src, tgt_pat = _coerce_pattern(N), _coerce_pattern(tgt)
    d = src.dim
    n = tgt_pat.dim
    # an injection maps distinct points to distinct points
    if d > n or src.ones.bit_count() > tgt_pat.ones.bit_count() or (
        src.zeros.bit_count() > tgt_pat.zeros.bit_count()
    ):
        return None
    tgt_ones, tgt_zeros = tgt_pat.ones << 1, tgt_pat.zeros << 1  # bit p for point p
    cons: list[list[tuple[int, int]]] = [[] for _ in range(d)]
    for x in _mask_points(src.ones | src.zeros):
        i = x.bit_length() - 1
        cons[i].append((x - (1 << i), tgt_ones if (src.ones >> (x - 1)) & 1 else tgt_zeros))

    def admits(i: int, img: int, table: list[int]) -> bool:
        for xoff, need in cons[i]:
            if not (need >> (table[xoff] ^ img)) & 1:
                return False
        return True

    return d, n, cons, admits


def find_instance(N, M) -> Optional[LinearMap]:
    """A witness injection realizing N inside M, or None: the first in
    LinearInjections index order."""
    levels = _instance_levels(N, M)
    if levels is None:
        return None
    d, n, _, admits = levels
    images = next(_image_search(d, n, admits), None)
    return None if images is None else LinearMap(N.dim, M.dim, images)


def count_instances(N, M) -> int:
    """The number of injections realizing N inside M.

    The search walks only the first d - 1 basis images, with find_instance's
    filter: at most count_linear_injections(d - 1, n) prefixes.  For each
    prefix, the last image img is admissible iff need has bit
    table[xoff] ^ img set for each last-level constraint (xoff, need): the
    AND of the needs, each moved by gf2._xor_shift, is the mask of every
    admissible img, and its popcount outside the prefix's span counts them
    in one step.  A prefix with c last-level constraints thus costs
    O((c n + 2^(d-1)) 2^n / 64) word operations, not O(1).
    """
    levels = _instance_levels(N, M)
    if levels is None:
        return 0
    d, n, cons, admits = levels
    if d == 0:
        return 1  # the empty map
    full = (1 << (1 << n)) - 1
    total = 0
    for prefix in _image_search(d - 1, n, admits):
        table = span_table(prefix)
        cand = full
        for xoff, need in cons[d - 1]:
            cand &= _xor_shift(need, table[xoff], n)
        total += cand.bit_count() - sum(cand >> p & 1 for p in table)
    return total


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
    cells = list(M.cells())  # '0' < '1', so cell lists compare like tables
    lower = sorted(cells)
    if cells == lower:
        return M
    value = [""] + cells  # value[p] is the cell of point p
    best = cells[:]
    cur = cells[:]
    order = sorted(range(1, len(value)), key=lambda p: (value[p], p))

    def admits(i: int, img: int, table: list[int]) -> bool:
        # level i decides the cells of the points 2^i .. 2^(i+1) - 1
        base = (1 << i) - 1
        for xoff in range(1 << i):
            cur[base + xoff] = value[table[xoff] ^ img]
        end = base + (1 << i)
        return cur[:end] <= best[:end]

    for _ in _image_search(n, n, admits, order):
        if cur < best:
            best[:] = cur
            if best == lower:
                break
    return Matroid(n, _cells_mask("".join(best)))


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
        return cls(M.dim, tuple(map(int, M.cells())))

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
    """True iff A's star set (plus 0) is a subspace of codimension exactly k.

    The star count must be 2^(dim-k) - 1; then the stars form that subspace
    iff their span, grown by span_step, never needs more than dim-k vectors.
    """
    r = A.dim - k
    if not 0 <= r <= A.dim or A.stars.bit_count() != (1 << r) - 1:
        return False
    span, seen = [0], {0}
    for p in _mask_points(A.stars):
        if p not in seen:
            if len(span) == 1 << r:
                return False
            seen.update(span_step(span, len(span).bit_length() - 1, p))  # level log2 len(span)
    return True


def evaluations(B: Pattern) -> Iterator[Matroid]:
    """All matroids obtained by filling B's '*' cells with bits."""
    n_stars = B.stars.bit_count()  # checked before the star cells are listed
    if n_stars > EVALUATION_STAR_CAP:
        raise BudgetExceeded(
            f"{n_stars} star cells exceed the evaluation cap "
            f"({EVALUATION_STAR_CAP}); sample instead"
        )
    stars = _mask_points(B.stars)
    for bits in range(1 << len(stars)):
        filled = _points_mask([p for j, p in enumerate(stars) if (bits >> j) & 1])
        yield Matroid(B.dim, B.ones | filled)


# --- critical number --------------------------------------------------------

def critical_number(M: Matroid) -> int:
    """Least codimension of a subspace on which M vanishes identically.

    One basis-image search over the zero points, ascending.  Level i admits
    img only if its highest bit is above every earlier image's, it has none
    of their leading bits set, and img plus each earlier span point is a
    zero point.  The images are then the unique reduced echelon basis of
    their span (leading-bit pivots), and every prefix is the basis of a
    subflat, so each all-zero flat is visited exactly once.  Every later
    image has a higher leading bit than img, so a flat through img has
    dimension at most i + 1 + n - img.bit_length(); img is rejected when
    that cannot beat the largest flat seen.  The search stops at the first
    flat of dimension cap, the point-count bound.
    """
    n, zeros = M.dim, M.zeros_mask
    count = zeros.bit_count()
    cap = 0
    while cap < n and (1 << (cap + 1)) - 1 <= count:
        cap += 1
    leads = [0] * (cap + 1)  # leads[i]: the leading bits of the first i images
    best = 0  # the deepest level admitted: the largest all-zero flat seen
    order = _mask_points(zeros)
    is_zero = bytearray(1 << n)  # is_zero[p]: p is a zero point; O(1), unlike a shift of zeros
    for p in order:
        is_zero[p] = 1

    def admits(i: int, img: int, table: list[int]) -> bool:
        nonlocal best
        lead = leads[i]
        if img.bit_length() <= lead.bit_length() or img & lead:
            return False
        if i + n - img.bit_length() < best:
            return False
        for x in range(1, 1 << i):
            if not is_zero[table[x] ^ img]:
                return False
        leads[i + 1] = lead | 1 << (img.bit_length() - 1)
        best = max(best, i + 1)
        return True

    next(_image_search(cap, n, admits, order), None)
    return n - best


# --- extension operators ----------------------------------------------------

def ext_membership(Mp: Matroid, M: Matroid, k: int) -> bool:
    """True iff M is (isomorphic to) a restriction of Mp to a subspace of
    codimension at most k.

    An instance of M in Mp is an isomorphism of M onto the restriction of Mp
    to the instance's image, and every such isomorphism is one, so this is
    one instance search.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return M.dim <= Mp.dim <= M.dim + k and find_instance(M, Mp) is not None


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
