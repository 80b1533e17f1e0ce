"""Hereditary properties Forb(N_1, ..., N_r): membership, exact censuses,
property critical numbers, Core membership, Ramsey small values, and the
free-extension counting bound.

Counting engine
---------------
A forbidden pattern N induces, per ambient dimension n, a finite set of
*instance constraints*: pairs of point masks (oq, zq) such that a matroid
with one-mask t contains that instance iff t & oq == oq and t & zq == 0.
Membership in Forb is "no constraint active".  One exact engine counts
members: a bit-packed sweep over all 2^(2^n - 1) tables, 64 tables per
uint64 word.  The low 6 table bits are the bit inside a word, so each
constraint marks a precomputed word mask; the next MID_BITS table bits
index a strided (2,)*MID_BITS view of a chunk of words, and the remaining
high bits pick the chunk.  A constraint is OR-ed into the chunk only when
its high bits agree with the chunk's, and np.bitwise_count counts the
tables left unmarked.  Pinned points (free-extension counting) are
substituted into the constraints before the sweep, which then runs over
the free points only.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .errors import BudgetExceeded
from .gf2 import LinearInjections, Subspace, span_table, subspace_point_masks
from .matroid import (
    Matroid,
    Pattern,
    _coerce_pattern,
    bose_burton,
    critical_number,
    extensions,
    find_instance,
    restrict,
    sample_extension,
)

__all__ = [
    "LocalProperty",
    "CensusRow",
    "forb",
    "contains",
    "instance_constraints",
    "census",
    "count_members",
    "count_critical_at_most",
    "typical_structure_fraction",
    "property_critical_number",
    "core_membership",
    "core_membership_refute",
    "RamseyResult",
    "ramsey_dimension",
    "verify_ramsey_result",
    "FreeExtensionReport",
    "count_free_extensions",
    "isomorphism_class_census",
]

CENSUS_MAX_DIM = 5  # 2^n - 1 table bits must fit a 31-bit mask
RAMSEY_NODE_BUDGET = 50_000_000


@dataclass(frozen=True)
class LocalProperty:
    """Forb(forbidden): matroids with no instance of any forbidden pattern."""

    forbidden: tuple
    name: str = ""

    def __post_init__(self):
        pats = tuple(_coerce_pattern(N) for N in self.forbidden)
        object.__setattr__(self, "forbidden", pats)

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"LocalProperty({len(self.forbidden)} forbidden{label})"


def forb(*patterns, name: str = "") -> LocalProperty:
    return LocalProperty(tuple(patterns), name)


def contains(P: LocalProperty, M: Matroid) -> bool:
    """True iff M avoids every forbidden pattern of P."""
    return all(find_instance(N, M) is None for N in P.forbidden)


@dataclass(frozen=True)
class CensusRow:
    n: int
    count: int

    @property
    def entropy(self) -> float:
        return math.log2(self.count) if self.count > 0 else float("-inf")

    def to_json_dict(self) -> dict:
        return {"n": self.n, "count": str(self.count), "entropy": self.entropy}


@lru_cache(maxsize=None)
def instance_constraints(N: Pattern, n: int) -> tuple:
    """Distinct (ones_mask, zeros_mask) pairs over all embeddings of N into
    dimension n: a table t contains an N-instance iff some pair is active
    (t & oq == oq and t & zq == 0)."""
    d = N.dim
    if d > n:
        return ()
    if d == 0:
        return ((0, 0),)
    one_pts = [p for p in range(1, N.n_points + 1) if N.value_bits(p) == 1]
    zero_pts = [p for p in range(1, N.n_points + 1) if N.value_bits(p) == 0]
    seen = set()
    for images in LinearInjections(d, n).image_tuples():
        phi = span_table(images)
        oq = 0
        for x in one_pts:
            oq |= 1 << (phi[x] - 1)
        zq = 0
        for x in zero_pts:
            zq |= 1 << (phi[x] - 1)
        seen.add((oq, zq))
    return tuple(sorted(seen))


def _merged_constraints(P: LocalProperty, n: int) -> tuple:
    seen = set()
    for N in P.forbidden:
        seen.update(instance_constraints(N, n))
    return tuple(sorted(seen))


# --- engine --------------------------------------------------------------------

WORD_BITS = 6  # 64 tables per uint64 word
MID_BITS = 18  # 2^18 words (2 MiB) per chunk


def _substitute(constraints, fixed_points: int, fixed_ones: int) -> tuple:
    """The constraints on the free points once the first fixed_points points
    are pinned to fixed_ones, shifted so free point fixed_points + 1 is bit 0.
    A constraint the pins contradict, or one that asks a point to be both
    one and zero, can never hold and is dropped."""
    pin = (1 << fixed_points) - 1
    ones = fixed_ones & pin
    kept = {}
    for oq, zq in constraints:
        if oq & zq or oq & pin & ~ones or zq & ones:
            continue
        kept[(oq >> fixed_points, zq >> fixed_points)] = None
    return tuple(kept)


def _word_mask(oq: int, zq: int) -> np.uint64:
    """Bit j set iff the table with low bits j satisfies (oq, zq) there."""
    return np.uint64(sum(1 << j for j in range(64) if j & oq == oq and not j & zq))


def _plan(mid: int, constraints) -> list:
    """Per constraint: the chunk bits it needs (ones, zeros), the index of
    the words it touches in the (2,)*mid view, and its word mask."""
    low = (1 << WORD_BITS) - 1
    plan = []
    for oq, zq in constraints:
        idx = []
        for axis in range(mid):
            bit = 1 << (WORD_BITS + mid - 1 - axis)
            idx.append(1 if oq & bit else 0 if zq & bit else slice(None))
        shift = WORD_BITS + mid
        plan.append((oq >> shift, zq >> shift, tuple(idx), _word_mask(oq & low, zq & low)))
    return plan


def _scan(nbits: int, forbid, require=()) -> Iterator[tuple]:
    """Sweep all 2^nbits tables, 64 per uint64 word (table t is bit t % 64
    of word t // 64), one chunk of up to 2^MID_BITS words at a time.  Yield
    (chunk, good, hit): good marks the tables on which no forbid constraint
    holds, hit those on which some require constraint holds (None without
    require); both arrays are reused from chunk to chunk.  Word w of chunk
    c holds tables (c * 2^mid + w) * 64 + j, j < 64.  The constraints must
    have been through _substitute."""
    mid = max(0, min(MID_BITS, nbits - WORD_BITS))
    valid = np.uint64((1 << (1 << min(nbits, WORD_BITS))) - 1)
    forbid_plan = _plan(mid, forbid)
    require_plan = _plan(mid, require) if require else None
    words = np.empty(1 << mid, dtype=np.uint64)
    hits = np.empty(1 << mid, dtype=np.uint64) if require else None

    def mark(out, plan, c):
        out.fill(0)
        view = out.reshape((2,) * mid)
        for oh, zh, idx, wm in plan:
            if c & oh == oh and not c & zh:
                view[idx] |= wm

    for c in range(1 << max(0, nbits - WORD_BITS - mid)):
        mark(words, forbid_plan, c)
        np.invert(words, out=words)
        words &= valid
        if require:
            mark(hits, require_plan, c)
        yield c, words, hits


def _members(n: int, forbid) -> Iterator[int]:
    """The one-masks of the dim-n tables on which no forbid constraint
    holds, in ascending order."""
    for c, good, _ in _scan((1 << n) - 1, _substitute(forbid, 0, 0)):
        bits = np.unpackbits(good.astype("<u8").view(np.uint8), bitorder="little")
        base = c * 64 * len(good)
        yield from (base + t for t in np.flatnonzero(bits).tolist())


def _check_free_bits(free: int) -> None:
    cap = (1 << CENSUS_MAX_DIM) - 1
    if free > cap:
        raise BudgetExceeded(f"{free} free table bits exceed the exact-count cap of {cap}")


def count_members(
    n: int,
    forbid: Sequence[tuple],
    require: Sequence[tuple] = (),
    fixed_points: int = 0,
    fixed_ones: int = 0,
) -> tuple[int, int]:
    """(members, members activating some require constraint), exact.

    A table t is a member iff no forbid constraint is active on it; the
    second component counts members with at least one active require
    constraint.  fixed_points/fixed_ones pin the values of the first
    fixed_points points (free-extension counting); only the free points
    are scanned.  Raises BudgetExceeded, before allocating anything, when
    more than 2^CENSUS_MAX_DIM - 1 points are free.
    """
    free = (1 << n) - 1 - fixed_points
    _check_free_bits(free)
    forbid = _substitute(forbid, fixed_points, fixed_ones)
    require = _substitute(require, fixed_points, fixed_ones)
    total = hold = 0
    for _, good, hit in _scan(free, forbid, require):
        total += int(np.bitwise_count(good).sum())
        if require:
            hold += int(np.bitwise_count(good & hit).sum())
    return total, hold


# --- censuses ----------------------------------------------------------------

def census(P: LocalProperty, n: int) -> CensusRow:
    """Exact labeled count of the dim-n members of P."""
    if n > CENSUS_MAX_DIM:
        raise BudgetExceeded(
            f"exact census is capped at dim {CENSUS_MAX_DIM}; estimate by "
            f"sampling (sample_matroid + contains) instead"
        )
    total, _ = count_members(n, _merged_constraints(P, n))
    return CensusRow(n, total)


def _flat_requires(n: int, flat_dim: int, side: int) -> tuple:
    """One require constraint per dim-flat_dim subspace: all-zero (side 0)
    or all-one (side 1) on it."""
    masks = subspace_point_masks(n, flat_dim)
    return tuple((0, mask) if side == 0 else (mask, 0) for mask in masks)


def count_critical_at_most(n: int, k: int, side: int = 0) -> int:
    """|{dim-n matroids with an all-`side` subspace of codimension <= k}|.

    Side 0 is the critical-number family (critical_number <= k); side 1 is
    its complement-symmetric image.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if n > CENSUS_MAX_DIM:
        raise BudgetExceeded(f"exact counting is capped at dim {CENSUS_MAX_DIM}")
    if side not in (0, 1):
        raise ValueError("side must be 0 or 1")
    _, hold = count_members(n, (), _flat_requires(n, n - k, side))
    return hold


def typical_structure_fraction(P: LocalProperty, n: int, k: int, side: int = 0) -> Fraction:
    """Fraction of dim-n members of P with an all-`side` subspace of
    codimension <= k, as an exact rational."""
    if n > CENSUS_MAX_DIM:
        raise BudgetExceeded(f"exact census is capped at dim {CENSUS_MAX_DIM}")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if side not in (0, 1):
        raise ValueError("side must be 0 or 1")
    forbid = _merged_constraints(P, n)
    total, hold = count_members(n, forbid, _flat_requires(n, n - k, side))
    if total == 0:
        raise ValueError(f"property has no members at dim {n}; fraction undefined")
    return Fraction(hold, total)


# --- property critical number -------------------------------------------------

def property_critical_number(P: LocalProperty) -> int:
    """Largest k such that all matroids vanishing (or all-ones) on a
    codimension-k subspace belong to P, by finite certification.

    The family M(k, 0) escapes Forb(N_1..N_r) iff for some N_i the
    ones-only weakening of N_i embeds into the Bose-Burton pattern
    BB(min(k, dim N_i), dim N_i); side 1 symmetrically with the zeros-only
    weakening in the complemented pattern.  Any hit converts into an
    explicit witness matroid, which is re-verified before returning.
    """
    if not P.forbidden:
        raise ValueError("Forb(empty) contains every matroid: critical number unbounded")
    dims = [N.dim for N in P.forbidden]
    if max(dims) > 5:
        raise BudgetExceeded("certification is capped at forbidden-pattern dim 5")

    def escape_witness(k: int, side: int) -> Optional[Matroid]:
        """A matroid in M(k, side) outside P, or None if M(k, side) <= P."""
        for N in P.forbidden:
            d = N.dim
            ke = min(k, d)
            if side == 0:
                probe, target = N.ones_only(), bose_burton(ke, d)
            else:
                probe, target = N.zeros_only(), bose_burton(ke, d).complement()
            phi = find_instance(probe, target)
            if phi is None:
                continue
            placed = 0
            keep = N.ones if side == 0 else N.zeros
            for x in range(1, N.n_points + 1):
                if (keep >> (x - 1)) & 1:
                    placed |= 1 << (phi.apply_bits(x) - 1)
            if side == 0:
                witness = Matroid(d, placed)
            else:
                witness = Matroid(d, ((1 << ((1 << d) - 1)) - 1) ^ placed)
            # self-check the witness against the definition-level formulation
            assert not contains(P, witness)
            side_crit = critical_number(witness if side == 0 else witness.complement())
            assert side_crit <= ke
            return witness
        return None

    k = 0
    while True:
        w0 = escape_witness(k, 0)
        w1 = escape_witness(k, 1)
        if w0 is not None and w1 is not None:
            break
        k += 1
        if k > max(dims) + 1:
            raise AssertionError("certification failed to terminate")
    if k == 0:
        raise ValueError(
            "trivial property: both constant families escape it at codimension 0"
        )
    return k - 1


# --- Core membership -----------------------------------------------------------

def core_membership(M: Matroid, P: LocalProperty, k: int) -> bool:
    """True iff every dim+k extension of M belongs to P (hence all of
    Ext^k(M), since P is hereditary)."""
    return all(contains(P, E) for E in extensions(M, k, exact_dim=True))


def core_membership_refute(
    M: Matroid, P: LocalProperty, k: int, samples: int, seed=0
) -> Optional[bool]:
    """Monte-Carlo refutation: False if a sampled extension leaves P,
    None (unknown) otherwise.  For use past the enumeration cap."""
    if samples <= 0:
        raise ValueError("need samples > 0")
    rng = random.Random(seed)
    for _ in range(samples):
        E = sample_extension(M, k, rng)
        if not contains(P, E):
            return False
    return None


# --- Ramsey small values --------------------------------------------------------

@dataclass(frozen=True)
class RamseyResult:
    flat_dim: int
    value: Optional[int]
    counterexamples: dict = field(default_factory=dict)
    transcript: Optional[dict] = None


def _search_good_coloring(n: int, d: int, node_budget: int) -> tuple[Optional[Matroid], int]:
    """A dim-n coloring with no monochromatic d-flat (first point fixed to
    color 0; valid by flip symmetry), plus the DFS node count."""
    npts = (1 << n) - 1
    if d > n:
        return Matroid(n, 0), 1
    flats = list(subspace_point_masks(n, d))
    by_last: list[list] = [[] for _ in range(npts + 1)]
    maxlast = 1
    for f in flats:
        last = f.bit_length()
        by_last[last].append(f)
        maxlast = max(maxlast, last)
    nodes = 0

    def rec(p: int, ones: int) -> Optional[int]:
        nonlocal nodes
        if p > maxlast:
            return ones  # remaining points take color 0
        choices = (0,) if p == 1 else (0, 1)
        bit = 1 << (p - 1)
        for v in choices:
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded(
                    f"DFS node budget {node_budget} exhausted at dim {n}"
                )
            t = ones | bit if v else ones
            ok = True
            for f in by_last[p]:
                cap = t & f
                if cap == f or cap == 0:
                    ok = False
                    break
            if ok:
                got = rec(p + 1, t)
                if got is not None:
                    return got
        return None

    got = rec(1, 0)
    return (Matroid(n, got) if got is not None else None), nodes


def ramsey_dimension(d: int, n_max: int, node_budget: int = RAMSEY_NODE_BUDGET) -> RamseyResult:
    """Least n <= n_max such that every dim-n coloring has a monochromatic
    d-dimensional restriction, with certificates.

    Emits a counterexample coloring for every smaller dimension tried (in
    particular at value - 1) and an exhaustive-search transcript at the
    returned dimension.
    """
    if d < 1:
        raise ValueError("flat dimension must be >= 1")
    counterexamples: dict[int, Matroid] = {}
    for n in range(max(d - 1, 0), n_max + 1):
        if n > 8:
            raise BudgetExceeded("subspace enumeration is capped at dim 8")
        coloring, nodes = _search_good_coloring(n, d, node_budget)
        if coloring is None:
            transcript = {
                "dimension": n,
                "flat_dim": d,
                "nodes": nodes,
                "normalization": "first point fixed to color 0 (flip symmetry)",
                "exhausted": True,
            }
            return RamseyResult(d, n, counterexamples, transcript)
        counterexamples[n] = coloring
    return RamseyResult(d, None, counterexamples, None)


def verify_ramsey_result(result: RamseyResult, samples: int = 10_000, seed=0) -> bool:
    """Independent certificate check: counterexamples are re-verified
    pointwise against every d-flat; at the returned value, universality is
    re-tested on `samples` random colorings and the transcript must claim
    exhaustion."""
    d = result.flat_dim
    for n, M in result.counterexamples.items():
        if M.dim != n:
            return False
        for f in subspace_point_masks(n, d) if d <= n else ():
            cap = M.table & f
            if cap == f or cap == 0:
                return False
    if result.value is None:
        return True
    n = result.value
    t = result.transcript
    if not t or t.get("dimension") != n or not t.get("exhausted"):
        return False
    if n - 1 not in result.counterexamples:
        return False  # a value is only accepted with its one-below certificate
    flats = list(subspace_point_masks(n, d))
    rng = random.Random(seed)
    npts = (1 << n) - 1
    for _ in range(samples):
        table = rng.getrandbits(npts)
        if not any((table & f) == f or (table & f) == 0 for f in flats):
            return False  # definitive refutation of universality
    return True


# --- free-extension counting bound ----------------------------------------------

@dataclass(frozen=True)
class FreeExtensionReport:
    count: int
    total: int
    base_dim: int
    ambient_dim: int
    pattern_dim: int
    codim: int
    applicable: bool
    epsilon: Fraction
    bound_log2: Fraction

    @property
    def bound(self) -> float:
        return 2.0 ** float(self.bound_log2)

    @property
    def holds(self) -> bool:
        """count <= 2^bound_log2, decided exactly outside a narrow band."""
        if self.count == 0:
            return True
        if self.bound_log2 < 0:
            return False
        lo = math.floor(self.bound_log2)
        if self.count <= (1 << lo):
            return True
        hi = math.ceil(self.bound_log2)
        if self.count > (1 << hi):
            return False
        return float(self.count) <= 2.0 ** float(self.bound_log2)


def count_free_extensions(M: Matroid, W_dim_ambient: int, Np) -> FreeExtensionReport:
    """Exact number of Np-free extensions of M to dimension W_dim_ambient,
    reported with the counting bound 2^(2^n (1 - 2^-k - eps)),
    eps = 2^-2^(d+1).  The bound is asserted when its hypotheses hold
    (k = n - dim M in [1, d], d <= n, and M contains the restriction
    of Np to its first d - k coordinates).  Raises BudgetExceeded, before
    building any constraint, when more cells are free than the counting
    engine's cap of 2^CENSUS_MAX_DIM - 1."""
    n = W_dim_ambient
    m = M.dim
    if n < m:
        raise ValueError("ambient dimension is smaller than dim M")
    NpP = _coerce_pattern(Np)
    d = NpP.dim
    k = n - m
    free = ((1 << n) - 1) - ((1 << m) - 1)
    _check_free_bits(free)  # before building constraints for a large n
    cons = instance_constraints(NpP, n)
    count, _ = count_members(n, cons, fixed_points=(1 << m) - 1, fixed_ones=M.table)
    total = 1 << free
    applicable = 1 <= k <= d <= n
    if applicable:
        base_space = Subspace(d, tuple(1 << i for i in range(d - k)))
        base_pattern = restrict(NpP, base_space)
        applicable = find_instance(base_pattern, M) is not None
    eps = Fraction(1, 1 << (1 << (d + 1)))
    bound_log2 = (1 << n) * (1 - Fraction(1, 1 << k) - eps) if k >= 0 else Fraction(0)
    report = FreeExtensionReport(
        count=count,
        total=total,
        base_dim=m,
        ambient_dim=n,
        pattern_dim=d,
        codim=k,
        applicable=applicable,
        epsilon=eps,
        bound_log2=bound_log2,
    )
    if report.applicable:
        assert report.holds, (
            f"free-extension bound violated: count={count} > 2^{float(bound_log2):.4f}"
        )
    return report


# --- diagnostics -----------------------------------------------------------------

def isomorphism_class_census(P: LocalProperty, n: int) -> int:
    """Number of isomorphism classes among the dim-n members (diagnostic;
    much slower than the labeled census)."""
    from .matroid import canonical_form

    if n > 4:
        raise BudgetExceeded("isomorphism-class census is capped at dim 4")
    classes = set()
    for t in _members(n, _merged_constraints(P, n)):
        classes.add(canonical_form(Matroid(n, t)).table)
    return len(classes)
