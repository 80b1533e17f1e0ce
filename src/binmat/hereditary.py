"""Hereditary properties Forb(N_1, ..., N_r): membership, exact censuses,
property critical numbers, Core membership, Ramsey small values, and the
free-extension counting bound.

Counting engine
---------------
A forbidden pattern N induces, per ambient dimension n, a finite set of
*instance constraints*: pairs of point masks (oq, zq) such that a matroid
with one-mask t contains that instance iff t & oq == oq and t & zq == 0.
They are built once per subspace: N's orbit under the transvections is
mapped through the span table of each subspace's echelon basis.  One
engine (_sweep) counts the tables on which no constraint holds, so the
members of Forb: a bit-packed sweep over all 2^(2^n - 1) tables, 64 per
uint64 word.  The constraints are split once into groups by their part
above the low WORD_BITS + ROW_BITS table bits, and each group is marked
once into a bitmap of one row of 2^ROW_BITS words; a group then ORs its
bitmap into the rows it holds on, one contiguous OR per row.  Blocks of
2^MID_BITS words are walked as a binary tree over the chunk bits above
them, depth first, one block per depth: each node ORs into its parent's
block (a copy of it for the first child) only the groups its own bit
decides last, and at a leaf np.bitwise_count counts the tables marked.  Pinned points (free-extension
counting, Core membership) are applied to the constraint arrays before
the sweep, which then runs over the free points only; with none free, the
one table is searched directly.  The members on which some require
constraint holds are counted by complement: members minus one sweep of
forbid and require.

The unpinned counts (census, count_critical_at_most, the typical-structure
fraction) do not sweep all 2^n - 1 points: their constraint sets are
GL(n,2)-invariant, so they count by hyperplane transfer (_transfer).  F_2^n
splits into the hyperplane H = F_2^(n-1) and its coset C; the tables on H
fall into GL(n-1,2)-orbits (46 at n = 5), and the member extensions of one
table per orbit, weighted by the orbit size, count them all.  The transfer
is one grouped array pass: each constraint set is split once by its part on
H, every group is tested against all orbit representatives in one
comparison, each group's parts on C are marked once into coset bitmaps of
2^(2^(n-1)) bits, and a representative's bitmap is the OR of the groups
that hold on it, so its member extensions are one popcount.  The
isomorphism-class census runs the sweep once per conjugacy class of
GL(n,2) (the checked-in gf2._GL_CLASSES), with one table bit per cycle and
each constraint mask mapped onto the cycles it meets, and its identity term
by the transfer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetExceeded
from .gf2 import (
    SUBSPACE_ENUM_MAX_DIM,
    Subspace,
    _GL_CLASSES,
    _echelon_bases,
    _transvection_perms,
    count_linear_injections,
    span_table,
    subspace_point_masks,
)
from .matroid import (
    Matroid,
    Pattern,
    _coerce_pattern,
    critical_number,
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
PATTERN_ORBIT_CAP = 1 << 15  # >= |GL(4,2)| = 20160, so every pattern of dim <= 4 fits
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
def _pattern_orbit(N: Pattern) -> tuple:
    """The distinct (ones, zeros) point tuples of N moved by each g in
    GL(dim N, 2): the closure of N's cell string (cell x is point x) under
    the transvections, which generate the group.  Each is an involution, so
    it moves the cell of perm[x] onto x.  Raises BudgetExceeded once the
    orbit passes PATTERN_ORBIT_CAP (a dim-5 pattern fixed only by the
    identity has 9,999,360)."""
    cells = "*" + N.cells()
    moves = [itemgetter(*perm) for perm in _transvection_perms(N.dim)]
    seen = {cells}
    todo = [cells]
    while todo:
        s = todo.pop()
        for move in moves:
            t = "".join(move(s))
            if t not in seen:
                seen.add(t)
                todo.append(t)
                if len(seen) > PATTERN_ORBIT_CAP:
                    raise BudgetExceeded(f"the GL({N.dim},2)-orbit of the pattern exceeds "
                                         f"the cap of {PATTERN_ORBIT_CAP} point sets")
    return tuple((tuple(x for x, c in enumerate(s) if c == "1"),
                  tuple(x for x, c in enumerate(s) if c == "0")) for s in seen)


@lru_cache(maxsize=None)
def instance_constraints(N: Pattern, n: int) -> tuple:
    """Distinct (ones_mask, zeros_mask) pairs over all embeddings of N into
    dimension n: a table t contains an N-instance iff some pair is active
    (t & oq == oq and t & zq == 0).

    The injections with image a subspace S are B o g, for B the map onto S's
    echelon basis and g in GL(dim N, 2), so each of N's point sets under the
    group (_pattern_orbit) is mapped once through each subspace's span table:
    one integer product of the subspaces' point bits with the orbit's cell
    incidences.  Past CENSUS_MAX_DIM the masks outgrow int64 and the arrays
    hold Python ints.
    """
    d = N.dim
    if d > n:
        return ()
    orbit = _pattern_orbit(N)
    npts = (1 << n) - 1
    dtype = np.int64 if n <= CENSUS_MAX_DIM else object
    bases = np.array(list(_echelon_bases(n, d)), dtype=dtype)
    spans = np.zeros((len(bases), 1 << d), dtype=dtype)
    for i in range(d):  # span_table's doubling, one subspace per row
        spans[:, 1 << i:2 << i] = spans[:, :1 << i] ^ bases[:, i:i + 1]
    bits = (1 << spans) >> 1  # point p -> bit p - 1; x = 0 is no point
    cells = np.zeros((2, 1 << d, len(orbit)), dtype=np.int64)
    for j, (ones, zeros) in enumerate(orbit):
        cells[0, ones, j] = 1
        cells[1, zeros, j] = 1
    oq, zq = bits @ cells
    pairs = (oq << npts | zq).ravel()
    pairs = pairs[np.argsort(pairs, kind="stable")]  # ascending in (oq, zq); the sort the transfer loads
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    return tuple(zip((pairs >> npts).tolist(), (pairs & ((1 << npts) - 1)).tolist()))


def _merged_constraints(patterns: Sequence[Pattern], n: int) -> tuple:
    seen = set()
    for N in patterns:
        seen.update(instance_constraints(N, n))
    return tuple(sorted(seen))


# --- engine --------------------------------------------------------------------

WORD_BITS = 6  # 64 tables per uint64 word
MID_BITS = 15  # 2^15 words (256 KiB) per block, one block per depth of the chunk tree
ROW_BITS = 10  # 2^10 words (8 KiB) per row of a block, the width of a group's bitmap
BITMAP_WORDS = 1 << 20  # 8 MiB of group bitmaps: full rows for up to 1024 constraints


_low = np.arange(1 << WORD_BITS)  # the tables j < 64 of a word, as their low bits
# _WORD_MASKS[oq, zq]: bit j set iff table j satisfies (oq, zq) on its low bits,
# j & oq == oq and not j & zq, so 0 when oq & zq; for oq, zq < 64
_WORD_MASKS = np.array([np.packbits((_low & oq == oq) & (_low & _low[:, None] == 0), axis=1,
                                    bitorder="little").view("<u8")[:, 0] for oq in _low],
                       dtype=np.uint64)


def _groups(key, oq, zq, bits: int) -> tuple:
    """Constraint parts (oq, zq), int64 arrays, none asking a point to be
    one and zero, sorted into groups of equal key for _bitmap: the order,
    the group bounds in it (group g is parts bounds[g] to bounds[g + 1]),
    and per part in that order its word mask (_WORD_MASKS of its low
    WORD_BITS bits, no table past 2^bits) and the word-index bits it needs
    one and those it fixes."""
    order = np.argsort(key, kind="stable")
    key, oq, zq = key[order], oq[order], zq[order]
    low = (1 << WORD_BITS) - 1
    masks = _WORD_MASKS[oq & low, zq & low] & np.uint64((1 << (1 << min(bits, WORD_BITS))) - 1)
    bounds = [*np.flatnonzero(np.diff(key, prepend=key[:1] - 1)).tolist(), len(key)]
    return order, bounds, masks, oq >> WORD_BITS, (oq | zq) >> WORD_BITS


def _bitmap(masks, ones, care, words: int) -> np.ndarray:
    """The tables c < 64 * words on which some of the parts (masks, ones,
    care from _groups, read on their low 6 + log2(words) bits) holds, as a
    bitmap, table c at bit c % 64 of word c // 64: a part marks its word mask
    in the words whose index agrees with it, one array test for all the
    parts.  _sweep and the transfer both mark a group of parts so."""
    w = np.arange(words)
    marked = np.where(w & care[:, None] == w[-1] & ones[:, None], masks[:, None], 0)
    return np.bitwise_or.reduce(marked, axis=0)


def _sweep(nbits: int, constraints) -> int:
    """The number of tables t < 2^nbits on which no constraint (oq, zq), int
    pairs or a (k, 2) array, holds; 0 at once with the empty constraint
    (0, 0), which holds on every table.

    Table t is bit t % 64 of a word, and the bits above read [chunk | row |
    row word]: rows of 2^width words (ROW_BITS, fewer when the bitmaps would
    outgrow BITMAP_WORDS) and blocks of 2^MID_BITS words.  The constraints
    are grouped by their part above the row words (_groups), and each group
    is marked once into a one-row bitmap (_bitmap) that is ORed into every
    row whose row bits agree with the group's.  The root block is built
    breadth first over the row bits (rows [0, 2^l) copied onto [2^l,
    2^(l+1)), then the groups whose highest row bit is l), and the chunk
    bits are walked as a binary tree, depth first, on a stack of blocks: a
    node ORs into its parent's block, or a copy of it, the groups whose
    highest chunk bit is its own and whose chunk bits agree with its prefix.
    OR is idempotent and order-free, so each leaf marks exactly the tables
    of its chunk on which some constraint holds."""
    oq, zq = np.asarray(constraints, dtype=np.int64).reshape(-1, 2).T
    if not (oq | zq).all():
        return 0
    oq, zq = np.compress((oq & zq) == 0, (oq, zq), axis=1)  # a point one and zero: never holds
    mid = max(0, min(MID_BITS, nbits - WORD_BITS))
    width = max(0, min(ROW_BITS, mid, (BITMAP_WORDS // max(1, len(oq))).bit_length() - 1))
    rows, high, shift = mid - width, max(0, nbits - WORD_BITS - mid), WORD_BITS + width
    order, bounds, masks, ones, care = _groups(oq >> shift << 32 | zq >> shift, oq, zq, nbits)
    plan = [[] for _ in range(high + 1)]  # plan[d]: the groups whose highest chunk bit is d - 1
    levels = [[] for _ in range(rows + 1)]  # levels[l]: the root's, by highest row bit l - 1
    heads = order[bounds[:-1]]
    for lo, hi, o, z in zip(bounds, bounds[1:], (oq[heads] >> shift).tolist(),
                            (zq[heads] >> shift).tolist()):
        depth = ((o | z) >> rows).bit_length()
        level = rows if depth else (o | z).bit_length()
        # its rows; the trailing ... makes indexing give a view, never a scalar
        idx = (*[1 if o >> b & 1 else 0 if z >> b & 1 else slice(None)
                 for b in reversed(range(level))], ...)
        bitmap = _bitmap(masks[lo:hi], ones[lo:hi], care[lo:hi], 1 << width)
        (plan[depth] if depth else levels[level]).append((o >> rows, z >> rows, idx, bitmap))
    stack = np.empty((high + 1, 1 << mid), dtype=np.uint64)
    root = stack[0].reshape(1 << rows, 1 << width)
    root[0] = 0
    for level, groups in enumerate(levels):
        half = (1 << level) >> 1
        root[half:2 * half] = root[:half]
        view = root[:1 << level].reshape((2,) * level + (1 << width,))
        for _, _, idx, bitmap in groups:
            hit = view[idx]  # `view[idx] |= ...` would write it back again
            hit |= bitmap
    views = [block.reshape((2,) * rows + (1 << width,)) for block in stack]
    marked = 0
    todo = [(0, 0, 0)]  # (depth, prefix, block) of the nodes still to visit
    while todo:
        depth, prefix, at = todo.pop()
        for o, z, idx, bitmap in plan[depth]:
            if prefix & o == o and not prefix & z:
                hit = views[at][idx]
                hit |= bitmap
        if depth < high:
            # the first child copies this block into the next one; the
            # second is popped after the first child's subtree, which writes
            # only later blocks, and takes this block over in place
            np.copyto(stack[at + 1], stack[at])
            todo.append((depth + 1, prefix | 1 << depth, at))
            todo.append((depth + 1, prefix, at + 1))
        else:
            marked += int(np.bitwise_count(stack[at]).sum(dtype=np.uint32))
    return (1 << nbits) - marked


def _check_dim(n: int, fixed_points: int = 0) -> None:
    """The one refusal of the exact counts, before any constraint is built:
    ValueError for n < 0 or fixed_points outside [0, 2^n - 1], BudgetExceeded
    past 2^CENSUS_MAX_DIM - 1 free table bits, which with nothing pinned is
    any n > CENSUS_MAX_DIM."""
    if n < 0:
        raise ValueError(f"dimension must be nonnegative, got n={n}")
    if fixed_points < 0 or fixed_points >> n:  # >= 2^n, without building 2^n
        raise ValueError(f"fixed_points must be in [0, 2^{n} - 1], got {fixed_points}")
    free = (1 << n) - 1 - fixed_points if n < 64 else "over 2^63"  # no huge int for a huge n
    cap = (1 << CENSUS_MAX_DIM) - 1
    if isinstance(free, str) or free > cap:
        raise BudgetExceeded(f"{free} free table bits exceed the exact-count cap of {cap}: exact "
                             f"counting is capped at dim {CENSUS_MAX_DIM}; estimate by sampling "
                             f"(sample_matroid + contains) instead")


def count_members(
    n: int,
    forbid: Sequence[tuple],
    require: Sequence[tuple] = (),
    fixed_points: int = 0,
    fixed_ones: int = 0,
) -> tuple[int, int]:
    """(members, members activating some require constraint), exact.

    A table t is a member iff no forbid constraint is active on it.  The
    members activating a require constraint are counted by complement: the
    members minus one sweep of forbid and require together, skipped when
    there is no require constraint or no member.  fixed_points/fixed_ones
    pin the values of the first fixed_points points (free-extension
    counting); only the free points are swept.  Raises ValueError for n < 0
    and BudgetExceeded, before allocating anything, when more than
    2^CENSUS_MAX_DIM - 1 points are free.
    """
    _check_dim(n, fixed_points)
    free = (1 << n) - 1 - fixed_points
    pin = (1 << fixed_points) - 1
    ones = fixed_ones & pin

    def pinned(constraints):  # shifted onto the free points; those the pins contradict never hold
        pairs = np.array(constraints, dtype=np.int64).reshape(-1, 2)
        return pairs[~(pairs & [pin & ~ones, ones]).any(axis=1)] >> fixed_points

    forbid, require = pinned(forbid), pinned(require)
    members = _sweep(free, forbid)
    if not len(require) or not members:
        return members, 0
    return members, members - _sweep(free, np.concatenate((forbid, require)))


# _TABLE_ORBITS[m]: one (least table, orbit size) pair per GL(m, 2)-orbit of
# the 2^(2^m - 1) tables on F_2^m, in table order, for m < CENSUS_MAX_DIM.
# Fixed data: the tests re-derive it by a union-find over the transvections
# and check each orbit against the isomorphism census.
_TABLE_ORBITS = (
    ((0, 1),),
    ((0, 1), (1, 1)),
    ((0, 1), (1, 3), (3, 3), (7, 1)),
    ((0, 1), (1, 7), (3, 21), (7, 7), (11, 28), (15, 28), (30, 7), (31, 21), (63, 7), (127, 1)),
    ((0, 1), (1, 15), (3, 105), (7, 35), (11, 420), (15, 420), (30, 105), (31, 315), (63, 105),
     (127, 15), (139, 840), (143, 1680), (158, 840), (159, 2520), (191, 840), (255, 120),
     (414, 420), (415, 420), (427, 280), (428, 168), (429, 1680), (431, 2520), (446, 2520),
     (447, 2520), (510, 420), (511, 420), (955, 2520), (959, 1680), (1016, 120), (1017, 840),
     (1019, 2520), (1023, 840), (2040, 15), (2041, 105), (2043, 315), (2047, 105), (3007, 168),
     (3038, 280), (3039, 1680), (3071, 840), (4091, 420), (4095, 420), (8190, 35), (8191, 105),
     (16383, 15), (32767, 1)),
)


def _coset_members(n: int, reps: np.ndarray, constraints) -> np.ndarray:
    """For each table t in reps on the hyperplane H, the low h = 2^(n-1) - 1
    points, the number of tables c on its coset C, the high h + 1 points,
    such that no constraint holds on t | c << h.

    A constraint splits into its part on H, (oq & pin, zq & pin), which holds
    on t or not, and its part on C, (oq >> h, zq >> h), which marks the
    coset tables it holds on.  The constraints are sorted into groups by
    their part on H (_groups), and every group is tested against every
    representative in one comparison: holds[r, g].  A representative on
    which a constraint on H alone holds has no member extension.  Each group
    that holds on another representative is marked once into a coset bitmap
    (_bitmap) and ORed into the row of each representative it holds on; a
    representative's count is 2^(h+1) minus the popcount of its row.
    """
    h = (1 << (n - 1)) - 1
    pin = (1 << h) - 1
    words = 1 << max(0, h + 1 - WORD_BITS)
    oq, zq = np.array(constraints, dtype=np.int64).reshape(-1, 2).T
    oq, zq = np.compress((oq & zq) == 0, (oq, zq), axis=1)  # a point one and zero: never holds
    # a constraint on H alone leaves no member extension where it holds
    on_h = (oq | zq) >> h == 0
    dead = ((reps[:, None] & oq[on_h] == oq[on_h]) & (reps[:, None] & zq[on_h] == 0)).any(axis=1)
    key = (oq & pin) << h | zq & pin
    order, bounds, masks, ones, care = _groups(key, oq >> h, zq >> h, h + 1)
    heads = key[order[bounds[:-1]]]
    holds = (reps[:, None] & heads >> h == heads >> h) & (reps[:, None] & heads & pin == 0)
    holds[dead] = False  # dead rows are not marked
    rows = np.zeros((len(reps), words), dtype=np.uint64)
    for g in np.flatnonzero(holds.any(axis=0)).tolist():
        lo, hi = bounds[g], bounds[g + 1]
        rows[holds[:, g]] |= _bitmap(masks[lo:hi], ones[lo:hi], care[lo:hi], words)
    return np.where(dead, 0, (1 << (h + 1)) - np.bitwise_count(rows).sum(axis=1, dtype=np.int64))


def _transfer(n: int, forbid: Sequence[tuple], require: Sequence[tuple] = ()) -> tuple[int, int]:
    """count_members(n, forbid, require) for GL(n, 2)-invariant constraint
    sets, by hyperplane transfer.

    F_2^n splits into the hyperplane H = F_2^(n-1), the low 2^(n-1) - 1
    table bits, and its coset C, the high 2^(n-1) bits.  The constraint sets
    are GL(n, 2)-invariant, so invariant under GL(n - 1, 2) acting on H with
    e_n -> e_n, which moves C onto itself: a table T on H and every gT have
    equally many member extensions to C.  So the extensions of one table per
    GL(n - 1, 2)-orbit (_TABLE_ORBITS), times the orbit size, count them all,
    and one grouped pass (_coset_members) counts them for every orbit at
    once.  The members activating a require constraint are counted by
    complement: the members minus a pass over forbid and require together.
    """
    _check_dim(n)
    if n == 0:
        return count_members(0, forbid, require)
    reps, sizes = np.array(_TABLE_ORBITS[n - 1], dtype=np.int64).T
    total = int(sizes @ _coset_members(n, reps, forbid))
    if not require or not total:
        return total, 0
    return total, total - int(sizes @ _coset_members(n, reps, (*forbid, *require)))


# --- censuses ----------------------------------------------------------------

def census(P: LocalProperty, n: int) -> CensusRow:
    """Exact labeled count of the dim-n members of P."""
    _check_dim(n)
    total, _ = _transfer(n, _merged_constraints(P.forbidden, n))
    return CensusRow(n, total)


def _check_structure_args(n: int, k: int, side: int) -> None:
    _check_dim(n)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if side not in (0, 1):
        raise ValueError("side must be 0 or 1")


def count_critical_at_most(n: int, k: int, side: int = 0) -> int:
    """|{dim-n matroids with an all-`side` subspace of codimension <= k}|.

    Side 0 is the critical-number family (critical_number <= k); side 1 is
    its complement-symmetric image.  All tables minus one forbid count:
    those with no such subspace.
    """
    _check_structure_args(n, k, side)
    without, _ = _transfer(n, instance_constraints(Pattern.constant(n - k, side), n))
    return (1 << ((1 << n) - 1)) - without


def _structure_counts(P: LocalProperty, n: int, k: int, side: int = 0) -> tuple[int, int]:
    """(dim-n members of P, those with an all-`side` subspace of
    codimension <= k), from one engine count."""
    _check_structure_args(n, k, side)
    forbid = _merged_constraints(P.forbidden, n)
    total, hold = _transfer(n, forbid, instance_constraints(Pattern.constant(n - k, side), n))
    if total == 0:
        raise ValueError(f"property has no members at dim {n}; fraction undefined")
    return total, hold


def typical_structure_fraction(P: LocalProperty, n: int, k: int, side: int = 0) -> Fraction:
    """Fraction of dim-n members of P with an all-`side` subspace of
    codimension <= k, as an exact rational."""
    total, hold = _structure_counts(P, n, k, side)
    return Fraction(hold, total)


# --- property critical number -------------------------------------------------

def property_critical_number(P: LocalProperty) -> int:
    """Largest k such that all matroids vanishing (or all-ones) on a
    codimension-k subspace belong to P, in closed form.

    Let M(k, 0) be the matroids that vanish on a subspace of codimension at
    most k.  M(k, 0) escapes Forb(N_1..N_r) exactly when some N_i's one
    cells avoid a subspace of codimension <= k of F_2^(dim N_i), that is
    when critical_number(Matroid(dim N_i, ones of N_i)) <= k: that matroid
    is then a member of M(k, 0) containing N_i through the identity.
    Conversely, an instance phi of N_i in a member of M(k, 0) pulls that
    member's all-zero subspace back to a subspace of codimension <= k,
    which avoids N_i's ones because phi maps them to one points.  Side 1
    (all-ones subspaces) is the same with N_i's zeros.  Both families
    escape exactly for k >= escape, the larger of the two least such k, so
    the answer is escape - 1.
    """
    if not P.forbidden:
        raise ValueError("Forb(empty) contains every matroid: critical number unbounded")
    if max(N.dim for N in P.forbidden) > SUBSPACE_ENUM_MAX_DIM:
        raise BudgetExceeded(f"critical numbers are capped at forbidden-pattern dim {SUBSPACE_ENUM_MAX_DIM}")
    escape = max(
        min(critical_number(Matroid(N.dim, N.ones)) for N in P.forbidden),
        min(critical_number(Matroid(N.dim, N.zeros)) for N in P.forbidden),
    )
    if escape == 0:
        raise ValueError(
            "trivial property: both constant families escape it at codimension 0"
        )
    return escape - 1


# --- Core membership -----------------------------------------------------------

def _count_pinned_extensions(M: Matroid, n: int, patterns: Sequence[Pattern]) -> tuple[int, int]:
    """(members, 2^free) among the dim-n extensions of M that avoid every
    pattern.  With no free cell the one extension is M, searched directly
    (building the constraints would walk every injection into dim M);
    otherwise one pinned sweep over the free points, whose constraints are
    built only once the free points pass the engine's cap of
    2^CENSUS_MAX_DIM - 1, so an oversized n raises BudgetExceeded first."""
    pinned = (1 << M.dim) - 1
    _check_dim(n, pinned)
    free = ((1 << n) - 1) - pinned
    if free == 0:
        return int(all(find_instance(N, M) is None for N in patterns)), 1
    forbid = _merged_constraints(patterns, n)
    count, _ = count_members(n, forbid, fixed_points=pinned, fixed_ones=M.table)
    return count, 1 << free


def core_membership(M: Matroid, P: LocalProperty, k: int) -> bool:
    """True iff every dim+k extension of M belongs to P (hence all of
    Ext^k(M), since P is hereditary): the pinned count of the members among
    them is all 2^free of them.  Raises BudgetExceeded, before building any
    constraint, when more than 2^CENSUS_MAX_DIM - 1 cells are free."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    count, total = _count_pinned_extensions(M, M.dim + k, P.forbidden)
    return count == total


def core_membership_refute(
    M: Matroid, P: LocalProperty, k: int, samples: int, seed=0
) -> Optional[bool]:
    """Monte-Carlo refutation: False if a sampled extension leaves P,
    None (unknown) otherwise.  For use past the engine's cap."""
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
    by_last: list[list] = [[] for _ in range(npts + 1)]
    for f in subspace_point_masks(n, d):
        by_last[f.bit_length()].append(f)
    nodes = 0

    def rec(p: int, ones: int) -> Optional[int]:
        nonlocal nodes
        if p > npts:
            return ones
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
        if n > SUBSPACE_ENUM_MAX_DIM:
            raise BudgetExceeded(f"subspace enumeration is capped at dim {SUBSPACE_ENUM_MAX_DIM}")
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
    re-tested on every coloring when there are at most `samples` of them,
    else on `samples` random ones, and the transcript must claim
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
    npts = (1 << n) - 1
    if 1 << npts <= samples:
        tables = range(1 << npts)  # exact, and cheaper than the samples
    else:
        rng = random.Random(seed)
        tables = (rng.getrandbits(npts) for _ in range(samples))
    for table in tables:
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
    count, total = _count_pinned_extensions(M, n, (NpP,))
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

def _cycle_masks(perm: list[int]) -> list[int]:
    """The point masks (bit p - 1 for point p) of the cycles of the
    permutation p -> perm[p] of the points 1..len(perm) - 1, in the order of
    their least points."""
    seen, masks = 0, []
    for p in range(1, len(perm)):
        mask, q = 0, p
        while not (seen | mask) >> (q - 1) & 1:
            mask |= 1 << (q - 1)
            q = perm[q]
        if mask:
            seen |= mask
            masks.append(mask)
    return masks


def isomorphism_class_census(P: LocalProperty, n: int) -> int:
    """Number of isomorphism classes (GL(n,2)-orbits) among the dim-n
    members, exact.

    Burnside's lemma over the conjugacy classes C of GL(n,2) (the checked-in
    gf2._GL_CLASSES): the number is (1/|GL(n,2)|) * sum_C |C| * |Fix(g_C)|.
    A table is fixed by g iff it is constant on each cycle of g on the
    points, so |Fix(g)| is one engine sweep with one table bit per cycle,
    each constraint mask mapped onto the cycles it meets.  The identity's
    term is the labeled census, counted by hyperplane transfer (_transfer).
    Raises BudgetExceeded for n > CENSUS_MAX_DIM before building any
    constraint.
    """
    _check_dim(n)
    constraints = _merged_constraints(P.forbidden, n)
    masks = np.array(constraints, dtype=np.int64).reshape(-1, 2, 1)
    total = 0
    for columns, size in _GL_CLASSES[n]:
        cycles = np.array(_cycle_masks(span_table(columns)), dtype=np.int64)
        if len(cycles) == (1 << n) - 1:  # the identity: the labeled census
            total += size * _transfer(n, constraints)[0]
            continue
        # the cycles a mask meets, as the sum of their distinct bits
        on_cycles = ((masks & cycles) != 0) @ (1 << np.arange(len(cycles)))
        total += size * _sweep(len(cycles), on_cycles)
    order = count_linear_injections(n, n)
    assert total % order == 0, f"Burnside sum {total} is not a multiple of |GL({n},2)| = {order}"
    return total // order
