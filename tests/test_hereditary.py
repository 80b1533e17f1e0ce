import random
import sys
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import binmat.gf2 as gf2
import binmat.hereditary as hereditary
from binmat.errors import BudgetExceeded
from binmat.gf2 import (
    SUBSPACE_ENUM_MAX_DIM,
    LinearInjections,
    Subspace,
    _image_search,
    _mask_points,
    _points_mask,
    _transvection_perms,
    count_linear_injections,
    random_linear_injection,
    span_table,
    subspace_point_masks,
)
from binmat.hereditary import (
    LocalProperty,
    census,
    contains,
    core_membership,
    core_membership_refute,
    count_critical_at_most,
    count_free_extensions,
    count_members,
    forb,
    instance_constraints,
    isomorphism_class_census,
    property_critical_number,
    ramsey_dimension,
    typical_structure_fraction,
    verify_ramsey_result,
)
from binmat.matroid import (
    Matroid,
    Pattern,
    STAR,
    bose_burton,
    builtin_pattern,
    builtin_pattern as bp,
    canonical_form,
    critical_number,
    find_instance,
    restrict,
    sample_matroid,
)

O2 = builtin_pattern("O2")
I1 = builtin_pattern("I1")
ONES3 = builtin_pattern("ones:3")

# frozen from exhaustive runs of the naive per-table contains() loop
FORB_O2_COUNTS = {2: 7, 3: 64, 4: 3049, 5: 2534530}
FORB_ONES3_COUNT_4 = 29887
CRIT_AT_MOST = {
    (1, 1): 2,
    (2, 1): 7,
    (2, 2): 8,
    (3, 1): 64,
    (3, 2): 127,
    (4, 1): 2881,
    (4, 2): 29719,
}


def naive_census(P: LocalProperty, n: int) -> int:
    return sum(contains(P, Matroid(n, t)) for t in range(1 << ((1 << n) - 1)))


def flat_requires(n, flat_dim, side):
    """One require constraint per dim-flat_dim subspace, all-zero (side 0)
    or all-one (side 1) on it, from the subspaces' point masks."""
    return tuple((0, m) if side == 0 else (m, 0) for m in subspace_point_masks(n, flat_dim))


def oracle_members(n, forbid, require=(), fixed_points=0, fixed_ones=0):
    """Brute force over all 2^free tables: the free-point masks of the
    members, and how many members activate some require constraint."""
    pin = (1 << fixed_points) - 1
    free = (1 << n) - 1 - fixed_points
    members, hold = [], 0
    for f in range(1 << free):
        t = (f << fixed_points) | (fixed_ones & pin)
        if any(t & oq == oq and t & zq == 0 for oq, zq in forbid):
            continue
        members.append(f)
        hold += any(t & oq == oq and t & zq == 0 for oq, zq in require)
    return members, hold


# --- membership and censuses -----------------------------------------------------

def test_contains_examples():
    P = forb(O2)
    assert contains(P, Matroid.constant(2, 1))
    assert not contains(P, Matroid.constant(2, 0))
    # the hyperplane-vanishing matroid has an all-zero plane only at dim 3
    M = Matroid.from_values([0, 0, 0, 1, 1, 1, 1])
    assert not contains(P, M)


def test_census_matches_naive_small():
    for P in (forb(O2), forb(ONES3), forb(I1), forb(O2, ONES3)):
        for n in (1, 2, 3):
            assert census(P, n).count == naive_census(P, n)


def test_census_frozen_counts():
    P = forb(O2)
    for n in (2, 3, 4, 5):
        assert census(P, n).count == FORB_O2_COUNTS[n]
    assert census(forb(ONES3), 4).count == FORB_ONES3_COUNT_4


def test_census_empty_forbidden():
    P = forb()
    for n in (1, 2, 3):
        assert census(P, n).count == 1 << ((1 << n) - 1)


def test_census_entropy():
    row = census(forb(I1), 3)
    assert row.count == 1 and row.entropy == 0.0
    assert census(forb(O2), 3).entropy == 6.0


def test_census_row_json():
    d = census(forb(O2), 4).to_json_dict()
    assert d == {"n": 4, "count": "3049", "entropy": pytest.approx(11.574120435)}


def test_census_two_point_constraints_n5():
    # Forb(BB:1:2) forbids any two one-points, so its members are the
    # tables of weight at most one: 465 two-point constraints, each holding
    # on a quarter of the tables.  The flat chunk loop took 5.5 s on a
    # 2-core box
    BB = bp("BB:1:2")
    P = forb(BB)
    cons = instance_constraints(BB, 5)
    assert len(cons) == 465
    start = time.perf_counter()
    assert count_members(5, cons) == (32, 0)
    assert time.perf_counter() - start < 3
    assert all(contains(P, Matroid(5, t)) for t in [0] + [1 << b for b in range(31)])
    assert not contains(P, Matroid(5, 1 << 30 | 1))
    for n in (1, 2, 3):
        assert census(P, n).count == naive_census(P, n) == 1 << n


def test_census_cap():
    with pytest.raises(BudgetExceeded):
        census(forb(O2), 6)


def test_exact_counts_refuse_a_negative_dim():
    P = forb(O2)
    for count in (lambda: census(P, -1), lambda: count_members(-1, ()),
                  lambda: count_critical_at_most(-1, 0),
                  lambda: typical_structure_fraction(P, -1, 0),
                  lambda: isomorphism_class_census(P, -1)):
        with pytest.raises(ValueError, match="dimension must be nonnegative, got n=-1"):
            count()


def test_exact_counts_refuse_past_dim_5_before_building_constraints():
    P = forb(O2)
    refusal = ("63 free table bits exceed the exact-count cap of 31: exact counting is "
               "capped at dim 5; estimate by sampling")
    with mock.patch.object(hereditary, "_merged_constraints", side_effect=AssertionError), \
            mock.patch.object(hereditary, "instance_constraints", side_effect=AssertionError):
        for count in (lambda: census(P, 6), lambda: count_critical_at_most(6, 2),
                      lambda: typical_structure_fraction(P, 6, 2),
                      lambda: isomorphism_class_census(P, 6)):
            with pytest.raises(BudgetExceeded, match=refusal):
                count()
        # a huge dimension is refused without building a 2^n-bit integer
        with pytest.raises(BudgetExceeded, match="over 2\\^63 free table bits"):
            census(P, 10 ** 9)


def test_census_of_a_group_invariant_dim5_pattern():
    # ones:5 is its own GL(5,2)-orbit, found without walking the group's
    # 9,999,360 maps (that walk took 112 s on a 2-core box); every table
    # but the all-ones one is a member
    start = time.perf_counter()
    assert census(forb(bp("ones:5")), 5).count == (1 << 31) - 1
    assert time.perf_counter() - start < 10


# --- the counting engine against brute force -------------------------------------

@pytest.mark.parametrize("pattern,n", [("O2", 3), ("O2", 4), ("ones:3", 4), ("I1", 3)])
def test_scan_and_dfs_agree(pattern, n):
    cons = instance_constraints(bp(pattern), n)
    members, _ = oracle_members(n, cons)
    assert count_members(n, cons) == (len(members), 0)
    assert census(forb(bp(pattern)), n).count == len(members)


def point_sets(n, min_size=0):
    """Masks over the 2^n - 1 points, any point as likely as any other."""
    npts = (1 << n) - 1
    if npts == 0:
        return st.just(0)
    return st.sets(st.integers(0, npts - 1), min_size=min_size).map(
        lambda s: sum(1 << b for b in s))


def constraint_lists(n):
    """Up to five (oq, zq) pairs on disjoint points, plus at most one pair
    that is either raw (it may ask a point to be both one and zero) or the
    empty constraint (0, 0), which holds on every table."""
    support, masks = point_sets(n, min_size=1), point_sets(n)
    disjoint = st.tuples(support, masks).map(lambda p: (p[0] & p[1], p[0] & ~p[1]))
    extra = st.one_of(st.tuples(masks, masks), st.just((0, 0)))
    return st.tuples(st.lists(disjoint, max_size=5), st.lists(extra, max_size=1)).map(
        lambda p: p[0] + p[1])


# a small MID_BITS splits even 7- and 15-point sweeps into deep chunk trees
mid_bits = st.sampled_from([hereditary.MID_BITS, 3, 1, 0])


@pytest.mark.parametrize("n", range(5))  # 0, 1, 3, 7 or 15 points
@settings(max_examples=60, deadline=None)
@given(data=st.data(), mid=mid_bits)
def test_count_members_matches_oracle(n, data, mid):
    forbid = data.draw(constraint_lists(n))
    require = data.draw(constraint_lists(n))
    fixed_points = data.draw(st.integers(0, (1 << n) - 1))
    fixed_ones = data.draw(point_sets(n))
    members, hold = oracle_members(n, forbid, require, fixed_points, fixed_ones)
    with mock.patch.object(hereditary, "MID_BITS", mid):
        got = count_members(n, forbid, require, fixed_points, fixed_ones)
    assert got == (len(members), hold)


# --- the chunk tree against the flat chunk loop it replaced ----------------------

FLAT_MID_BITS = 17  # the flat loop's chunks: 2^17 words (1 MiB)


def substitute(constraints, fixed_points: int, fixed_ones: int) -> tuple:
    """The constraints on the free points once the first fixed_points points
    are pinned to fixed_ones, shifted so free point fixed_points + 1 is bit 0,
    as tuples: a constraint the pins contradict, or one that asks a point to
    be both one and zero, can never hold and is dropped, and duplicates are
    dropped too.  The pin step of count_members as first written."""
    pin = (1 << fixed_points) - 1
    ones = fixed_ones & pin
    kept = {}
    for oq, zq in constraints:
        if oq & zq or oq & pin & ~ones or zq & ones:
            continue
        kept[(oq >> fixed_points, zq >> fixed_points)] = None
    return tuple(kept)


def flat_plan(mid, constraints):
    """Per constraint: the chunk bits it needs (ones, zeros), the index of
    the words it touches in the (2,)*mid view, and its word mask."""
    low = (1 << 6) - 1
    plan = []
    for oq, zq in constraints:
        idx = []
        for axis in range(mid):
            bit = 1 << (6 + mid - 1 - axis)
            idx.append(1 if oq & bit else 0 if zq & bit else slice(None))
        shift = 6 + mid
        wm = sum(1 << j for j in range(64) if j & oq & low == oq & low and not j & zq & low)
        plan.append((oq >> shift, zq >> shift, tuple(idx), np.uint64(wm)))
    return plan


def flat_sweep(nbits, forbid, require=()):
    """The sweep as a flat loop over the chunks, one worker: every chunk
    zero-fills its buffer and ORs in every constraint whose chunk bits
    agree with its own.  Same contract as hereditary._sweep."""
    mid = max(0, min(FLAT_MID_BITS, nbits - 6))
    chunks = 1 << max(0, nbits - 6 - mid)
    valid = np.uint64((1 << (1 << min(nbits, 6))) - 1)
    forbid_plan = flat_plan(mid, forbid)
    require_plan = flat_plan(mid, require)

    def mark(out, plan, c):
        out.fill(0)
        view = out.reshape((2,) * mid)
        for oh, zh, idx, wm in plan:
            if c & oh == oh and not c & zh:
                view[idx] |= wm

    words = np.empty(1 << mid, dtype=np.uint64)
    hits = np.empty(1 << mid, dtype=np.uint64)
    total = hold = 0
    for c in range(chunks):
        mark(words, forbid_plan, c)
        np.invert(words, out=words)
        words &= valid
        total += int(np.bitwise_count(words).sum())
        mark(hits, require_plan, c)
        hits &= words
        hold += int(np.bitwise_count(hits).sum())
    return total, hold


def test_flat_sweep_matches_oracle():
    # the flat loop itself against brute force, on one chunk and on 64
    forbid = instance_constraints(O2, 4) + ((1 << 14 | 1, 2),)
    require = ((0, 0b111), (1 << 12, 0))
    members, hold = oracle_members(4, forbid, require)
    assert flat_sweep(15, forbid, require) == (len(members), hold)
    with mock.patch.object(sys.modules[__name__], "FLAT_MID_BITS", 3):
        assert flat_sweep(15, forbid, require) == (len(members), hold)


def short_constraint_lists(n):
    """Up to eight (oq, zq) pairs on at most four points each, so that each
    one holds on a sizeable share of the tables."""
    cells = st.lists(st.tuples(st.integers(0, (1 << n) - 2), st.booleans()),
                     min_size=1, max_size=4, unique_by=lambda cell: cell[0])
    pair = cells.map(lambda cs: (sum(1 << b for b, one in cs if one),
                                 sum(1 << b for b, one in cs if not one)))
    return st.lists(pair, max_size=8)


def bit_constraint_lists(nbits):
    """Up to eight short (oq, zq) pairs, each on the word bits only, on the
    chunk bits only, on both, or anywhere, plus at most one pair that is
    either the empty constraint (0, 0) or raw (it may ask a bit to be both
    one and zero)."""
    word = list(range(6))
    chunk = list(range(6 + hereditary.MID_BITS, nbits))
    regions = st.sampled_from([word, chunk, word + chunk, list(range(nbits))])
    cells = regions.flatmap(lambda bits: st.lists(
        st.tuples(st.sampled_from(bits), st.booleans()),
        min_size=1, max_size=4, unique_by=lambda cell: cell[0]))
    pair = cells.map(lambda cs: (sum(1 << b for b, one in cs if one),
                                 sum(1 << b for b, one in cs if not one)))
    masks = st.sets(st.integers(0, nbits - 1), max_size=3).map(lambda s: sum(1 << b for b in s))
    extra = st.one_of(st.just((0, 0)), st.tuples(masks, masks))
    return st.tuples(st.lists(pair, max_size=8), st.lists(extra, max_size=1)).map(
        lambda p: p[0] + p[1])


@settings(max_examples=30, deadline=None)
@given(data=st.data(), nbits=st.sampled_from([25, 26]), with_require=st.booleans())
def test_sweep_matches_flat_loop(data, nbits, with_require):
    # a chunk tree of depth 4 or 5; the flat loop sees 1 or 2 MiB chunks.
    # The constraints sit above 31 - nbits pinned zero points, which
    # count_members substitutes away again
    forbid = substitute(data.draw(bit_constraint_lists(nbits)), 0, 0)
    require = ()
    if with_require:
        require = substitute(data.draw(bit_constraint_lists(nbits)), 0, 0)
    fixed = 31 - nbits

    def pinned(constraints):
        return [(oq << fixed, zq << fixed) for oq, zq in constraints]

    want = flat_sweep(nbits, forbid, require)
    assert hereditary._sweep(nbits, forbid) == want[0]
    assert count_members(5, pinned(forbid), pinned(require), fixed) == want


@settings(max_examples=12, deadline=None)
@given(data=st.data(), fixed_points=st.sampled_from([5, 6]))
def test_multi_chunk_sweep_matches_flat_loop(data, fixed_points):
    # 25 or 26 free points: a chunk tree of depth 4 or 5
    forbid = data.draw(short_constraint_lists(5))
    require = data.draw(short_constraint_lists(5))  # may be empty: forbid only
    fixed_ones = data.draw(point_sets(5))
    free = 31 - fixed_points
    want = flat_sweep(free, substitute(forbid, fixed_points, fixed_ones),
                      substitute(require, fixed_points, fixed_ones))
    assert count_members(5, forbid, require, fixed_points, fixed_ones) == want


def raw_constraint_lists(nbits):
    """Up to eight (oq, zq) pairs on the low nbits table bits, at most four
    bits each: disjoint, or asking each bit of zq to be both one and zero;
    then a duplicate of the first pair and at most one empty constraint
    (0, 0)."""
    masks = st.sets(st.integers(0, nbits - 1), max_size=4) if nbits else st.just(set())
    masks = masks.map(lambda s: sum(1 << b for b in s))
    raw = st.tuples(masks, masks)
    pair = st.one_of(raw.map(lambda p: (p[0] & ~p[1], p[1])), raw.map(lambda p: (p[0] | p[1], p[1])))
    return st.tuples(st.lists(pair, max_size=8), st.lists(st.just((0, 0)), max_size=1)).map(
        lambda p: p[0] + p[0][:1] + p[1])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), nbits=st.integers(0, 31), pinned=st.booleans())
def test_sweep_matches_substitute_and_flat_loop(data, nbits, pinned):
    # every width, against the tuple pin step and the flat loop.  Small
    # MID_BITS run the chunk tree deep (kept to 2^10 leaves), and ROW_BITS
    # 0 makes every row one word wide.  Pinned: the pairs sit on all 31
    # points of dim 5, the first 31 - nbits of them pinned
    mid = data.draw(st.sampled_from(
        [m for m in (hereditary.MID_BITS, 3, 1, 0) if nbits - 6 - m <= 10]))
    row = data.draw(st.sampled_from([hereditary.ROW_BITS, 2, 0]))
    budget = data.draw(st.sampled_from([hereditary.BITMAP_WORDS, 8]))  # 8: rows narrow further
    fixed = 31 - nbits if pinned else 0
    forbid = data.draw(raw_constraint_lists(fixed + nbits))
    require = data.draw(raw_constraint_lists(fixed + nbits)) if pinned else ()
    fixed_ones = data.draw(st.integers(0, (1 << fixed) - 1))
    want = flat_sweep(nbits, substitute(forbid, fixed, fixed_ones),
                      substitute(require, fixed, fixed_ones))
    with mock.patch.object(hereditary, "MID_BITS", mid), \
            mock.patch.object(hereditary, "ROW_BITS", row), \
            mock.patch.object(hereditary, "BITMAP_WORDS", budget):
        if pinned:
            assert count_members(5, forbid, require, fixed, fixed_ones) == want
        else:
            assert hereditary._sweep(nbits, forbid) == want[0]
            assert hereditary._sweep(nbits, np.array(forbid, dtype=np.int64)) == want[0]


def test_sweep_rows_narrow_for_large_constraint_sets():
    # 364 groups, each pinning bits 16-21 of a 22-bit table (a chunk tree
    # of depth 1): full rows would hold 364 bitmaps of 8 KiB, about 3 MiB.
    # Under a bitmap budget of 2^14 words (128 KiB) the rows narrow to 32
    # words, the count is unchanged, and the sweep holds its two blocks and
    # less than 1 MiB more
    pairs = [(sum(1 << 16 + b for b in range(6) if s // 3 ** b % 3 == 1),
              sum(1 << 16 + b for b in range(6) if s // 3 ** b % 3 == 2)) for s in range(1, 729, 2)]
    want = flat_sweep(22, pairs)[0]
    assert want > 0
    with mock.patch.object(hereditary, "BITMAP_WORDS", 1 << 14):
        tracemalloc.start()
        try:
            got = hereditary._sweep(22, pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert got == want == hereditary._sweep(22, pairs)
    assert peak < (16 << hereditary.MID_BITS) + (1 << 20)


@pytest.mark.parametrize("nbits", [26, 31])
def test_sweep_memory_is_one_stack_per_plan(nbits):
    # one buffer of 2^MID_BITS words per depth of the chunk tree, also for a
    # count with a require constraint: its second sweep (forbid and require
    # together) starts after the first has freed its stack.  A second thread
    # would need a stack of its own.  The slack is less than one more
    # buffer, and the stack is freed on return, not at the next garbage
    # collection
    buffer = 8 << hereditary.MID_BITS
    stack = (nbits - 6 - hereditary.MID_BITS + 1) * buffer
    fixed = 31 - nbits
    for require in ((), ((2 << fixed, 0),)):
        tracemalloc.start()
        try:
            got = count_members(5, ((1 << fixed, 0),), require, fixed)
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == (1 << (nbits - 1), (1 << (nbits - 2)) * bool(require))
        assert stack <= peak < stack + buffer
        assert left < buffer


def test_count_members_edge_constraints():
    # the pins (point 1 = 1, point 2 = 0) contradict the forbid constraint,
    # which is dropped; the empty constraint leaves no member at all; a
    # constraint asking point 8 (a word-index bit) to be both one and
    # zero holds on no table
    assert count_members(3, ((0b11, 0b100),), ((0b1000000, 0),), 2, 0b01) == (32, 16)
    assert count_members(4, ((0, 0),)) == (0, 0)
    assert count_members(4, ((0, 0),), fixed_points=15, fixed_ones=5) == (0, 0)
    assert count_members(4, ((1 << 7, 1 << 7),), ((1 << 7, 1 << 7),)) == (1 << 15, 0)


def test_count_members_free_bit_cap():
    # 63 free points would sweep 2^63 tables: refused before any allocation
    with pytest.raises(BudgetExceeded, match="63 free table bits exceed the exact-count cap of 31"):
        count_members(6, ((1, 0),))


def test_count_members_rejects_pins_out_of_range():
    # refused before any constraint is read (None would fail there), naming the range
    for bad in (-1, 1 << 3):
        with pytest.raises(ValueError, match=f"fixed_points must be in \\[0, 2\\^3 - 1\\], got {bad}"):
            count_members(3, None, None, fixed_points=bad)


def test_count_members_with_fixed_prefix():
    # fixing the first point to 1 halves the unconstrained census
    total, _ = count_members(3, (), fixed_points=1, fixed_ones=1)
    assert total == 1 << 6
    total0, _ = count_members(3, (), fixed_points=1, fixed_ones=0)
    assert total0 == 1 << 6


def test_count_members_with_require():
    # members of Forb(O2) at n=3 that vanish on the plane spanned by e1,e2:
    # none, because that plane is an O2-instance
    plane = Subspace.from_vectors(3, [1, 2]).point_mask
    cons = instance_constraints(O2, 3)
    total, hold = count_members(3, cons, require=((0, plane),))
    assert hold == 0
    # without the forbidden pattern: 2^4 tables vanish on the plane
    total2, hold2 = count_members(3, (), require=((0, plane),))
    assert hold2 == 1 << 4


# --- typical structure -------------------------------------------------------------

def test_count_critical_at_most_frozen():
    for (n, k), want in CRIT_AT_MOST.items():
        assert count_critical_at_most(n, k) == want


def test_count_critical_at_most_naive():
    for n in (2, 3):
        for k in range(0, n + 1):
            naive = sum(
                critical_number(Matroid(n, t)) <= k
                for t in range(1 << ((1 << n) - 1))
            )
            assert count_critical_at_most(n, k) == naive


def test_count_critical_at_most_is_the_require_count():
    # one forbid sweep (tables with no all-`side` flat) against the require
    # sweep it replaced
    for n in range(5):
        for k in range(n + 1):
            for side in (0, 1):
                requires = flat_requires(n, n - k, side)
                _, want = count_members(n, (), requires)
                assert count_critical_at_most(n, k, side) == want
    assert count_critical_at_most(5, 2) == 986973072


def test_typical_structure_fraction_frozen():
    P = forb(ONES3)
    assert typical_structure_fraction(P, 4, 2) == Fraction(29719, 29887)


def test_typical_structure_fraction_trivial_cases():
    assert typical_structure_fraction(forb(), 3, 3) == 1
    assert typical_structure_fraction(forb(I1), 3, 0) == 1
    empty = forb(I1, Pattern.from_values([0]))
    assert census(empty, 1).count == 0
    with pytest.raises(ValueError):
        typical_structure_fraction(empty, 1, 1)


def test_typical_structure_fraction_side_one():
    # complement symmetry: zeros-side fraction for Forb(zeros3) mirrors
    # the ones-side fraction for Forb(ones3)
    a = typical_structure_fraction(forb(ONES3), 4, 2, side=0)
    b = typical_structure_fraction(forb(bp("zeros:3")), 4, 2, side=1)
    assert a == b


# --- hereditarity and isomorphism closure -------------------------------------------

def test_members_closed_under_restriction():
    P = forb(O2)
    rng = random.Random(4)
    from binmat.gf2 import enumerate_subspaces

    for _ in range(20):
        M = sample_matroid(4, rng)
        if not contains(P, M):
            continue
        for S in enumerate_subspaces(4, 3):
            assert contains(P, restrict(M, S))


def test_members_closed_under_isomorphism():
    P = forb(ONES3)
    rng = random.Random(5)
    for _ in range(20):
        M = sample_matroid(4, rng)
        phi = random_linear_injection(4, 4, rng)
        values = [0] * M.n_points
        for x in range(1, M.n_points + 1):
            values[phi.apply_bits(x) - 1] = M(x)
        M2 = Matroid.from_values(values)
        assert contains(P, M) == contains(P, M2)


def test_isomorphism_class_census_small():
    # dim 2: orbits of 3-point tables under GL(2,2) split by weight,
    # 4 weights = 4 classes for the empty property
    assert isomorphism_class_census(forb(), 2) == 4
    assert isomorphism_class_census(forb(O2), 2) == 3  # all-zero table excluded


def oracle_class_census(P: LocalProperty, n: int) -> int:
    """Canonicalize every member found by brute force; count distinct forms."""
    members, _ = oracle_members(n, hereditary._merged_constraints(P.forbidden, n))
    return len({canonical_form(Matroid(n, t)).table for t in members})


# isomorphism classes at n = 1..4; oracle_class_census reproduces every
# entry, but the n=4 ones of Forb(ones:3) and Forb() cost it tens of
# seconds, so only Forb(O2) runs it live at n=4
ISO_CLASSES = {"O2": (2, 3, 5, 11), "ones:3": (2, 4, 9, 36), "": (2, 4, 10, 46)}


def _forb_named(name):
    return forb(bp(name)) if name else forb()


def test_isomorphism_class_census_frozen():
    for name, counts in ISO_CLASSES.items():
        P = _forb_named(name)
        assert isomorphism_class_census(P, 0) == 1  # the empty table
        assert [isomorphism_class_census(P, n) for n in (1, 2, 3, 4)] == list(counts)


@pytest.mark.parametrize(
    "name,n", [(name, n) for name in ISO_CLASSES for n in (1, 2, 3)] + [("O2", 4)])
def test_isomorphism_class_census_matches_oracle(name, n):
    P = _forb_named(name)
    assert isomorphism_class_census(P, n) == oracle_class_census(P, n)


def patterns(max_dim):
    return st.integers(0, max_dim).flatmap(lambda d: st.lists(
        st.sampled_from([0, 1, STAR]), min_size=(1 << d) - 1, max_size=(1 << d) - 1,
    ).map(Pattern.from_values))


@settings(max_examples=60, deadline=None)
@given(pats=st.lists(patterns(2), min_size=1, max_size=2), n=st.integers(0, 3))
def test_isomorphism_class_census_differential(pats, n):
    P = forb(*pats)
    assert isomorphism_class_census(P, n) == oracle_class_census(P, n)


def test_isomorphism_class_census_drops_split_cycles():
    # no two points may differ, so only the two constant tables are members;
    # at n=4 a cycle that holds a one and a zero of a constraint also falls
    # on the sweep's word-index bits (6 and up), and that constraint must go
    P = forb(Pattern.from_values([1, 0, STAR]))
    for n in (2, 3, 4):
        assert isomorphism_class_census(P, n) == oracle_class_census(P, n) == 2


# --- hyperplane transfer and instance constraints ------------------------------------

def flat_lists(n):
    """No require, or the require constraints of every all-zero or all-one
    flat of one dimension."""
    flats = st.tuples(st.integers(0, n), st.sampled_from([0, 1])).map(
        lambda p: flat_requires(n, *p))
    return st.one_of(st.just(()), flats)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), pats=st.lists(patterns(3), max_size=2), n=st.integers(0, 4))
def test_transfer_matches_sweep(data, pats, n):
    # the grouped pass over the orbit representatives, weighted by the orbit
    # sizes, against brute force over every table
    forbid = hereditary._merged_constraints(pats, n)
    require = data.draw(flat_lists(n))
    members, hold = oracle_members(n, forbid, require)
    assert hereditary._transfer(n, forbid, require) == (len(members), hold)


def oracle_transfer(n, forbid, require=()):
    """_transfer as first written: one count_members per GL(n - 1, 2)-orbit
    of hyperplane tables, with the hyperplane pinned to the orbit's least
    table, weighted by the orbit size."""
    if n == 0:
        return count_members(0, forbid, require)
    total = hold = 0
    for t, size in hereditary._TABLE_ORBITS[n - 1]:
        members, hits = count_members(n, forbid, require, (1 << (n - 1)) - 1, t)
        total += size * members
        hold += size * hits
    return total, hold


@settings(max_examples=60, deadline=None)
@given(data=st.data(), N=patterns(3), n=st.integers(0, 5))
def test_transfer_matches_per_orbit_counts(data, N, n):
    # up to n = 5, where brute force over all 2^31 tables is out of reach
    forbid = instance_constraints(N, n)
    require = data.draw(flat_lists(n))
    assert hereditary._transfer(n, forbid, require) == oracle_transfer(n, forbid, require)


@pytest.mark.parametrize("name", ["O2", "I1", "ones:3", "zeros:3", "BB:1:2", "BB:2:3", "ones:4"])
def test_transfer_matches_per_orbit_counts_n5(name):
    forbid = instance_constraints(bp(name), 5)
    for require in ((), flat_requires(5, 3, 0), flat_requires(5, 2, 1)):
        assert hereditary._transfer(5, forbid, require) == oracle_transfer(5, forbid, require)


def test_transfer_memory_holds_one_bitmap_per_group_at_a_time():
    # the (46 x 1024)-word rows, 368 KiB at n = 5, and one group's bitmap at
    # a time: no bitmap per group or per part held all at once
    forbid = instance_constraints(ONES3, 5)
    for require in ((), flat_requires(5, 3, 0)):
        want = hereditary._transfer(5, forbid, require)
        tracemalloc.start()
        try:
            got = hereditary._transfer(5, forbid, require)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 2 << 20


def oracle_word_mask(oq: int, zq: int) -> np.uint64:
    """A _WORD_MASKS entry as first written: one term per table of the word."""
    return np.uint64(sum(1 << j for j in range(64) if j & oq == oq and not j & zq))


def test_word_mask_matches_oracle():
    table = hereditary._WORD_MASKS
    assert table.shape == (64, 64) and table.dtype == np.uint64
    want = [[oracle_word_mask(o, z) for z in range(64)] for o in range(64)]
    assert table.tolist() == [[int(w) for w in row] for row in want]
    assert want[3][1] == 0  # oq & zq: bit 0 both one and zero


def oracle_table_orbits(m: int) -> tuple[tuple[int, int], ...]:
    """One (least table, orbit size) pair per GL(m, 2)-orbit of the
    2^(2^m - 1) tables on F_2^m, for m <= 4.

    A numpy union-find: each table's uint16 label drops to the least label
    one transvection away (each is an involution, so the edges are
    symmetric), then jumps to its label's label, until a round changes
    nothing.  A label never rises above its table and stays in its orbit, so
    at the fixed point every table is labeled with its orbit's least table.
    """
    npts = (1 << m) - 1
    tables = np.arange(1 << npts, dtype=np.uint16)
    moved = []  # moved[i][t]: table t moved by the i-th transvection
    for perm in _transvection_perms(m):
        img = np.zeros_like(tables)
        for p in range(1, npts + 1):
            img |= (tables >> (p - 1) & 1) << (perm[p] - 1)
        moved.append(img)
    label = tables.copy()
    while True:
        before = label.copy()
        for img in moved:
            np.minimum(label, label[img], out=label)
        label = label[label]
        if np.array_equal(label, before):
            break
    sizes = np.bincount(label)
    reps = np.flatnonzero(sizes)
    return tuple(zip(reps.tolist(), sizes[reps].tolist()))


@pytest.mark.parametrize("m", range(5))
def test_table_orbits_match_oracle(m):
    # one row per hyperplane dimension _transfer can reach past _check_dim
    assert len(hereditary._TABLE_ORBITS) == hereditary.CENSUS_MAX_DIM
    assert hereditary._TABLE_ORBITS[m] == oracle_table_orbits(m)


@pytest.mark.parametrize("m", range(5))
def test_table_orbits_certificates(m):
    orbits = hereditary._TABLE_ORBITS[m]
    assert len(orbits) == isomorphism_class_census(forb(), m) == (1, 2, 4, 10, 46)[m]
    assert sum(size for _, size in orbits) == 1 << ((1 << m) - 1)
    order = count_linear_injections(m, m)
    assert all(order % size == 0 for _, size in orbits)
    # one representative per isomorphism class, each the least of its orbit
    forms = [canonical_form(Matroid(m, t)).table for t, _ in orbits]
    assert len(set(forms)) == len(orbits)
    assert all(t <= f for (t, _), f in zip(orbits, forms))


def injection_walk_constraints(N: Pattern, n: int) -> tuple:
    """instance_constraints as first written: one mask pair per injection
    of N into dimension n."""
    if N.dim > n:
        return ()
    ones, zeros = _mask_points(N.ones), _mask_points(N.zeros)
    seen = set()
    for images in LinearInjections(N.dim, n).image_tuples():
        phi = span_table(images)
        seen.add((sum(1 << (phi[x] - 1) for x in ones), sum(1 << (phi[x] - 1) for x in zeros)))
    return tuple(sorted(seen))


@settings(max_examples=40, deadline=None)
@given(N=patterns(3), n=st.integers(0, 5))
def test_instance_constraints_match_injection_walk(N, n):
    assert instance_constraints(N, n) == injection_walk_constraints(N, n)


@pytest.mark.parametrize("name", ["O2", "I1", "BB:1:2"])
def test_instance_constraints_past_int64_masks(name):
    # 63 points at n = 6: the masks are built as Python ints
    got = instance_constraints(bp(name), 6)
    assert got == injection_walk_constraints(bp(name), 6)
    assert max(oq | zq for oq, zq in got) >> 62


@pytest.mark.parametrize("n", range(7))
def test_instance_constraints_of_a_dim0_pattern(n):
    # one embedding, the empty map, so the empty constraint, which holds on
    # every table; at n = 6 the masks are Python ints
    N = Pattern.constant(0, 0)
    assert instance_constraints(N, n) == ((0, 0),)
    if n <= hereditary.CENSUS_MAX_DIM:
        assert census(forb(N), n).count == 0


def walk_pattern_orbit(N: Pattern) -> set:
    """_pattern_orbit as first written: N's point sets moved by each of the
    maps of GL(dim N, 2), one walk over the group."""
    ones, zeros = _mask_points(N.ones), _mask_points(N.zeros)
    seen = set()
    for images in _image_search(N.dim, N.dim):
        g = span_table(images)
        seen.add((tuple(sorted(g[x] for x in ones)), tuple(sorted(g[x] for x in zeros))))
    return seen


@settings(max_examples=60, deadline=None)
@given(N=patterns(3))
def test_pattern_orbit_matches_group_walk(N):
    orbit = hereditary._pattern_orbit(N)
    assert len(set(orbit)) == len(orbit)
    assert set(orbit) == walk_pattern_orbit(N)


# fixed by no map of GL(4,2) but the identity: its orbit has all 20160 point sets
ASYMMETRIC_DIM4 = Pattern.from_values([1, STAR, 0, STAR, 1, 1, STAR, 0, STAR, 0, 1, 0, 0, 0, STAR])


DIM4_NAMES = ("ones:4", "zeros:4", "BB:1:4", "BB:2:4", "BB:3:4")


@pytest.mark.parametrize("N", [bp(name) for name in DIM4_NAMES] + [ASYMMETRIC_DIM4],
                         ids=list(DIM4_NAMES) + ["asymmetric"])
def test_pattern_orbit_matches_group_walk_dim4(N):
    orbit = hereditary._pattern_orbit(N)
    assert len(set(orbit)) == len(orbit)
    assert set(orbit) == walk_pattern_orbit(N)
    assert N is not ASYMMETRIC_DIM4 or len(orbit) == count_linear_injections(4, 4)


def seeded_pattern(dim: int, seed: int) -> Pattern:
    rng = random.Random(seed)
    return Pattern.from_values([rng.choice([0, 1, STAR]) for _ in range((1 << dim) - 1)])


def test_pattern_orbit_cap_refuses_an_asymmetric_dim5_pattern():
    # every pattern of dim <= 4 fits under the cap; this one's full orbit
    # would hold up to 9,999,360 point sets, so the closure stops at the cap
    assert hereditary.PATTERN_ORBIT_CAP >= count_linear_injections(4, 4)
    N = seeded_pattern(5, seed=5)
    cap = f"exceeds the cap of {hereditary.PATTERN_ORBIT_CAP} point sets"
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(BudgetExceeded, match=cap):
            census(forb(N), 5)


def moved(constraints, perm) -> set:
    def move(mask):
        return sum(1 << (perm[p] - 1) for p in _mask_points(mask))

    return {(move(oq), move(zq)) for oq, zq in constraints}


@settings(max_examples=30, deadline=None)
@given(data=st.data(), N=patterns(3), n=st.integers(0, 4))
def test_constraints_invariant_under_transvections(data, N, n):
    cons = instance_constraints(N, n)
    flats = data.draw(flat_lists(n))
    for perm in _transvection_perms(n):
        assert moved(cons, perm) == set(cons)
        assert moved(flats, perm) == set(flats)


def test_flat_constraints_are_the_instances_of_a_constant_pattern():
    for n in range(6):
        for f in range(n + 1):
            for side in (0, 1):
                want = set(flat_requires(n, f, side))
                assert set(instance_constraints(Pattern.constant(f, side), n)) == want


def test_constraints_invariant_under_transvections_n5():
    sets = [instance_constraints(ONES3, 5), instance_constraints(O2, 5),
            flat_requires(5, 3, 0), flat_requires(5, 2, 1)]
    assert [len(s) for s in sets] == [155, 155, 155, 155]
    for perm in _transvection_perms(5):
        for cons in sets:
            assert moved(cons, perm) == set(cons)


def test_isomorphism_class_census_n5_by_hand():
    # no two points may both be zero: the 32 members are the all-ones table
    # and the 31 tables with one zero, which GL(5,2) permutes transitively
    assert isomorphism_class_census(forb(bp("BB:1:2")), 5) == 2


def test_isomorphism_class_census_n5_frozen():
    # Burnside over the checked-in classes, one entry per dimension the census
    # reaches; 1372 and 39 also come out of listing the orbits directly
    # (ROADMAP items 2 and 3)
    assert len(gf2._GL_CLASSES) == hereditary.CENSUS_MAX_DIM + 1
    properties = [forb(), forb(ONES3), forb(O2), forb(ONES3, bp("zeros:3")), forb(O2, ONES3)]
    assert [isomorphism_class_census(P, 5) for P in properties] == [1372, 741, 39, 110, 0]


def test_isomorphism_class_census_cap():
    with mock.patch.object(hereditary, "_merged_constraints", side_effect=AssertionError):
        with pytest.raises(BudgetExceeded, match="capped at dim 5"):
            isomorphism_class_census(forb(O2), 6)


# --- property critical number --------------------------------------------------------

def test_property_critical_number_values():
    assert property_critical_number(forb(O2)) == 1
    assert property_critical_number(forb(ONES3)) == 2
    assert property_critical_number(forb(I1)) == 0


def test_property_critical_number_bose_burton():
    # forbidding BB(k, d) evaluations pins the critical number at k - 1;
    # the all-ones pattern of dim d is the k = d case
    assert property_critical_number(forb(bp("ones:2"))) == 1
    assert property_critical_number(forb(bp("ones:1"))) == 0


def test_property_critical_number_trivial_raises():
    with pytest.raises(ValueError):
        property_critical_number(forb())
    with pytest.raises(ValueError):
        property_critical_number(forb(I1, Pattern.from_values([0])))
    # forbidding an all-zero and an all-ones pattern excludes both constant
    # families, so no codimension works at all
    with pytest.raises(ValueError):
        property_critical_number(forb(ONES3, O2))


def test_property_critical_number_mixed_set():
    # adding a same-side pattern can only lower the critical number
    assert property_critical_number(forb(ONES3, bp("ones:2"))) == 1


def bb_embedding_critical_number(P: LocalProperty) -> int:
    """property_critical_number as first written: for k = 0, 1, ... embed
    each pattern's ones-only weakening into the Bose-Burton pattern
    BB(min(k, d), d) (side 1: its zeros-only weakening into the complement),
    turn a hit into a witness matroid outside P, and stop at the first k
    where both sides escape."""
    if not P.forbidden:
        raise ValueError("Forb(empty) contains every matroid: critical number unbounded")
    dims = [N.dim for N in P.forbidden]
    if max(dims) > SUBSPACE_ENUM_MAX_DIM:
        raise BudgetExceeded(f"certification is capped at forbidden-pattern dim {SUBSPACE_ENUM_MAX_DIM}")

    def escape_witness(k, side):
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
            keep = N.ones if side == 0 else N.zeros
            placed = _points_mask([phi.apply_bits(x) for x in _mask_points(keep)])
            if side == 0:
                witness = Matroid(d, placed)
            else:
                witness = Matroid(d, ((1 << ((1 << d) - 1)) - 1) ^ placed)
            assert not contains(P, witness)
            assert critical_number(witness if side == 0 else witness.complement()) <= ke
            return witness
        return None

    k = 0
    while escape_witness(k, 0) is None or escape_witness(k, 1) is None:
        k += 1
        assert k <= max(dims) + 1
    if k == 0:
        raise ValueError("trivial property: both constant families escape it at codimension 0")
    return k - 1


def value_or_error_type(f, *args):
    try:
        return f(*args)
    except Exception as exc:
        return type(exc)


DIM45_NAMES = ("ones:4", "zeros:4", "BB:1:4", "BB:2:4", "BB:3:4",
               "ones:5", "zeros:5", "BB:1:5", "BB:2:5", "BB:3:5", "BB:4:5")


@settings(max_examples=200, deadline=None)
@given(pats=st.lists(st.one_of(patterns(3), st.sampled_from(DIM45_NAMES).map(bp)),
                     min_size=1, max_size=3))
@example(pats=[])
@example(pats=[bp("BB:1:6")])
@example(pats=[bp("BB:1:9")])
@example(pats=[I1, Pattern.from_values([0])])
def test_property_critical_number_matches_bb_embedding(pats):
    P = forb(*pats)
    assert (value_or_error_type(property_critical_number, P)
            == value_or_error_type(bb_embedding_critical_number, P))


@settings(max_examples=100, deadline=None)
@given(pats=st.lists(patterns(3), min_size=1, max_size=3))
def test_property_critical_number_witnesses(pats):
    # the minimizing pattern's own one cells form a member of M(escape, 0)
    # outside P, and the complement of its zero cells one of M(escape, 1)
    P = forb(*pats)
    try:
        escape = property_critical_number(P) + 1
    except ValueError:
        escape = 0
    for side in (0, 1):
        N = min(pats, key=lambda N: critical_number(Matroid(N.dim, N.zeros if side else N.ones)))
        W = Matroid(N.dim, N.zeros).complement() if side else Matroid(N.dim, N.ones)
        assert find_instance(N, W) is not None
        assert not contains(P, W)
        assert critical_number(W.complement() if side else W) <= escape


# --- core membership -------------------------------------------------------------------

def test_core_membership_examples():
    P = forb(O2)
    assert core_membership(Matroid.from_values([1]), P, 1)
    assert not core_membership(Matroid.from_values([0]), P, 1)


def oracle_core_membership(M: Matroid, P: LocalProperty, k: int) -> bool:
    """Enumerate every dim+k extension of M and test each with contains."""
    shift = M.n_points
    width = (1 << (M.dim + k)) - 1 - shift
    return all(
        contains(P, Matroid(M.dim + k, M.table | (bits << shift)))
        for bits in range(1 << width)
    )


# (dim M, k) with at most 12 free cells, k = 0 included
CORE_SHAPES = [(m, k) for m in range(4) for k in range(4) if (1 << m) * ((1 << k) - 1) <= 12]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), pats=st.lists(patterns(2), min_size=1, max_size=2))
def test_core_membership_differential(data, pats):
    m, k = data.draw(st.sampled_from(CORE_SHAPES))
    M = Matroid(m, data.draw(st.integers(0, (1 << ((1 << m) - 1)) - 1)))
    P = forb(*pats)
    assert core_membership(M, P, k) == oracle_core_membership(M, P, k)


def test_core_membership_at_engine_cap():
    # dim 0, k = 5: all 31 cells free, the largest sweep the engine takes
    assert not core_membership(Matroid(0, 0), forb(ONES3), 5)


def test_core_membership_cap():
    # dim 1, k = 5: 62 free cells, refused before any constraint is built
    with mock.patch.object(hereditary, "_merged_constraints", side_effect=AssertionError):
        with pytest.raises(BudgetExceeded, match="62 free table bits exceed the exact-count cap of 31"):
            core_membership(Matroid.constant(1, 1), forb(O2), 5)


def test_core_membership_k0_searches_the_base():
    # no free cell: M itself is searched, no constraint over all injections
    # into dim 12 is built
    with mock.patch.object(hereditary, "_merged_constraints", side_effect=AssertionError):
        assert core_membership(Matroid.constant(12, 1), forb(O2), 0)
        assert not core_membership(Matroid.constant(12, 0), forb(O2), 0)


def test_core_membership_refute():
    P = forb(O2)
    assert core_membership_refute(Matroid.from_values([0]), P, 1, 64, seed=0) is False
    assert core_membership_refute(Matroid.from_values([1]), P, 1, 64, seed=0) is None
    with pytest.raises(ValueError):
        core_membership_refute(Matroid.from_values([1]), P, 1, 0)


# --- Ramsey ----------------------------------------------------------------------------

def test_ramsey_dimension_two():
    res = ramsey_dimension(2, 5)
    assert res.value == 3
    assert sorted(res.counterexamples) == [1, 2]
    assert res.transcript["exhausted"] is True
    assert verify_ramsey_result(res, samples=500)


def test_ramsey_verifier_rejects_tampering():
    res = ramsey_dimension(2, 5)
    bad_cex = dict(res.counterexamples)
    bad_cex[2] = Matroid.constant(2, 0)  # the zero coloring has a mono flat
    from binmat.hereditary import RamseyResult

    tampered = RamseyResult(res.flat_dim, res.value, bad_cex, res.transcript)
    assert not verify_ramsey_result(tampered, samples=50)
    no_cert = RamseyResult(res.flat_dim, res.value, {}, res.transcript)
    assert not verify_ramsey_result(no_cert, samples=50)
    bad_transcript = RamseyResult(res.flat_dim, res.value, res.counterexamples, None)
    assert not verify_ramsey_result(bad_transcript, samples=50)


def test_ramsey_dimension_one():
    # every nonempty coloring of a single point is monochromatic
    res = ramsey_dimension(1, 3)
    assert res.value == 1
    assert verify_ramsey_result(res, samples=50)


def test_ramsey_search_nodes_frozen():
    # the DFS walks every point; a good coloring is found or ruled out
    assert ramsey_dimension(2, 5).transcript["nodes"] == 61
    for n, nodes in ((3, 8), (4, 20), (5, 46)):
        coloring, got = hereditary._search_good_coloring(n, 3, 1000)
        assert got == nodes
        assert verify_ramsey_result(hereditary.RamseyResult(3, None, {n: coloring}))


def test_ramsey_budget():
    with pytest.raises(BudgetExceeded):
        ramsey_dimension(2, 6, node_budget=10)


def test_ramsey_inconclusive_within_cap():
    res = ramsey_dimension(3, 3)
    assert res.value is None
    assert 3 in res.counterexamples
    assert verify_ramsey_result(res, samples=20)


# --- free extensions ---------------------------------------------------------------------

def test_count_free_extensions_example():
    M = Matroid.from_values([1])
    rep = count_free_extensions(M, 2, Pattern.from_values([1, 1, 1]))
    assert rep.count == 3 and rep.total == 4
    assert rep.codim == 1 and rep.applicable
    assert rep.epsilon == Fraction(1, 1 << 8)
    assert rep.bound_log2 == 4 * (1 - Fraction(1, 2) - Fraction(1, 256))
    assert rep.holds


def test_count_free_extensions_vacuous_pattern():
    # a pattern that cannot occur in the ambient space leaves everything free
    M = Matroid.from_values([1])
    rep = count_free_extensions(M, 2, builtin_pattern("ones:3"))
    assert rep.count == rep.total == 4
    assert not rep.applicable  # k = 1 but d = 3 > n = 2


def test_count_free_extensions_not_applicable_without_base_instance():
    # base must contain the restriction of the pattern for the bound to apply
    M = Matroid.from_values([0])
    Np = Pattern.from_values([1, 1, 1])
    rep = count_free_extensions(M, 2, Np)
    base = restrict(Np, Subspace.from_vectors(2, [1]))
    assert find_instance(base, M) is None
    assert not rep.applicable


def test_count_free_extensions_cap():
    with pytest.raises(BudgetExceeded):
        count_free_extensions(Matroid.from_values([1]), 6, O2)


def test_count_free_extensions_fully_pinned_dim6():
    # 0 free points: the count says whether the base itself is O2-free
    for value, want in ((1, 1), (0, 0)):
        rep = count_free_extensions(Matroid.constant(6, value), 6, O2)
        assert (rep.count, rep.total) == (want, 1)


def test_count_free_extensions_fully_pinned_searches_the_base():
    with mock.patch.object(hereditary, "_merged_constraints", side_effect=AssertionError):
        rep = count_free_extensions(Matroid.constant(12, 1), 12, O2)
    assert (rep.count, rep.total) == (1, 1)


def test_count_free_extensions_frozen_n5():
    # a 3-dim all-ones base, 24 free points at n=5
    rep = count_free_extensions(Matroid(3, 127), 5, O2)
    assert rep.count == 363109 and rep.total == 1 << 24


def test_count_free_extensions_holds_exact_boundary():
    from binmat.hereditary import FreeExtensionReport

    rep = FreeExtensionReport(
        count=8, total=16, base_dim=1, ambient_dim=2, pattern_dim=2,
        codim=1, applicable=False, epsilon=Fraction(0), bound_log2=Fraction(3),
    )
    assert rep.holds
    rep2 = FreeExtensionReport(
        count=9, total=16, base_dim=1, ambient_dim=2, pattern_dim=2,
        codim=1, applicable=False, epsilon=Fraction(0), bound_log2=Fraction(3),
    )
    assert not rep2.holds
    rep3 = FreeExtensionReport(
        count=1, total=1, base_dim=1, ambient_dim=1, pattern_dim=1,
        codim=0, applicable=False, epsilon=Fraction(0), bound_log2=Fraction(-1),
    )
    assert not rep3.holds


# --- entropy sandwich -------------------------------------------------------------------

@pytest.mark.parametrize("k", (1, 2))
@pytest.mark.parametrize("n", (2, 3, 4))
def test_entropy_sandwich_exact(n, k):
    if k > n:
        pytest.skip("codimension exceeds dimension")
    count = count_critical_at_most(n, k)
    lo_exp = (1 << n) - (1 << (n - k))
    hi_exp = lo_exp + k * n
    assert (1 << lo_exp) <= count <= (1 << hi_exp)
