import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import binmat.hereditary as hereditary
from binmat.errors import BudgetExceeded
from binmat.gf2 import Subspace, random_linear_injection
from binmat.hereditary import (
    LocalProperty,
    _members,
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
    builtin_pattern,
    builtin_pattern as bp,
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
    for n in (2, 3, 4):
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


def test_census_cap():
    with pytest.raises(BudgetExceeded):
        census(forb(O2), 6)


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


# a small MID_BITS splits even 7- and 15-point sweeps into many chunks
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


@pytest.mark.parametrize("n", range(5))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), mid=mid_bits)
def test_members_match_oracle(n, data, mid):
    forbid = data.draw(constraint_lists(n))
    members, _ = oracle_members(n, forbid)
    with mock.patch.object(hereditary, "MID_BITS", mid):
        assert list(_members(n, forbid)) == members


def test_count_members_edge_constraints():
    # the pins (point 1 = 1, point 2 = 0) contradict the forbid constraint,
    # which is dropped; the empty constraint leaves no member at all; a
    # constraint asking point 8 (a strided-view bit) to be both one and
    # zero holds on no table
    assert count_members(3, ((0b11, 0b100),), ((0b1000000, 0),), 2, 0b01) == (32, 16)
    assert count_members(4, ((0, 0),)) == (0, 0)
    assert count_members(4, ((0, 0),), fixed_points=15, fixed_ones=5) == (0, 0)
    assert count_members(4, ((1 << 7, 1 << 7),), ((1 << 7, 1 << 7),)) == (1 << 15, 0)


def test_members_frozen_forb_o2():
    P = forb(O2)
    naive = [t for t in range(1 << 7) if contains(P, Matroid(3, t))]
    assert list(_members(3, instance_constraints(O2, 3))) == naive
    assert len(naive) == FORB_O2_COUNTS[3]


def test_count_members_free_bit_cap():
    # 63 free points would sweep 2^63 tables: refused before any allocation
    with pytest.raises(BudgetExceeded, match="63 free table bits exceed the exact-count cap of 31"):
        count_members(6, ((1, 0),))


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


# --- core membership -------------------------------------------------------------------

def test_core_membership_examples():
    P = forb(O2)
    assert core_membership(Matroid.from_values([1]), P, 1)
    assert not core_membership(Matroid.from_values([0]), P, 1)


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
