import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binmat.errors import BudgetExceeded
from binmat.gf2 import (
    GF2Vector,
    LinearInjections,
    LinearMap,
    Subspace,
    count_linear_injections,
    enumerate_points,
    enumerate_subspaces,
    gaussian_binomial,
    random_linear_injection,
    rank,
    rooted_subspace_packing,
    rref,
    span_step,
    span_table,
    subspace_point_masks,
)


def brute_force_flats(n: int, d: int) -> set:
    """Subsets of the nonzero points closed under xor, of size 2^d - 1."""
    pts = list(range(1, 1 << n))
    want = (1 << d) - 1
    flats = set()
    for combo in itertools.combinations(pts, want):
        s = set(combo)
        if all((a ^ b) in s for a, b in itertools.combinations(combo, 2)):
            mask = 0
            for p in combo:
                mask |= 1 << (p - 1)
            flats.add(mask)
    if d == 0:
        flats = {0}
    return flats


# --- echelon form -------------------------------------------------------------

def test_rref_known():
    assert rref([]) == ()
    assert rref([0, 0]) == ()
    # pivot = lowest set bit; pivots ascending and cleared from other rows
    assert rref([0b110, 0b011]) == (0b101, 0b110)
    assert rref([5, 3, 6]) == (0b101, 0b110)
    assert rref([1, 3, 7]) == (1, 2, 4)


def test_rank_matches_rref():
    assert rank([0b110, 0b011, 0b101]) == 2
    assert rank([1, 2, 4, 7]) == 3


@given(st.lists(st.integers(min_value=0, max_value=255), max_size=6))
def test_rref_idempotent_and_span_preserving(vectors):
    basis = rref(vectors)
    assert rref(basis) == basis
    # every input vector reduces to zero against the basis
    for v in vectors:
        r = v
        for b in basis:
            low = b & -b
            if r & low:
                r ^= b
        assert r == 0


@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_linearity_of_random_injection(n, rng):
    d = rng.randrange(1, n + 1)
    phi = random_linear_injection(d, n, rng)
    x = rng.randrange(1 << d)
    y = rng.randrange(1 << d)
    assert phi.apply_bits(x ^ y) == phi.apply_bits(x) ^ phi.apply_bits(y)


# --- vectors and subspaces -----------------------------------------------------

def test_gf2vector_validation():
    v = GF2Vector(3, 0b101)
    w = GF2Vector(3, 0b011)
    assert (v + w).bits == 0b110
    with pytest.raises(ValueError):
        GF2Vector(2, 4)
    with pytest.raises(ValueError):
        v + GF2Vector(2, 1)


def test_enumerate_points():
    assert [p.bits for p in enumerate_points(2)] == [1, 2, 3]
    assert list(enumerate_points(0)) == []


def test_subspace_canonical_rejects_non_echelon():
    with pytest.raises(ValueError):
        Subspace(3, (0b011, 0b001))
    s = Subspace.from_vectors(3, [0b011, 0b001])
    assert s.basis == (0b001, 0b010)


def test_subspace_membership_and_mask():
    s = Subspace.from_vectors(4, [0b0011, 0b1100])
    assert s.dim == 2 and s.codim == 2
    members = {s.combination(c) for c in range(4)}
    assert {v for v in range(16) if s.contains_bits(v)} == members
    assert s.point_mask == sum(1 << (p - 1) for p in members if p)


def test_subspace_intersection():
    a = Subspace.from_vectors(3, [0b001, 0b010])
    b = Subspace.from_vectors(3, [0b010, 0b100])
    assert a.intersection(b).basis == (0b010,)
    assert a.intersection(a) == a


def test_subspace_json_roundtrip():
    s = Subspace.from_vectors(5, [0b10101, 0b01010])
    assert Subspace.from_json_dict(s.to_json_dict()) == s


@pytest.mark.parametrize("n", range(0, 5))
def test_subspace_counts_small(n):
    for d in range(0, n + 1):
        subs = list(enumerate_subspaces(n, d))
        assert len(subs) == gaussian_binomial(n, d)
        assert len({s.basis for s in subs}) == len(subs)


@pytest.mark.parametrize("n,d", [(3, 1), (3, 2), (4, 2)])
def test_subspaces_match_brute_force_closure(n, d):
    enumerated = {s.point_mask for s in enumerate_subspaces(n, d)}
    assert enumerated == brute_force_flats(n, d)


def oracle_echelon_bases(n: int, d: int):
    """The subspace order as first written: pivots in combinations order,
    then each row's free cells filled from a counter, last row fastest."""
    for pivots in itertools.combinations(range(n), d):
        free = [[q for q in range(p + 1, n) if q not in pivots] for p in pivots]
        for choice in itertools.product(*(range(1 << len(f)) for f in free)):
            rows = []
            for i, p in enumerate(pivots):
                row = 1 << p
                for k, q in enumerate(free[i]):
                    if (choice[i] >> k) & 1:
                        row |= 1 << q
                rows.append(row)
            yield tuple(rows)


@pytest.mark.parametrize("n", range(0, 7))
def test_subspace_point_masks_match_enumerate_subspaces(n):
    for d in range(n + 1):
        subs = list(enumerate_subspaces(n, d))
        assert [S.basis for S in subs] == list(oracle_echelon_bases(n, d))
        oracle = [sum(1 << (S.combination(c) - 1) for c in range(1, 1 << d)) for S in subs]
        assert [S.point_mask for S in subs] == oracle
        assert list(subspace_point_masks(n, d)) == oracle


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=6))
def test_span_table_matches_apply_bits_and_combination(vectors):
    table = span_table(vectors)
    phi = LinearMap(len(vectors), 8, tuple(vectors))
    assert table == [phi.apply_bits(x) for x in range(1 << len(vectors))]
    S = Subspace.from_vectors(8, vectors)
    assert span_table(S.basis) == [S.combination(c) for c in range(1 << S.dim)]
    grown, mask = [0] * (1 << S.dim), 0
    for level, v in enumerate(S.basis):
        mask = span_step(grown, level, v, mask)
    assert grown == span_table(S.basis) and mask == S.point_mask


def test_point_mask_matches_spanned_points_dim5():
    for d in range(0, 6):
        for S in enumerate_subspaces(5, d):
            mask = 0
            for p in S.spanned_points():
                mask |= 1 << (p - 1)
            assert S.point_mask == mask, S


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2) == 35
    assert gaussian_binomial(5, 1) == 31
    assert gaussian_binomial(6, 3) == 1395
    assert gaussian_binomial(3, 5) == 0
    assert gaussian_binomial(3, -1) == 0
    # symmetry
    for n in range(7):
        for d in range(n + 1):
            assert gaussian_binomial(n, d) == gaussian_binomial(n, n - d)


# --- linear injections ----------------------------------------------------------

def test_injection_counts_match_formula():
    for n in range(5):
        for d in range(n + 1):
            want = math.prod((1 << n) - (1 << i) for i in range(d))
            seq = LinearInjections(d, n)
            assert len(seq) == want == count_linear_injections(d, n)
            if want <= 2000:
                maps = list(seq)
                assert len(maps) == want
                assert len(set(maps)) == want


def test_injection_vacuous():
    seq = LinearInjections(3, 2)
    assert seq.vacuous and len(seq) == 0 and list(seq) == []


def test_injection_empty_map():
    seq = LinearInjections(0, 5)
    assert len(seq) == 1
    assert seq[0].images == ()


def test_injection_index_roundtrip():
    seq = LinearInjections(2, 3)
    for i in range(len(seq)):
        assert seq.index(seq[i]) == i
    with pytest.raises(ValueError):
        seq.index(LinearMap(2, 3, (1, 1)))


def test_injection_getitem_matches_iteration_order():
    seq = LinearInjections(2, 4)
    listed = list(seq)
    for i in (0, 7, 41, len(seq) - 1):
        assert seq[i] == listed[i]
    assert seq[-1] == listed[-1]
    with pytest.raises(IndexError):
        seq[len(seq)]


def test_injection_random_roundtrip_large():
    seq = LinearInjections(5, 6)
    rng = random.Random(0)
    for _ in range(25):
        i = rng.randrange(len(seq))
        assert seq.index(seq[i]) == i


@pytest.mark.parametrize("n", range(0, 5))
def test_image_tuples_match_product_oracle(n):
    for d in range(min(n, 3) + 1):
        oracle = [t for t in itertools.product(range(1, 1 << n), repeat=d) if rank(t) == d]
        assert list(LinearInjections(d, n).image_tuples()) == oracle


def test_injection_images_are_injective_linear():
    for phi in LinearInjections(2, 3):
        assert phi.is_injective
        seen = {phi.apply_bits(x) for x in range(4)}
        assert len(seen) == 4


def test_random_injection_deterministic():
    a = random_linear_injection(3, 5, random.Random(7))
    b = random_linear_injection(3, 5, random.Random(7))
    assert a == b and a.is_injective
    inv = random_linear_injection(4, 4, random.Random(1))
    assert inv.is_injective and inv.domain_dim == inv.codomain_dim == 4


# --- rooted packings -------------------------------------------------------------

def pack_conditions(fam, U, W, d):
    u_mask = U.point_mask
    w_mask = W.point_mask
    for X in fam:
        assert X.dim == d
        assert X.point_mask & w_mask == u_mask
    for X, Y in itertools.combinations(fam, 2):
        assert X.point_mask & Y.point_mask == u_mask


def test_packing_two_points_outside_line():
    U = Subspace.zero(2)
    W = Subspace.from_vectors(2, [1])
    fam = rooted_subspace_packing(U, W, 2)
    assert len(fam) == 2
    pack_conditions(fam, U, W, 1)
    assert {X.basis[0] for X in fam} == {2, 3}


def test_packing_w_equals_v_returns_u():
    U = Subspace.from_vectors(4, [1, 2])
    fam = rooted_subspace_packing(U, Subspace.full(4), 4)
    assert fam == [U]


def test_packing_u_equals_w():
    U = Subspace.from_vectors(3, [1])
    fam = rooted_subspace_packing(U, U, 3)
    assert len(fam) == 1 and fam[0] == Subspace.full(3)


def test_packing_sixteen_lines():
    U = Subspace.zero(6)
    W = Subspace.from_vectors(6, [1, 2, 4, 8, 16])
    fam = rooted_subspace_packing(U, W, 6)
    assert len(fam) >= 16
    pack_conditions(fam, U, W, 1)


def test_packing_rejects_bad_inputs():
    with pytest.raises(ValueError):
        rooted_subspace_packing(
            Subspace.from_vectors(3, [1]), Subspace.from_vectors(3, [2]), 3
        )
    with pytest.raises(ValueError):
        rooted_subspace_packing(Subspace.zero(2), Subspace.zero(3), 3)
    with pytest.raises(BudgetExceeded):
        rooted_subspace_packing(Subspace.zero(9), Subspace.zero(9), 9)


def test_packing_frozen_n8():
    # sha256 of the bases in order: pins the greedy choice and each canonical basis
    fam = rooted_subspace_packing(Subspace.zero(8), Subspace.from_vectors(8, [1, 2, 4, 8]), 8)
    digest = hashlib.sha256(repr([S.basis for S in fam]).encode()).hexdigest()
    assert len(fam) == 16
    assert digest == "af829ed576dfb292932b8e7ba2f1d206f6420c0456a987a726ed018da851c81a"


def test_packing_deterministic():
    U = Subspace.zero(5)
    W = Subspace.from_vectors(5, [1, 2])
    a = rooted_subspace_packing(U, W, 5)
    b = rooted_subspace_packing(U, W, 5)
    assert a == b
