import hashlib
import itertools
import math
import random
import time
from collections import Counter
from typing import Iterator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binmat.errors import BudgetExceeded
from binmat.gf2 import (
    GF2Vector,
    LinearInjections,
    LinearMap,
    Subspace,
    _GL_CLASSES,
    _bit_clear_masks,
    _mask_points,
    _points_mask,
    _xor_shift,
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

def test_xor_shift_matches_pointwise_definition():
    rng = random.Random(29)
    for n in range(7):
        for t in range(1 << n):
            for mask in (0, (1 << (1 << n)) - 1, rng.getrandbits(1 << n), rng.getrandbits(1 << n)):
                want = sum(1 << (v ^ t) for v in range(1 << n) if mask >> v & 1)
                assert _xor_shift(mask, t, n) == want


def test_bit_clear_masks_dim20():
    rng = random.Random(20)
    masks = _bit_clear_masks(20)
    assert len(masks) == 20
    for b in (0, 1, 5, 13, 19):
        assert masks[b].bit_count() == 1 << 19 and masks[b] < 1 << (1 << 20)
        for v in [0, (1 << 20) - 1] + [rng.getrandbits(20) for _ in range(50)]:
            assert masks[b] >> v & 1 == (not v >> b & 1)
    for _ in range(20):
        p, q, t = (rng.getrandbits(20) for _ in range(3))
        assert _xor_shift(1 << p | 1 << q, t, 20) == 1 << (p ^ t) | 1 << (q ^ t)


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
    members = set(span_table(s.basis))
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
        basis_maps = [LinearMap(d, n, S.basis) for S in subs]
        oracle = [sum(1 << (phi.apply_bits(c) - 1) for c in range(1, 1 << d)) for phi in basis_maps]
        assert [S.point_mask for S in subs] == oracle
        assert list(subspace_point_masks(n, d)) == oracle


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=6))
def test_span_table_matches_apply_bits_and_combination(vectors):
    table = span_table(vectors)
    phi = LinearMap(len(vectors), 8, tuple(vectors))
    assert table == [phi.apply_bits(x) for x in range(1 << len(vectors))]
    S = Subspace.from_vectors(8, vectors)
    basis_map = LinearMap(S.dim, 8, S.basis)
    assert span_table(S.basis) == [basis_map.apply_bits(c) for c in range(1 << S.dim)]
    grown, mask = [0] * (1 << S.dim), 0
    for level, v in enumerate(S.basis):
        mask |= _points_mask(span_step(grown, level, v))
    assert grown == span_table(S.basis) and mask == S.point_mask


def mask_points_bit_walk(mask: int) -> list[int]:
    """_mask_points as first written: peel off the lowest set bit (quadratic
    in the mask width, since each step rewrites the whole int)."""
    pts = []
    while mask:
        low = mask & -mask
        pts.append(low.bit_length())
        mask ^= low
    return pts


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.integers(0, (1 << ((1 << n) - 1)) - 1)),
       st.sets(st.integers(1, 63)))
@example(0, set())
def test_points_mask_inverts_mask_points(mask, points):
    assert _mask_points(mask) == mask_points_bit_walk(mask)
    assert _points_mask(_mask_points(mask)) == mask
    assert _mask_points(_points_mask(points)) == sorted(points)


def points_mask_loop(points) -> int:
    """_points_mask as first written: one OR per point (quadratic in the
    mask width, since each OR copies the mask)."""
    mask = 0
    for p in points:
        mask |= 1 << (p - 1)
    return mask


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 1000), max_size=200))
@example([])
@example(list(range(1, 65)))
@example(list(range(1, 66)))
def test_points_mask_matches_loop(points):
    # repeats allowed; more than 64 points take the digit-string path
    assert _points_mask(points) == points_mask_loop(points)
    assert _points_mask(tuple(reversed(points))) == points_mask_loop(points)


def test_points_mask_is_linear():
    # 2^18 - 1 points: one OR per point took about 0.6 s on a 2-core box
    points = list(range(1, 1 << 18))
    start = time.perf_counter()
    assert _points_mask(points) == (1 << ((1 << 18) - 1)) - 1
    assert time.perf_counter() - start < 0.3


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


@pytest.mark.parametrize(
    "d,n,seed,images",
    [
        (3, 5, 7, (11, 31, 5)),
        (4, 4, 1, (3, 10, 14, 2)),
        (5, 8, 2024, (121, 47, 187, 149, 78)),
        (2, 31, 3, (511025151, 1272686666)),
        (6, 6, 0, (55, 25, 49, 57, 27, 3)),
    ],
)
def test_random_injection_frozen_draws(d, n, seed, images):
    # draws recorded from earlier runs: a seed must keep giving the same maps
    assert random_linear_injection(d, n, random.Random(seed)).images == images


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


@pytest.mark.parametrize("du,dw,m,digest", [
    (1, 5, 12, "46c7a21a5f23084e7ae93ea757ff7040a0d521599f56912647986d73accf22ea"),
    (2, 6, 16, "743f55453ecb5133809db3f393efb1108986dcd585a4febc03e3300b73213b10"),
])
def test_packing_frozen_n8_coordinate_shapes(du, dw, m, digest):
    # recorded from the full sweep over subspace_point_masks(8, 4)
    U = Subspace.from_vectors(8, [1 << i for i in range(du)])
    W = Subspace.from_vectors(8, [1 << i for i in range(dw)])
    fam = rooted_subspace_packing(U, W, 8)
    assert len(fam) == m
    assert hashlib.sha256(repr([S.basis for S in fam]).encode()).hexdigest() == digest


def oracle_rooted_packing(U, W, V_dim):
    """The greedy packing as a sweep: every candidate's point mask in the
    canonical order, kept when it meets W and every kept mask exactly in U."""
    d = V_dim - W.dim + U.dim
    u_mask, w_mask = U.point_mask, W.point_mask
    masks = []
    for xm in subspace_point_masks(V_dim, d):
        if xm & w_mask == u_mask and all(xm & fm == u_mask for fm in masks):
            masks.append(xm)
    return [Subspace.from_vectors(V_dim, [p for p in range(1, 1 << V_dim) if xm >> (p - 1) & 1])
            for xm in masks]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n), st.integers(0, n), st.integers(0, 2**32))))
def test_packing_matches_oracle_random_nested(args):
    n, a, b, seed = args
    du, dw = min(a, b), max(a, b)
    phi = random_linear_injection(n, n, random.Random(seed))
    U = Subspace.from_vectors(n, phi.images[:du])
    W = Subspace.from_vectors(n, phi.images[:dw])
    assert rooted_subspace_packing(U, W, n) == oracle_rooted_packing(U, W, n)


@pytest.mark.parametrize("du,dw", [(du, dw) for dw in range(8) for du in range(dw + 1)])
def test_packing_matches_oracle_coordinate_n7(du, dw):
    U = Subspace.from_vectors(7, [1 << i for i in range(du)])
    W = Subspace.from_vectors(7, [1 << i for i in range(dw)])
    assert rooted_subspace_packing(U, W, 7) == oracle_rooted_packing(U, W, 7)


def test_packing_deterministic():
    U = Subspace.zero(5)
    W = Subspace.from_vectors(5, [1, 2])
    a = rooted_subspace_packing(U, W, 5)
    b = rooted_subspace_packing(U, W, 5)
    assert a == b


# --- conjugacy classes of GL(n, 2) -------------------------------------------------

def _poly_mul(a: int, b: int) -> int:
    """Product in GF(2)[x]; bit i of a polynomial is its x^i coefficient."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def _poly_mod(a: int, b: int) -> int:
    """Remainder of a modulo b (b != 0) in GF(2)[x]."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def _irreducibles(max_deg: int) -> list[int]:
    """The monic irreducible polynomials of degree 1..max_deg over GF(2)
    other than x (the ones that can divide a characteristic polynomial of
    an invertible matrix), ascending."""
    found: list[int] = []
    for f in range(3, 1 << (max_deg + 1), 2):
        if all(_poly_mod(f, g) for g in found if 2 * g.bit_length() <= f.bit_length() + 1):
            found.append(f)
    return found


def _partitions(m: int, largest: int = 0) -> Iterator[tuple[int, ...]]:
    """The partitions of m, parts nonincreasing and at most largest (if set)."""
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest or m), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


def _centralizer_factor(q: int, parts: tuple[int, ...]) -> int:
    """The factor of a centralizer order that one irreducible f with
    q = 2^deg f and partition parts contributes:
    q^(sum_j lambda'_j^2) * prod_i prod_{j <= m_i} (1 - q^-j), where lambda'
    is the conjugate partition and m_i the multiplicity of part i."""
    conjugate = [sum(1 for p in parts if p > j) for j in range(parts[0])] if parts else []
    mults = Counter(parts).values()
    exp = sum(c * c for c in conjugate) - sum(m * (m + 1) // 2 for m in mults)
    return q**exp * math.prod(q**j - 1 for m in mults for j in range(1, m + 1))


def oracle_gl_conjugacy_classes(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """One (columns, class size) pair per conjugacy class of GL(n, 2).

    A class is fixed by a partition lambda_f per monic irreducible f != x
    with sum_f deg f * |lambda_f| = n.  Its representative (the images of
    the standard basis, as for LinearMap) is the rational canonical form:
    block-diagonal companion matrices of f^k, one per part k of lambda_f.
    The class size is |GL(n, 2)| / |C(g)|, with the centralizer order the
    product of _centralizer_factor over the f (Kung 1981; Macdonald,
    Symmetric Functions and Hall Polynomials, ch. IV).
    """
    order = count_linear_injections(n, n)
    irreducibles = _irreducibles(n)
    classes: list[tuple[tuple[int, ...], int]] = []

    def rec(i: int, left: int, blocks: list[int], centralizer: int) -> None:
        if left == 0:
            cols: list[int] = []
            for p in blocks:  # companion matrix of p on the next deg p coordinates
                off, deg = len(cols), p.bit_length() - 1
                cols += [1 << (off + j + 1) for j in range(deg - 1)]
                cols.append((p ^ (1 << deg)) << off)
            assert order % centralizer == 0
            classes.append((tuple(cols), order // centralizer))
            return
        if i == len(irreducibles):
            return
        f = irreducibles[i]
        deg = f.bit_length() - 1
        powers = [1]  # powers[k] = f^k
        for size in range(left // deg + 1):
            for parts in _partitions(size):
                rec(i + 1, left - deg * size, blocks + [powers[k] for k in parts],
                    centralizer * _centralizer_factor(1 << deg, parts))
            powers.append(_poly_mul(powers[-1], f))

    rec(0, n, [], 1)
    assert sum(size for _, size in classes) == order
    return tuple(classes)


@pytest.mark.parametrize("n", range(6))
def test_gl_classes_match_oracle(n):
    assert _GL_CLASSES[n] == oracle_gl_conjugacy_classes(n)


@pytest.mark.parametrize("n,classes,order", [
    (0, 1, 1), (1, 1, 1), (2, 3, 6), (3, 6, 168), (4, 14, 20160), (5, 27, 9_999_360)])
def test_gl_conjugacy_class_counts(n, classes, order):
    reps = _GL_CLASSES[n]
    assert len(reps) == classes
    assert sum(size for _, size in reps) == order
    for cols, _ in reps:
        assert len(cols) == n and rank(cols) == n


@pytest.mark.parametrize("n", range(1, 5))
def test_gl_conjugacy_classes_match_brute_force_orbits(n):
    """Conjugate each representative by every element of GL(n, 2): each
    orbit has the formula's size, and the orbits partition the group."""
    group = []  # (table of h, table of h^-1), tables indexed by vector
    for images in LinearInjections(n, n).image_tuples():
        h = span_table(images)
        inv = [0] * len(h)
        for x, y in enumerate(h):
            inv[y] = x
        group.append((h, inv))
    basis = [1 << i for i in range(n)]
    seen = set()
    for cols, size in _GL_CLASSES[n]:
        g = span_table(cols)
        orbit = {tuple(h[g[inv[e]]] for e in basis) for h, inv in group}
        assert len(orbit) == size
        assert not orbit & seen
        seen |= orbit
    assert len(seen) == len(group) == count_linear_injections(n, n)
