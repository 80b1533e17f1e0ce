import functools
import hashlib
import itertools
import json
import random
import time
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binmat.errors import BudgetExceeded
from binmat.gf2 import (
    LinearInjections,
    Subspace,
    count_linear_injections,
    enumerate_subspaces,
    random_linear_injection,
    rank,
    span_table,
    subspace_point_masks,
)
from binmat.matroid import (
    Matroid,
    Pattern,
    RealFunction,
    STAR,
    TABLE_MAX_DIM,
    bose_burton,
    builtin_pattern,
    canonical_form,
    count_instances,
    critical_number,
    density,
    density_in_function,
    evaluations,
    ext_membership,
    find_instance,
    is_isomorphic,
    is_k_affine,
    load_json_dict,
    load_table,
    restrict,
    sample_extension,
    sample_matroid,
    vanishing_pattern,
)

ALL_DIM2 = [Matroid(2, t) for t in range(8)]
ALL_DIM3 = [Matroid(3, t) for t in range(128)]


def apply_invertible(M: Matroid, phi) -> Matroid:
    values = [0] * M.n_points
    for x in range(1, M.n_points + 1):
        values[phi.apply_bits(x) - 1] = M(x)
    return Matroid.from_values(values)


# --- tables and patterns --------------------------------------------------------

def test_matroid_basics():
    M = Matroid.from_values([1, 0, 1])
    assert M.dim == 2 and M.n_points == 3
    assert (M(1), M(2), M(3)) == (1, 0, 1)
    assert M.weight == 2
    assert M.complement().weight == 1
    with pytest.raises(ValueError):
        M(4)
    with pytest.raises(ValueError):
        Matroid(2, 8)


def test_matroid_text_roundtrip():
    M = Matroid.from_values([1, 0, 1, 0, 0, 1, 1])
    assert load_table(M.to_text()) == M
    assert load_json_dict(M.to_json_dict()) == M


def test_pattern_roundtrip_and_stars():
    N = Pattern.from_values([1, STAR, 0])
    assert N.stars == 0b010
    assert not N.is_star_free
    assert load_table(N.to_text()) == N
    assert load_json_dict(N.to_json_dict()) == N
    assert N.ones_only() == Pattern.from_values([1, STAR, STAR])
    assert N.zeros_only() == Pattern.from_values([STAR, STAR, 0])
    assert N.complement() == Pattern.from_values([0, STAR, 1])


def test_pattern_matroid_conversion():
    M = Matroid.from_values([0, 1, 1])
    P = M.to_pattern()
    assert P.is_star_free and P.to_matroid() == M
    with pytest.raises(ValueError):
        Pattern.from_values([1, STAR, 0]).to_matroid()


def test_load_table_rejects_malformed():
    with pytest.raises(ValueError):
        load_table("dim=2\n11\n")  # wrong cell count
    with pytest.raises(ValueError):
        load_table("111\n")
    with pytest.raises(ValueError):
        load_table("dim=2\n1x1\n")


def test_dim0_round_trip():
    # a dim-0 table has no cells, so its cell line is empty or missing
    M, N = Matroid(0, 0), Pattern(0, 0, 0)
    assert M.to_text() == "dim=0\n\n"
    assert load_table(M.to_text()) == M
    assert load_table("dim=0") == M
    assert load_json_dict(M.to_json_dict()) == M
    assert load_table(N.to_text()).to_pattern() == N  # star-free: a Matroid
    assert load_json_dict(N.to_json_dict()) == N
    for bad in ("dim=2\n", "dim=0\n1\n", "dim=x\n", "\n", "0\n"):
        with pytest.raises(ValueError):
            load_table(bad)


def test_from_values_matches_load_table():
    rng = random.Random(18)
    for dim in range(7):
        npts = (1 << dim) - 1
        for _ in range(5):
            ones = rng.getrandbits(npts)
            zeros = rng.getrandbits(npts) & ~ones
            M, N = Matroid(dim, ones), Pattern(dim, ones, zeros)
            values = [M(p) for p in range(1, npts + 1)]
            assert Matroid.from_values(values) == load_table(M.to_text()) == M
            cells = [N(p) for p in range(1, npts + 1)]
            got = Pattern.from_values(cells)
            assert got == load_json_dict(N.to_json_dict()) == N
            none_stars = [None if c == STAR else c for c in cells]
            assert Pattern.from_values(none_stars) == N
    for bad in ([2], [1, 0], ["1"]):
        with pytest.raises(ValueError):
            Matroid.from_values(bad)
    for bad in ([2], [1, STAR], ["0"]):
        with pytest.raises(ValueError):
            Pattern.from_values(bad)


def test_from_values_is_linear():
    # table |= v << i copied the growing table per value: 0.38 s (Matroid)
    # and 0.55 s (Pattern) at dim 18
    rng = random.Random(180)
    values = [rng.getrandbits(1) for _ in range((1 << 18) - 1)]
    cells = [STAR if rng.random() < 0.2 else v for v in values]
    start = time.perf_counter()
    M = Matroid.from_values(values)
    N = Pattern.from_values(cells)
    assert time.perf_counter() - start < 0.2
    assert M.weight == sum(values)
    assert N.stars.bit_count() == cells.count(STAR)


def frozen_render_digest() -> str:
    """sha256 over to_text, sorted to_json_dict and repr of seeded tables
    of dims 0-3, ten Matroid/Pattern pairs per dimension."""
    rng = random.Random(2021)
    h = hashlib.sha256()
    for dim in range(4):
        npts = (1 << dim) - 1
        for _ in range(10):
            ones = rng.getrandbits(npts)
            zeros = rng.getrandbits(npts) & ~ones
            for obj in (Matroid(dim, ones), Pattern(dim, ones, zeros)):
                h.update(obj.to_text().encode())
                h.update(json.dumps(obj.to_json_dict(), sort_keys=True).encode())
                h.update(repr(obj).encode())
    return h.hexdigest()


def test_rendering_frozen():
    # recorded from the per-class renderers, before both classes shared one
    want = "f173757f8c07f18daed0fb5941556be65bd85f25c8bf83417dbd12be72e8f2ec"
    assert frozen_render_digest() == want
    assert repr(Matroid(0, 0)) == "Matroid(dim=0, table='')"


def test_dim20_round_trip_is_linear():
    # rendering cell by cell shifted the whole table per cell: 27 s (Matroid)
    # and 40 s (Pattern) for the render alone
    rng = random.Random(20)
    npts = (1 << 20) - 1
    ones = rng.getrandbits(npts)
    start = time.perf_counter()
    for obj in (Matroid(20, ones), Pattern(20, ones, rng.getrandbits(npts) & ~ones)):
        assert load_table(obj.to_text()) == obj
    assert time.perf_counter() - start < 5


def test_builtin_patterns():
    O2 = builtin_pattern("O2")
    assert O2.dim == 2 and O2.zeros == 0b111
    I1 = builtin_pattern("I1")
    assert I1.dim == 1 and I1.ones == 1
    assert builtin_pattern("BB:1:2") == bose_burton(1, 2)
    assert builtin_pattern("ones:3").ones == (1 << 7) - 1
    assert builtin_pattern("zeros:2").zeros == 0b111
    with pytest.raises(ValueError):
        builtin_pattern("nope")


# --- restriction -----------------------------------------------------------------

def test_restrict_to_coordinate_plane():
    # M is 1 exactly on the third coordinate axis point and above
    M = Matroid.from_values([0, 0, 0, 1, 1, 1, 1])
    W = Subspace.from_vectors(3, [0b001, 0b010])
    R = restrict(M, W)
    assert R == Matroid.from_values([0, 0, 0])
    W2 = Subspace.from_vectors(3, [0b001, 0b100])
    R2 = restrict(M, W2)
    # points of W2 in coefficient order: e1, e3, e1+e3
    assert R2 == Matroid.from_values([0, 1, 1])


def test_restrict_pattern_keeps_stars():
    N = Pattern.from_values([1, STAR, 0, STAR, 1, 0, STAR])
    W = Subspace.from_vectors(3, [0b010, 0b100])
    R = restrict(N, W)
    assert R == Pattern.from_values([STAR, STAR, 0])


def restrict_per_point(obj, W: Subspace):
    """restrict as first written: one value_bits call per point of W."""
    d = W.dim
    pts = span_table(W.basis)
    if isinstance(obj, Matroid):
        table = 0
        for y in range(1, (1 << d)):
            table |= obj.value_bits(pts[y]) << (y - 1)
        return Matroid(d, table)
    ones = zeros = 0
    for y in range(1, (1 << d)):
        v = obj.value_bits(pts[y])
        if v == 1:
            ones |= 1 << (y - 1)
        elif v == 0:
            zeros |= 1 << (y - 1)
    return Pattern(d, ones, zeros)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_restrict_matches_per_point_loop(data):
    n = data.draw(st.integers(0, 5))
    cells = st.integers(0, (1 << ((1 << n) - 1)) - 1)
    ones, zeros = data.draw(cells), data.draw(cells)
    W = Subspace.from_vectors(n, data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n)))
    for obj in (Matroid(n, ones), Pattern(n, ones, zeros & ~ones)):
        assert restrict(obj, W) == restrict_per_point(obj, W)


def restrict_shift_loop(obj, W: Subspace):
    """restrict as it was before the point lookup table: one shift of the
    whole mask per point of W."""
    pts = span_table(W.basis)

    def pull_back(mask: int) -> int:
        return sum(1 << (y - 1) for y in range(1, len(pts)) if (mask >> (pts[y] - 1)) & 1)

    if isinstance(obj, Matroid):
        return Matroid(W.dim, pull_back(obj.table))
    return Pattern(W.dim, pull_back(obj.ones), pull_back(obj.zeros))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_restrict_matches_shift_loop(data):
    n = data.draw(st.integers(0, 6))
    cells = st.integers(0, (1 << ((1 << n) - 1)) - 1)
    ones, zeros = data.draw(cells), data.draw(cells)
    W = Subspace.from_vectors(n, data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n)))
    for obj in (Matroid(n, ones), Pattern(n, ones, zeros & ~ones)):
        assert restrict(obj, W) == restrict_shift_loop(obj, W)


def test_restrict_dim18_is_linear():
    # the shift loop took 0.58 s on this input: each shift copied the 2^18-bit mask
    rng = random.Random(18)
    M = Matroid(18, rng.getrandbits((1 << 18) - 1))
    W = Subspace.from_vectors(18, [1 << i for i in range(16)])
    start = time.perf_counter()
    R = restrict(M, W)
    assert time.perf_counter() - start < 0.25
    assert R.table == M.table & ((1 << ((1 << 16) - 1)) - 1)


def test_restrict_dimension_mismatch():
    M = Matroid.constant(2, 1)
    with pytest.raises(ValueError):
        restrict(M, Subspace.from_vectors(3, [1]))


# --- instances --------------------------------------------------------------------

def test_find_instance_all_ones():
    ones2 = builtin_pattern("ones:2")
    M = Matroid.constant(3, 1)
    phi = find_instance(ones2, M)
    assert phi is not None
    for x in range(1, 4):
        assert M(phi.apply_bits(x)) == 1
    assert count_instances(ones2, M) == 7 * 6


def test_no_instance_when_dim_too_small():
    ones3 = builtin_pattern("ones:3")
    assert find_instance(ones3, Matroid.constant(2, 1)) is None
    assert count_instances(ones3, Matroid.constant(2, 1)) == 0


def test_count_instances_zero_plane():
    # M vanishes exactly on the plane spanned by e1, e2
    M = Matroid.from_values([0, 0, 0, 1, 1, 1, 1])
    O2 = builtin_pattern("O2")
    assert count_instances(O2, M.to_pattern()) == 6
    t = density(O2, M)
    assert t == Fraction(6, 42) == Fraction(1, 7)


def test_single_point_pattern_counts_weight():
    I1 = builtin_pattern("I1")
    for M in ALL_DIM3[:40]:
        assert count_instances(I1, M.to_pattern()) == M.weight


def test_pattern_target_exact_match():
    # constrained source cells require equal-valued target cells; stars in the
    # target satisfy nothing
    src = Pattern.from_values([1])
    tgt_star = Pattern.from_values([STAR, STAR, STAR])
    assert find_instance(src, tgt_star) is None
    tgt_one = Pattern.from_values([STAR, 1, STAR])
    phi = find_instance(src, tgt_one)
    assert phi is not None and phi.apply_bits(1) == 2


def test_star_source_matches_anything():
    src = Pattern.from_values([STAR, STAR, STAR])
    M = Matroid.from_values([1, 0, 0])
    assert count_instances(src, M) == 3 * 2


def test_empty_pattern_has_one_instance():
    empty = Pattern(0, 0, 0)
    M = Matroid.constant(2, 1)
    assert count_instances(empty, M) == 1


CELLS3 = st.integers(0, (1 << 7) - 1)  # masks over the points of a dim <= 3 table
CELLS4 = st.integers(0, (1 << 15) - 1)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.integers(0, 4), CELLS3, CELLS3, CELLS4, CELLS4, st.booleans())
@example(0, 2, 0, 0, 0b101, 0b010, False)  # d = 0: the empty map realizes anything
@example(0, 0, 0, 0, 0, 0, True)
@example(3, 2, 0, 0, 0, 0, False)  # d > n: no injection at all
@example(2, 1, 0b111, 0, 1, 0, True)
def test_instance_search_matches_brute_force(d, n, src_ones, src_zeros, ones, zeros, as_pattern):
    """count_instances and find_instance against a filter over LinearInjections
    decoded index by index: a map realizes N when every 0/1 cell x of N has
    the same value at phi(x) in the target (a '*' target cell matches none)."""
    src_full, tgt_full = (1 << ((1 << d) - 1)) - 1, (1 << ((1 << n) - 1)) - 1
    N = Pattern(d, src_ones & src_full, src_zeros & src_full & ~src_ones)
    ones &= tgt_full
    T = Pattern(n, ones, zeros & tgt_full & ~ones) if as_pattern else Matroid(n, ones)
    seq = LinearInjections(d, n)
    realizing = []
    for idx in range(len(seq)):
        phi = seq[idx]
        if all(N(x) == STAR or N(x) == T(phi.apply_bits(x)) for x in range(1, 1 << d)):
            realizing.append(phi.images)
    assert count_instances(N, T) == len(realizing)
    found = find_instance(N, T)
    assert (None if found is None else found.images) == (realizing[0] if realizing else None)


def numpy_instances(N: Pattern, T) -> tuple[int, Optional[tuple[int, ...]]]:
    """The number of injective linear maps F_2^d -> F_2^n realizing N in T,
    and the least realizing image tuple, by a brute force over every d-tuple
    of vectors of F_2^n (lexicographic, the order of LinearInjections)."""
    d, n = N.dim, T.dim
    tuples = np.indices((1 << n,) * d).reshape(d, -1)
    images = [np.zeros(tuples.shape[1], dtype=np.int64)]  # images[x]: the image of point x
    for col in tuples:
        images += [img ^ col for img in images]
    ok = np.all(images[1:], axis=0)  # injective: no point maps to 0
    assert ok.sum() == count_linear_injections(d, n)
    Tp = T if isinstance(T, Pattern) else T.to_pattern()
    ones, zeros = (np.array([0] + [m >> (p - 1) & 1 for p in range(1, 1 << n)], dtype=bool)
                   for m in (Tp.ones, Tp.zeros))
    for x in range(1, 1 << d):
        if N(x) != STAR:
            ok &= (ones if N(x) == 1 else zeros)[images[x]]
    first = tuple(tuples[:, np.argmax(ok)].tolist()) if ok.any() else None
    return int(ok.sum()), first


CELLS6 = st.integers(0, (1 << 63) - 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(5, 6), CELLS3, CELLS3, CELLS6, CELLS6, st.booleans())
@example(3, 6, 0, 0b1111111, 0, 0b1111111, False)  # zeros:3 in a half-zero matroid
@example(3, 5, 0b1, 0b10, 0, 0, False)  # no constraint on the last level
@example(2, 6, 0b111, 0, (1 << 63) - 1, 0, True)  # ones:2 in the all-ones table
@example(1, 5, 0, 0, 5, 2, True)  # a one-point pattern of stars
def test_count_instances_matches_numpy_brute_force(d, n, src_ones, src_zeros, ones, zeros,
                                                   as_pattern):
    """The popcount count and find_instance on dim-5 and dim-6 targets,
    Matroid and Pattern, against numpy_instances."""
    src_full, tgt_full = (1 << ((1 << d) - 1)) - 1, (1 << ((1 << n) - 1)) - 1
    N = Pattern(d, src_ones & src_full, src_zeros & src_full & ~src_ones)
    ones &= tgt_full
    T = Pattern(n, ones, zeros & tgt_full & ~ones) if as_pattern else Matroid(n, ones)
    count, first = numpy_instances(N, T)
    assert count_instances(N, T) == count
    found = find_instance(N, T)
    assert (None if found is None else found.images) == first


def test_density_is_count_over_injections():
    rng = random.Random(29)
    for _ in range(40):
        M = sample_matroid(rng.randint(3, 6), rng)
        d = rng.randint(0, 3)
        cells = [rng.choice((0, 1, STAR, STAR)) for _ in range((1 << d) - 1)]
        N = Pattern.from_values(cells)
        assert density(N, M) == Fraction(count_instances(N, M),
                                          count_linear_injections(d, M.dim))


# --- isomorphism -------------------------------------------------------------------

def brute_isomorphic(M1: Matroid, M2: Matroid) -> bool:
    if M1.dim != M2.dim:
        return False
    return any(
        apply_invertible(M1, phi) == M2
        for phi in LinearInjections(M1.dim, M1.dim)
    )


def test_is_isomorphic_matches_brute_force_dim2():
    for M1, M2 in itertools.product(ALL_DIM2, repeat=2):
        assert is_isomorphic(M1, M2) == brute_isomorphic(M1, M2)


def test_is_isomorphic_weight_one_dim3():
    M1 = Matroid.from_values([1, 0, 0, 0, 0, 0, 0])
    M2 = Matroid.from_values([0, 0, 0, 0, 0, 1, 0])
    assert is_isomorphic(M1, M2)
    M3 = Matroid.from_values([1, 1, 0, 0, 0, 0, 0])
    assert not is_isomorphic(M1, M3)


def test_canonical_form_is_iso_invariant():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(1, 4)
        M = sample_matroid(n, rng)
        C = canonical_form(M)
        assert is_isomorphic(M, C)
        phi = random_linear_injection(n, n, rng)
        assert canonical_form(apply_invertible(M, phi)) == C


@functools.lru_cache(maxsize=None)
def gl_point_maps(n: int) -> tuple:
    """For each invertible phi of F_2^n, the tuple (phi(1), ..., phi(2^n - 1))."""
    return tuple(
        tuple(phi.apply_bits(x) for x in range(1, 1 << n))
        for phi in LinearInjections(n, n)
    )


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << ((1 << n) - 1)) - 1))))
def test_canonical_form_matches_gl_minimum(case):
    n, table = case
    M = Matroid(n, table)
    vals = [M(p) for p in range(1, 1 << n)]
    best = min(tuple(vals[q - 1] for q in qs) for qs in gl_point_maps(n))
    C = canonical_form(M)
    assert tuple(C(p) for p in range(1, 1 << n)) == best


def test_canonical_form_cap():
    with pytest.raises(BudgetExceeded):
        canonical_form(Matroid.constant(6, 1))


def test_dimension_cap_before_allocation():
    big = TABLE_MAX_DIM + 1
    for make in (
        lambda: Matroid(big, 0),
        lambda: Matroid.constant(40, 1),
        lambda: Pattern(big, 0, 0),
        lambda: RealFunction(big, ()),
        lambda: sample_matroid(big, 0),
        lambda: bose_burton(0, 40),
        lambda: vanishing_pattern(0, 40),
        lambda: builtin_pattern("ones:40"),
        lambda: builtin_pattern("zeros:21"),
        lambda: builtin_pattern("BB:1:40"),
        lambda: load_table("dim=40\n0\n"),
        lambda: Matroid(-1, 0),
    ):
        with pytest.raises(ValueError, match="dimension must be in"):
            make()
    assert Matroid.constant(TABLE_MAX_DIM, 0).dim == TABLE_MAX_DIM


# --- densities on real functions -----------------------------------------------------

def test_density_rejects_oversized_pattern():
    with pytest.raises(ValueError):
        density(builtin_pattern("ones:3"), Matroid.constant(2, 1))


def test_density_in_function_exact():
    I1 = builtin_pattern("I1")
    f = RealFunction(2, (Fraction(1, 2), Fraction(1, 4), 1))
    t = density_in_function(I1, f)
    assert t == Fraction(Fraction(1, 2) + Fraction(1, 4) + 1, 3)


def test_density_in_function_matches_matroid_density():
    N = builtin_pattern("ones:2")
    M = Matroid.from_values([1, 1, 1, 0, 1, 1, 0])
    t_exact = density(N, M)
    via_f = density_in_function(N, RealFunction.from_matroid(M))
    assert via_f == t_exact


def test_density_monte_carlo_deterministic():
    N = builtin_pattern("ones:2")
    f = RealFunction.from_matroid(Matroid.from_values([1, 1, 1, 0, 1, 1, 0]))
    a = density_in_function(N, f, samples=500, seed=11)
    b = density_in_function(N, f, samples=500, seed=11)
    assert a == b
    exact = float(density_in_function(N, f))
    assert abs(a - exact) < 0.15
    with pytest.raises(ValueError):
        density_in_function(N, f, samples=0)


# --- affine patterns and evaluations ---------------------------------------------------

def test_bose_burton_shape():
    B = bose_burton(1, 2)
    assert B.stars == 0b001 and B.ones == 0b110
    B2 = bose_burton(2, 3)
    assert B2.stars == 0b0000001
    assert B2.ones == 0b1111110
    full = bose_burton(3, 3)
    assert full.stars == 0 and full.ones == (1 << 7) - 1


def test_is_k_affine():
    for k, d in [(1, 2), (2, 3), (1, 3), (3, 3)]:
        assert is_k_affine(bose_burton(k, d), k)
    assert not is_k_affine(bose_burton(1, 2), 2)
    scattered = Pattern.from_values([STAR, 1, STAR])  # stars not a flat
    assert not is_k_affine(scattered, 1)


def _is_k_affine_by_rank(A: Pattern, k: int) -> bool:
    pts = [p for p in range(1, A.n_points + 1) if (A.stars >> (p - 1)) & 1]
    r = rank(pts)
    return len(pts) == (1 << r) - 1 and A.dim - r == k


def test_is_k_affine_matches_rank_rule():
    # every star set of dim <= 3 (the other cells 1), k one beyond each end
    for dim in range(4):
        full = (1 << ((1 << dim) - 1)) - 1
        for stars in range(full + 1):
            A = Pattern(dim, full ^ stars, 0)
            for k in range(-1, dim + 2):
                assert is_k_affine(A, k) == _is_k_affine_by_rank(A, k), (dim, stars, k)


def test_evaluations_fill_stars():
    B = bose_burton(1, 2)
    evs = list(evaluations(B))
    assert len(evs) == 2
    tables = {E.table for E in evs}
    assert tables == {0b110, 0b111}


def test_evaluations_refuses_before_listing_stars():
    # counting the stars first refuses an all-star dim-20 pattern before its
    # 2^20 - 1 star cells are listed
    B = Pattern.constant(20, STAR)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="1048575 star cells exceed the evaluation cap"):
        next(evaluations(B))
    assert time.perf_counter() - start < 1


def test_is_k_affine_all_star_dim18():
    # the star cells are listed in time linear in the mask width; the old
    # lowest-bit walk was quadratic (4.6 s to list them at dim 18)
    start = time.perf_counter()
    assert is_k_affine(Pattern.constant(18, STAR), 0)
    assert time.perf_counter() - start < 3


def _seeded_tables(n: int) -> list[Matroid]:
    """Seeded dim-n tables (n >= 5) of ones density 1/4, 1/2 and 1/8 and
    their complements, the constants, the points off a hyperplane, and
    tables of weight 1, 2 and 3 (the full line {1, 2, 3} among them) and
    their complements: critical numbers 0 to n at n = 5 and 6."""
    rng = random.Random(20251)
    full = (1 << ((1 << n) - 1)) - 1
    tables = [full - ((1 << ((1 << (n - 1)) - 1)) - 1)]  # ones off the hyperplane x_(n-1) = 0
    for t in (1 << 7, (1 << 4) | (1 << 20), (1 << 2) | (1 << 9) | (1 << 30), 0b111):
        tables += [t, t ^ full]
    for rounds in (2, 1, 3):  # AND of `rounds` random words
        for _ in range(5):
            t = full
            for _ in range(rounds):
                t &= rng.getrandbits(full.bit_length())
            tables += [t, t ^ full]
    return [Matroid(n, t) for t in tables] + [Matroid.constant(n, 0), Matroid.constant(n, 1)]


def test_vanishing_pattern_matches_critical():
    for M in ALL_DIM3 + _seeded_tables(5):
        crit = critical_number(M)
        for k in range(0, M.dim + 1):
            has = find_instance(vanishing_pattern(k, M.dim), M.to_pattern()) is not None
            assert has == (crit <= k)


# --- critical numbers --------------------------------------------------------------

def test_critical_number_constants():
    assert critical_number(Matroid.constant(3, 0)) == 0
    assert critical_number(Matroid.constant(3, 1)) == 3
    assert critical_number(Matroid.constant(1, 1)) == 1


def test_critical_number_hyperplane():
    from binmat.gf2 import enumerate_subspaces

    M = Matroid.from_values([0, 0, 0, 1, 1, 1, 1])
    assert critical_number(M) == 1
    M2 = Matroid.from_values([1, 0, 0, 0, 1, 1, 1])
    zeros_flat_dims = [
        S.dim
        for dd in range(4)
        for S in enumerate_subspaces(3, dd)
        if S.point_mask & M2.table == 0
    ]
    assert critical_number(M2) == 3 - max(zeros_flat_dims)


def test_critical_number_brute_force():
    # every table of dim <= 4, then the seeded dim-5 and dim-6 tables, against
    # the largest subspace missing the ones, found by listing every subspace
    for n in range(7):
        flats = [list(subspace_point_masks(n, d)) for d in range(n + 1)]
        tables = (
            [Matroid(n, t) for t in range(1 << ((1 << n) - 1))] if n <= 4 else _seeded_tables(n)
        )
        for M in tables:
            best = max(d for d, masks in enumerate(flats) if any(not m & M.table for m in masks))
            assert critical_number(M) == n - best, M


def test_critical_number_weight1_dim14():
    # the leading-bit filter reaches a hyperplane without backtracking; the
    # flat DFS with a dedupe set that it replaced took 9.3 s on a 2-core box
    start = time.perf_counter()
    assert critical_number(Matroid(14, 1)) == 1
    assert time.perf_counter() - start < 2


def test_critical_number_line_dim8_to_12():
    # the ones hold a full line, so no flat of the point-count cap exists;
    # before flats were bounded by how far they can still grow, the search
    # walked every smaller all-zero flat: about 26 s at n = 8 on a 2-core box
    start = time.perf_counter()
    for n in range(8, 13):
        assert critical_number(Matroid(n, 0b111)) == 2
    assert time.perf_counter() - start < 2


def test_critical_number_constant_dim18():
    # 2^18 - 1 zero points, one image admitted per level: testing a bit of a
    # point mask by shifting it copied the mask, so this took 2.5-2.75 s on
    # a 2-core box
    start = time.perf_counter()
    assert critical_number(Matroid.constant(18, 0)) == 0
    assert critical_number(Matroid.constant(18, 1)) == 18
    assert time.perf_counter() - start < 1


# --- extensions -------------------------------------------------------------------

def dim_k_extensions(M, k):
    """Every dim+k table that agrees with M on its first 2^dim - 1 points."""
    shift = M.n_points
    width = (1 << (M.dim + k)) - 1 - shift
    return [Matroid(M.dim + k, M.table | (bits << shift)) for bits in range(1 << width)]


def test_ext_membership():
    M = Matroid.from_values([1])
    for E in dim_k_extensions(M, 1):
        assert ext_membership(E, M, 1)
    assert not ext_membership(Matroid.constant(2, 0), M, 1)
    assert not ext_membership(Matroid.constant(3, 1), M, 1)  # wrong dimension


def test_ext_membership_uses_isomorphism():
    # extension restricted along a non-coordinate subspace still counts
    M = Matroid.from_values([1, 0, 0])
    E = dim_k_extensions(M, 1)[0]
    phi = random_linear_injection(3, 3, random.Random(2))
    E2 = apply_invertible(E, phi)
    assert ext_membership(E2, M, 1)


def subspace_sweep_ext_membership(Mp: Matroid, M: Matroid, k: int) -> bool:
    """ext_membership as first written: restrict Mp to each dim-M subspace
    and test the restriction for isomorphism with M."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not M.dim <= Mp.dim <= M.dim + k:
        return False
    for W in enumerate_subspaces(Mp.dim, M.dim):
        sub = restrict(Mp, W)
        if sub.weight == M.weight and is_isomorphic(sub, M):
            return True
    return False


@st.composite
def ext_membership_cases(draw):
    """(Mp, M, k) with Mp of dim <= 4; M is random, or Mp pulled back along
    a random injection (planted), or that with one cell flipped."""
    n = draw(st.integers(0, 4))
    d = draw(st.integers(0, n))
    Mp = Matroid(n, draw(st.integers(0, (1 << ((1 << n) - 1)) - 1)))
    mode = draw(st.sampled_from(["random", "planted", "flipped"]))
    if mode == "random":
        M = Matroid(d, draw(st.integers(0, (1 << ((1 << d) - 1)) - 1)))
    else:
        phi = random_linear_injection(d, n, random.Random(draw(st.integers(0, 2**32))))
        M = Matroid.from_values([Mp(phi.apply_bits(x)) for x in range(1, 1 << d)])
        if mode == "flipped" and d:
            M = Matroid(d, M.table ^ 1 << draw(st.integers(0, M.n_points - 1)))
    return Mp, M, draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(case=ext_membership_cases())
def test_ext_membership_matches_subspace_sweep(case):
    assert ext_membership(*case) == subspace_sweep_ext_membership(*case)


# --- samplers ----------------------------------------------------------------------

def test_sample_matroid_deterministic():
    assert sample_matroid(4, 123) == sample_matroid(4, 123)
    assert sample_matroid(4, 123) != sample_matroid(4, 124)


def test_sample_matroid_weight_distribution():
    rng = random.Random(0)
    mean = sum(sample_matroid(3, rng).weight for _ in range(400)) / 400
    assert 3.0 < mean < 4.0


def test_sample_extension_extends():
    M = Matroid.from_values([1, 1, 0])
    for seed in range(5):
        E = sample_extension(M, 1, seed)
        assert E.dim == 3
        assert ext_membership(E, M, 1)
        R = restrict(E, Subspace.from_vectors(3, [1, 2]))
        assert R == M
