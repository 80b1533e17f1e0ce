import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binmat.errors import BudgetExceeded
from binmat.gf2 import LinearInjections, Subspace, random_linear_injection
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
    extensions,
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


def test_evaluations_fill_stars():
    B = bose_burton(1, 2)
    evs = list(evaluations(B))
    assert len(evs) == 2
    tables = {E.table for E in evs}
    assert tables == {0b110, 0b111}


def test_vanishing_pattern_matches_critical():
    for M in ALL_DIM3:
        crit = critical_number(M)
        for k in range(0, 4):
            has = find_instance(vanishing_pattern(k, 3), M.to_pattern()) is not None
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


def test_critical_number_brute_force_dim4():
    rng = random.Random(9)
    from binmat.gf2 import enumerate_subspaces

    flats = {d: [S.point_mask for S in enumerate_subspaces(4, d)] for d in range(5)}
    for _ in range(25):
        M = sample_matroid(4, rng)
        best = max(
            d
            for d, masks in flats.items()
            if any(mask & M.table == 0 for mask in masks)
        )
        assert critical_number(M) == 4 - best


# --- extensions -------------------------------------------------------------------

def test_extensions_counts():
    M = Matroid.from_values([1])
    exts1 = list(extensions(M, 1))
    assert len(exts1) == 4
    assert all(E.dim == 2 and E(1) == 1 for E in exts1)
    M2 = Matroid.from_values([1, 0, 1])
    assert len(list(extensions(M2, 1))) == 16


def test_extensions_cap():
    with pytest.raises(BudgetExceeded):
        list(extensions(Matroid.constant(1, 1), 4))
    with pytest.raises(BudgetExceeded):  # a budget refusal, not the table dimension cap
        list(extensions(Matroid.constant(1, 1), 25))


def test_ext_membership():
    M = Matroid.from_values([1])
    for E in extensions(M, 1):
        assert ext_membership(E, M, 1)
    assert not ext_membership(Matroid.constant(2, 0), M, 1)
    assert not ext_membership(Matroid.constant(3, 1), M, 1)  # wrong dimension


def test_ext_membership_uses_isomorphism():
    # extension restricted along a non-coordinate subspace still counts
    M = Matroid.from_values([1, 0, 0])
    E = next(iter(extensions(M, 1)))
    phi = random_linear_injection(3, 3, random.Random(2))
    E2 = apply_invertible(E, phi)
    assert ext_membership(E2, M, 1)


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
