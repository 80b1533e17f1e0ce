import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import binmat.fourier as fourier
from binmat.errors import BudgetExceeded
from binmat.fourier import (
    NonclassicalPolynomial,
    PolynomialFactor,
    TorusValue,
    best_factor_search,
    binary_entropy,
    conditional_expectation,
    count_factors,
    count_structured,
    derivative,
    enumerate_normal_form_polynomials,
    enumerate_structured,
    eval_polynomial,
    factor_partition,
    function_entropy,
    gowers_norm,
    is_structured,
    polynomial_from_text,
    polynomial_to_text,
    verify_degree,
    _candidate_tables,
    _distinct_partitions,
    _factor_candidates,
    _gowers_power,
    _row_keys,
    _same_part_words,
    _term_count,
    _term_universe,
    _torus_int_table,
    _partition_signatures,
)
from binmat.gf2 import GF2Vector
from binmat.matroid import Matroid, RealFunction

torus_values = st.builds(
    TorusValue,
    st.integers(min_value=-64, max_value=64),
    st.integers(min_value=0, max_value=6),
)


# --- torus arithmetic ---------------------------------------------------------

def test_torus_normalization():
    assert TorusValue(4, 3) == TorusValue(1, 1)
    assert TorusValue(8, 3) == TorusValue(0, 0)
    assert TorusValue(-1, 2) == TorusValue(3, 2)
    assert str(TorusValue(3, 3)) == "3/8"
    assert str(TorusValue(0, 5)) == "0/1"


def test_torus_from_fraction():
    assert TorusValue.from_fraction(Fraction(3, 8)) == TorusValue(3, 3)
    assert TorusValue.from_fraction(Fraction(5, 4)) == TorusValue(1, 2)
    assert TorusValue.from_fraction(2) == TorusValue(0, 0)
    with pytest.raises(ValueError):
        TorusValue.from_fraction(Fraction(1, 3))


@given(torus_values, torus_values, torus_values)
def test_torus_group_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + TorusValue(0, 0) == a
    assert (a - a).is_zero
    assert (a + b) - b == a


@given(torus_values)
def test_torus_fraction_roundtrip(a):
    assert TorusValue.from_fraction(a.as_fraction) == a
    assert 0 <= a.as_fraction < 1


# --- polynomials ----------------------------------------------------------------

def test_eval_example():
    # (|x1| |x2|) / 2 + |x3| / 4 at (1,1,1) is 3/4
    P = NonclassicalPolynomial.build(3, 2, 0, [(0b011, 1), (0b100, 2)])
    assert eval_polynomial(P, 0b111).as_fraction == Fraction(3, 4)
    assert eval_polynomial(P, 0b011).as_fraction == Fraction(1, 2)
    assert eval_polynomial(P, 0).is_zero
    # a larger degree container evaluates identically
    P3 = NonclassicalPolynomial.build(3, 3, 0, [(0b011, 1), (0b100, 2)])
    assert [P.eval_bits(x) for x in range(8)] == [P3.eval_bits(x) for x in range(8)]


def test_eval_with_constant():
    P = NonclassicalPolynomial.build(2, 1, Fraction(1, 2), [(0b01, 1)])
    assert eval_polynomial(P, 0).as_fraction == Fraction(1, 2)
    assert eval_polynomial(P, GF2Vector(2, 1)).is_zero


def test_polynomial_validation():
    with pytest.raises(ValueError):
        NonclassicalPolynomial.build(2, 1, 0, [(0b11, 1)])  # |I|+j = 3 > d+1
    with pytest.raises(ValueError):
        NonclassicalPolynomial.build(2, 1, 0, [(0, 1)])  # empty support
    with pytest.raises(ValueError):
        NonclassicalPolynomial.build(2, 1, 0, [(0b01, 0)])  # depth 0
    with pytest.raises(ValueError):
        NonclassicalPolynomial.build(2, 1, Fraction(1, 4), [])  # alpha too deep
    with pytest.raises(ValueError):
        NonclassicalPolynomial.build(2, 2, 0, [(0b100, 1)])  # var out of range


def test_polynomial_text_roundtrip():
    P = NonclassicalPolynomial.build(3, 3, Fraction(3, 8), [(0b011, 1), (0b100, 2)])
    s = polynomial_to_text(P)
    assert polynomial_from_text(s) == P
    assert polynomial_from_text("2 1 0/1 ;") == NonclassicalPolynomial.build(2, 1)


def test_polynomial_text_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        polynomial_from_text("3 2 1/0 ;")


def test_polynomial_values_are_dyadic_with_bounded_denominator():
    for P in enumerate_normal_form_polynomials(2, 2):
        for x in range(4):
            assert eval_polynomial(P, x).log_den <= P.degree


# --- derivatives and degree -----------------------------------------------------

def test_derivative_of_constant_vanishes():
    f = [TorusValue(1, 2)] * 8
    assert all(v.is_zero for v in derivative(f, 0b101))


def test_derivative_matches_definition():
    P = NonclassicalPolynomial.build(2, 2, 0, [(0b11, 1)])
    f = P.table()
    y = 0b01
    df = derivative(f, y)
    for x in range(4):
        assert df[x] == f[x ^ y] - f[x]


@pytest.mark.parametrize(
    "n,d,terms",
    [
        (3, 1, [(0b001, 1)]),
        (3, 2, [(0b011, 1)]),
        (3, 2, [(0b001, 2)]),
        (3, 3, [(0b111, 1)]),
        (3, 3, [(0b001, 3)]),
        (4, 2, [(0b0011, 1), (0b0100, 2)]),
        (4, 3, [(0b0111, 1), (0b1000, 1)]),
    ],
)
def test_degree_boundary(n, d, terms):
    # a maximal term (|I| + j = d + 1) makes the polynomial degree exactly d
    P = NonclassicalPolynomial.build(n, d, 0, terms)
    assert verify_degree(P, d).passed
    assert not verify_degree(P, d - 1).passed


def test_degree_zero_constant():
    # every first derivative of a constant vanishes, so constants are degree 0
    f = [TorusValue(1, 1)] * 4
    assert verify_degree(f, 0).passed
    zero = [TorusValue(0, 0)] * 4
    assert verify_degree(zero, 0).passed
    linear = NonclassicalPolynomial.build(2, 1, 0, [(0b01, 1)])
    assert not verify_degree(linear, 0).passed


def _degree_oracle(values, d: int) -> bool:
    """The definition: every (d+1)-fold derivative vanishes, with the
    derivative tables of each order deduplicated."""
    tbl, ld = _torus_int_table(values)
    mod, size = 1 << ld, len(tbl)
    level = {tbl}
    for _ in range(d + 1):
        level = {tuple((t[x ^ y] - t[x]) % mod for x in range(size))
                 for t in level for y in range(size)}
    return all(not any(t) for t in level)


def test_degree_matches_derivative_definition_exhaustive():
    # every table on F_2^n, n <= 2, with values in 2^-ld Z/Z, ld <= 2
    checked = 0
    for n, ld in itertools.product(range(3), range(3)):
        for nums in itertools.product(range(1 << ld), repeat=1 << n):
            f = [TorusValue(v, ld) for v in nums]
            for d in range(n + ld + 1):
                assert verify_degree(f, d).passed == _degree_oracle(f, d), (nums, ld, d)
                checked += 1
    assert checked == 1442


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_degree_matches_derivative_definition(data):
    n = data.draw(st.integers(0, 3))
    ld = data.draw(st.integers(0, 4))
    nums = data.draw(st.lists(st.integers(0, (1 << ld) - 1), min_size=1 << n, max_size=1 << n))
    d = data.draw(st.integers(0, 5))
    f = [TorusValue(v, ld) for v in nums]
    assert verify_degree(f, d).passed == _degree_oracle(f, d)


@pytest.mark.parametrize("n,d", [(3, 2), (4, 1)])
def test_normal_forms_have_distinct_tables(n, d):
    polys = enumerate_normal_form_polynomials(n, d)
    assert len({P.int_table() for P in polys}) == len(polys)


def test_degree_exact_at_n10():
    # a maximal term |x1 x2 x3| / 2 makes the degree exactly 3
    P = NonclassicalPolynomial.build(
        10, 3, Fraction(1, 8), [(0b111, 1), (0b11 << 4, 2), (1 << 9, 3), (0b1001 << 5, 1)]
    )
    start = time.perf_counter()
    assert verify_degree(P, 3).passed
    assert not verify_degree(P, 2).passed
    assert time.perf_counter() - start < 1


def test_degree_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_degree([TorusValue(0, 0)] * 3, 1)
    with pytest.raises(ValueError):
        verify_degree([TorusValue(0, 0)] * 4, -1)


@pytest.mark.parametrize("call", [
    lambda f: derivative(f, 0),
    lambda f: verify_degree(f, 1),
    lambda f: gowers_norm(f, 1),
    lambda f: best_factor_search(f, 1, 1),
], ids=["derivative", "verify_degree", "gowers_norm", "best_factor_search"])
@pytest.mark.parametrize("size", [0, 3, 6])
def test_table_length_must_be_a_power_of_two(call, size):
    # length 0 included: its bit length would give n = -1, a negative shift
    with pytest.raises(ValueError, match="table length must be a power of two"):
        call([Fraction(0)] * size)


# --- factors ----------------------------------------------------------------------

def test_factor_partition_single_linear():
    P = NonclassicalPolynomial.build(3, 1, 0, [(0b001, 1)])
    B = factor_partition([P])
    assert B.n_parts == 2
    parts = B.parts()
    assert sorted(map(len, parts)) == [4, 4]
    assert all((x & 1) == (parts.index(part)) for part in parts for x in part) or True
    # part of x determined by x1
    for part in parts:
        assert len({x & 1 for x in part}) == 1


def test_factor_partition_bound_and_empty():
    B = factor_partition([], n=3)
    assert B.n_parts == 1 and len(B.parts()[0]) == 8
    P1 = NonclassicalPolynomial.build(4, 2, 0, [(0b0011, 1)])
    P2 = NonclassicalPolynomial.build(4, 2, 0, [(0b0001, 2)])
    B2 = factor_partition([P1, P2])
    assert B2.n_parts <= 1 << (2 * 2)


def test_factor_partition_dimension_checks():
    Pa = NonclassicalPolynomial.build(2, 1, 0, [(0b01, 1)])
    Pb = NonclassicalPolynomial.build(3, 1, 0, [(0b001, 1)])
    with pytest.raises(ValueError):
        factor_partition([Pa, Pb])
    with pytest.raises(ValueError):
        factor_partition([])
    with pytest.raises(BudgetExceeded):
        factor_partition([], n=21)


def test_count_factors_tiny():
    rep = count_factors(1, 1, 1)
    assert rep.count == 2
    assert rep.bound == 1 and not rep.bound_holds
    rep0 = count_factors(3, 2, 0)
    assert rep0.count == 1 and rep0.bound_holds
    rep2 = count_factors(2, 1, 1)
    assert rep2.count == 4  # 0, x1, x2, x1+x2 induce distinct partitions
    assert rep2.bound == 2 and not rep2.bound_holds


def test_count_factors_monotone_in_complexity():
    a = count_factors(2, 1, 1).count
    b = count_factors(2, 1, 2).count
    assert a <= b


def test_enumerate_normal_form_polynomials_size():
    # term universe at n=2, d=2: (I,j) with |I|+j <= 3: 2*2 + 1*1 = 5
    polys = enumerate_normal_form_polynomials(2, 2)
    assert len(polys) == 32
    assert len({P.int_table()[0] for P in polys}) <= 32


# --- conditional expectation ---------------------------------------------------------

def test_conditional_expectation_exact_and_idempotent():
    g = [Fraction(i, 7) for i in range(8)]
    parts = [[0, 1, 2, 3], [4, 5, 6, 7]]
    ce = conditional_expectation(g, parts)
    assert ce[0] == Fraction(3, 14) and ce[4] == Fraction(11, 14)
    assert conditional_expectation(ce, parts) == ce
    assert sum(ce) == sum(g)


def test_conditional_expectation_hyperplane_indicator():
    # indicator of x1 = 0 conditioned on the factor of x1 gives {1, 0}
    g = [1 - (x & 1) for x in range(8)]
    P = NonclassicalPolynomial.build(3, 1, 0, [(0b001, 1)])
    ce = conditional_expectation(g, factor_partition([P]))
    assert set(ce) == {Fraction(1), Fraction(0)}
    assert all(ce[x] == g[x] for x in range(8))


def test_conditional_expectation_validates_partition():
    with pytest.raises(ValueError):
        conditional_expectation([1, 2, 3, 4], [[0, 1], [1, 2, 3]])


# --- Gowers norms ----------------------------------------------------------------------

def test_gowers_u1_is_abs_mean():
    rng = random.Random(5)
    f = [rng.uniform(-1, 1) for _ in range(16)]
    assert gowers_norm(f, 1) == pytest.approx(abs(sum(f) / 16), abs=1e-12)


def test_gowers_constant():
    for d in (1, 2, 3):
        assert gowers_norm([0.5] * 8, d) == pytest.approx(0.5, abs=1e-12)
        assert gowers_norm([-0.5] * 8, d) == pytest.approx(0.5, abs=1e-12)


def test_gowers_monotone_in_degree():
    rng = random.Random(11)
    f = [rng.uniform(-1, 1) for _ in range(8)]
    norms = [gowers_norm(f, d) for d in (1, 2, 3)]
    assert norms[0] <= norms[1] + 1e-10 <= norms[2] + 2e-10


def test_gowers_translation_invariant():
    rng = random.Random(2)
    f = [rng.uniform(-1, 1) for _ in range(8)]
    g = [f[x ^ 0b101] for x in range(8)]
    for d in (1, 2):
        assert gowers_norm(f, d) == pytest.approx(gowers_norm(g, d), abs=1e-10)


def test_gowers_character_is_uniform():
    # the parity character has U_1 zero but full U_2 norm
    f = [1.0 if (x & 1) == 0 else -1.0 for x in range(8)]
    assert gowers_norm(f, 1) == pytest.approx(0.0, abs=1e-12)
    assert gowers_norm(f, 2) == pytest.approx(1.0, abs=1e-12)


def test_gowers_monte_carlo():
    f = [1.0] * 16
    assert gowers_norm(f, 2, samples=100, seed=1) == pytest.approx(1.0)
    a = gowers_norm([0.3, -0.7, 0.2, 0.9], 2, samples=3000, seed=42)
    b = gowers_norm([0.3, -0.7, 0.2, 0.9], 2, samples=3000, seed=42)
    assert a == b
    with pytest.raises(ValueError):
        gowers_norm(f, 2, samples=0)


def test_gowers_budget_refusal():
    f = [0.0] * 256
    with pytest.raises(BudgetExceeded):
        gowers_norm(f, 3)


def test_gowers_row_op_budget_refusal():
    # 2^28 terms fit the term budget, but they take 2^26 numpy row operations
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="2\\^26 row operations"):
        gowers_norm([1.0, 0.5], 27)
    assert time.perf_counter() - t0 < 1.0
    assert gowers_norm([0.5] * 16, 5) == pytest.approx(0.5, abs=1e-12)  # 2^16 row operations
    with pytest.raises(BudgetExceeded, match="2\\^20 row operations"):
        gowers_norm([0.5] * 16, 6)  # 2^28 terms, 2^20 row operations


def test_gowers_rejects_bad_lengths():
    with pytest.raises(ValueError):
        gowers_norm([1.0, 2.0, 3.0], 1)
    with pytest.raises(ValueError):
        gowers_norm([1.0, 2.0], 0)


# --- entropy and structured counts ------------------------------------------------------

def test_binary_entropy_values():
    assert binary_entropy(0) == 0.0
    assert binary_entropy(1) == 0.0
    assert binary_entropy(Fraction(1, 2)) == 1.0
    assert binary_entropy(0.25) == pytest.approx(2 - 0.75 * math.log2(3))
    with pytest.raises(ValueError):
        binary_entropy(1.5)


def test_function_entropy():
    f = RealFunction(3, (Fraction(1, 2),) * 7)
    assert function_entropy(f) == 7.0
    g = RealFunction(2, (0, 1, Fraction(1, 2)))
    assert function_entropy(g) == 1.0


def test_count_structured_formula():
    f = RealFunction(2, (Fraction(1, 3),) * 3)
    assert count_structured(f) == math.comb(3, 1)
    g = RealFunction(2, (Fraction(1, 2),) * 3)
    assert count_structured(g) == 0  # 3/2 ones is impossible
    h = RealFunction(2, (1, 1, 0))
    assert count_structured(h) == 1


def test_enumerate_structured_matches_count_and_membership():
    f = RealFunction(3, (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), 1, 1, 0, 0))
    mats = enumerate_structured(f)
    assert len(mats) == count_structured(f) == 3
    for M in mats:
        assert is_structured(M, f)
        assert M(4) == 1 and M(5) == 1 and M(6) == 0 and M(7) == 0
    assert not is_structured(Matroid.constant(3, 1), f)
    assert not is_structured(Matroid.constant(2, 1), f)


def test_enumerate_structured_empty_on_non_integral():
    f = RealFunction(2, (Fraction(1, 2),) * 3)
    assert enumerate_structured(f) == []


def test_entropy_bound_on_structured_count():
    rng = random.Random(0)
    vals = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 0, 1]
    for _ in range(40):
        n = rng.randrange(1, 4)
        f = RealFunction(
            n, tuple(rng.choice(vals) for _ in range((1 << n) - 1))
        )
        count = count_structured(f)
        assert count <= 2 ** function_entropy(f) * (1 + 1e-9)


def test_float_levels_snap_with_warning():
    with pytest.warns(UserWarning):
        count_structured(RealFunction(2, (1 / 3, 1 / 3, 1 / 3)))


# --- decomposition probe ------------------------------------------------------------------

def test_best_factor_constant_function():
    g = [0.3] * 8
    factor, residual = best_factor_search(g, 1, 0)
    assert factor.n_parts == 1
    assert residual == pytest.approx(0.0, abs=1e-9)


def test_best_factor_recovers_level_function():
    g = [1.0 if (x & 1) == 0 else 0.0 for x in range(8)]
    factor, residual = best_factor_search(g, 1, 1)
    assert residual == pytest.approx(0.0, abs=1e-9)
    assert factor.n_parts == 2


def test_best_factor_residual_monotone_in_complexity():
    rng = random.Random(9)
    g = [rng.uniform(0, 1) for _ in range(16)]
    residuals = [best_factor_search(g, 1, C)[1] for C in (0, 1, 2)]
    assert residuals[0] >= residuals[1] >= residuals[2]


def test_best_factor_budget():
    with pytest.raises(BudgetExceeded):
        best_factor_search([0.0] * 256, 2, 1)


# --- batched kernels against the per-element loops they replaced -------------------------
#
# The oracles below are the loops that factor_partition, count_factors,
# best_factor_search and gowers_norm ran before their numpy kernels: a per-x
# ids.setdefault signature per combo over Fraction-keyed distinct tables, then
# per-partition conditional_expectation and the recursive exhaustive U_k norm.

def _oracle_gowers(f, d):
    arr = np.asarray(f, dtype=np.float64)
    size = arr.size
    idx = np.arange(size)

    def upow(a, dd):
        if dd == 1:
            m = float(a.mean())
            return m * m
        return sum(upow(a * a[idx ^ h], dd - 1) for h in range(size)) / size

    return max(upow(arr, d), 0.0) ** (1.0 / (1 << d))


def _oracle_signature(tables, size):
    ids = {}
    return tuple(ids.setdefault(tuple(t[x] for t in tables), len(ids)) for x in range(size))


def _oracle_partitions(n, d, C):
    """Distinct partitions, each mapped to the first combo of polynomials."""
    reps = {}
    for P in enumerate_normal_form_polynomials(n, d):
        reps.setdefault(tuple(Fraction(v, 1 << P.degree) for v in P.int_table()[0]), P)
    reps = list(reps.items())
    seen = {}
    for combo in itertools.combinations_with_replacement(range(len(reps)), C):
        sig = _oracle_signature([reps[i][0] for i in combo], 1 << n)
        seen.setdefault(sig, tuple(reps[i][1] for i in combo))
    return seen


def _oracle_best_factor(g, d, C):
    garr = [float(v) for v in g]
    n = len(g).bit_length() - 1
    best_polys, best_res = (), math.inf
    for sig, polys in _oracle_partitions(n, d, C).items():
        parts = [[] for _ in range(max(sig) + 1)]
        for x, pid in enumerate(sig):
            parts[pid].append(x)
        proj = conditional_expectation(garr, parts)
        resid = _oracle_gowers([a - b for a, b in zip(garr, proj)], d + 1)
        if resid < best_res:
            best_polys, best_res = polys, resid
    part_ids = _oracle_signature([P.int_table()[0] for P in best_polys], len(g))
    return part_ids, best_polys, best_res


# (n, d, C) within the probe budgets where the oracle stays quick
PROBE_SHAPES = [
    (0, 1, 2), (1, 1, 3), (1, 3, 2), (2, 0, 3), (2, 1, 0), (2, 1, 3), (2, 2, 2),
    (2, 3, 1), (3, 0, 1), (3, 1, 2), (3, 1, 3), (3, 2, 0), (3, 2, 1), (4, 1, 1),
    (4, 1, 2),
]
PROBE_VALUES = [
    st.integers(-8, 8).map(lambda k: Fraction(k, 8)),  # dyadic fractions
    st.sampled_from([0.0, 0.5, 1.0]),  # many ties between partitions
    st.floats(-1, 1),
]


@st.composite
def probe_inputs(draw):
    n, d, C = draw(st.sampled_from(PROBE_SHAPES))
    values = draw(st.sampled_from(PROBE_VALUES))
    return draw(st.lists(values, min_size=1 << n, max_size=1 << n)), d, C


@settings(max_examples=60, deadline=None)
@given(probe_inputs())
def test_best_factor_matches_oracle(args):
    g, d, C = args
    factor, residual = best_factor_search(g, d, C)
    part_ids, polys, oracle_res = _oracle_best_factor(g, d, C)
    assert factor.part_ids == part_ids
    assert [polynomial_to_text(P) for P in factor.polys] == [polynomial_to_text(P) for P in polys]
    assert residual.hex() == oracle_res.hex()
    n = len(g).bit_length() - 1
    assert count_factors(n, d, C).count == len(_oracle_partitions(n, d, C))


@given(st.lists(st.lists(st.integers(0, 5), min_size=8, max_size=8), min_size=1, max_size=6))
def test_partition_signatures_match_setdefault(rows):
    got = _partition_signatures(np.array(rows)).tolist()
    assert got == [list(_oracle_signature([row], 8)) for row in rows]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, 3), st.sets(st.integers(0, 30))), max_size=3),
)))
def test_factor_partition_matches_setdefault(args):
    n, specs = args
    polys = []
    for d, picks in specs:
        universe = [(I, j) for I in range(1, 1 << n) for j in range(1, d + 2 - I.bit_count())]
        polys.append(NonclassicalPolynomial.build(
            n, d, Fraction(len(picks) % (1 << d), 1 << d),
            [universe[i % len(universe)] for i in picks] if universe else []))
    B = factor_partition(polys, n=n)
    assert B.part_ids == _oracle_signature([P.int_table()[0] for P in polys], 1 << n)
    assert B.n_parts == max(B.part_ids) + 1


def test_factor_partition_beyond_int64_values():
    # degree 70: values up to 2^69 units of 2^-70 overflow int64
    P = NonclassicalPolynomial.build(3, 70, 0, [(0b001, 70), (0b010, 1), (0b100, 2)])
    B = factor_partition([P])
    assert B.part_ids == _oracle_signature([P.int_table()[0]], 8)
    assert B.n_parts == 8


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gowers_power_batched_matches_recursion(d):
    rng = random.Random(d)
    for size in (1, 2, 8, 16) + ((256,) if d < 3 else ()):  # 256: pairwise summation
        rows = [[rng.uniform(-1, 1) for _ in range(size)] for _ in range(5)]
        rows += [[0.5] * size, [float(x & 1) for x in range(size)]]
        batched = _gowers_power(np.array(rows), d).tolist()
        for f, v in zip(rows, batched):
            oracle = _oracle_gowers(f, d)
            assert (max(v, 0.0) ** (1.0 / (1 << d))).hex() == oracle.hex()
            assert gowers_norm(f, d).hex() == oracle.hex()


def test_count_factors_frozen():
    assert count_factors(3, 2, 2).count == 1304
    assert count_factors(3, 2, 1).count == 267
    assert count_factors(4, 1, 2).count == 51
    assert count_factors(3, 1, 2).count == 15
    assert count_factors(3, 3, 1).count == 3636
    assert count_factors(4, 2, 1).count == 8619
    # measured with the per-prefix sweep (_oracle_distinct_partitions below)
    assert count_factors(4, 1, 3).count == 66
    assert count_factors(3, 1, 3).count == 16
    assert count_factors(2, 2, 3).count == 15
    assert count_factors(5, 1, 2).count == 187
    assert count_factors(5, 1, 3).count == 342
    assert count_factors(5, 1, 4).count == 373
    assert count_factors(5, 1, 5).count == 374


def _oracle_distinct_partitions(sigs, C):
    """The per-prefix sweep that _distinct_partitions replaced: one
    _partition_signatures block per (C-1)-prefix in combinations with
    replacement order, vectorized over the last index, each new label row
    mapped to its first multiset."""
    R, size = sigs.shape
    if C == 0:
        return np.zeros((1, size), dtype=np.int64), np.zeros((1, 0), dtype=np.int64)
    seen = {}
    for prefix in itertools.combinations_with_replacement(range(R), C - 1):
        first = prefix[-1] if prefix else 0
        labels = sigs[first:first + 1] if prefix else 0
        for i in set(prefix) - {first}:  # repeats do not refine the partition
            labels = _partition_signatures(labels * size + sigs[i:i + 1])
        block = _partition_signatures(labels * size + sigs[first:])
        for j, key in enumerate(_row_keys(block).tolist(), first):
            if key not in seen:
                seen[key] = prefix + (j,)
    labels = np.frombuffer(b"".join(seen), dtype=np.int64).reshape(-1, size)
    return labels, np.array(list(seen.values()), dtype=np.int64).reshape(len(seen), C)


@st.composite
def distinct_label_rows(draw):
    """Distinct first-seen label rows over few values, so that refinements
    of different multisets often coincide.  A head of size // 2 points in a
    part of their own makes every row agree on the first word at sizes 16
    and 32, so that rows differ only in later words."""
    size = draw(st.sampled_from([1, 2, 4, 8, 16, 32]))
    head = draw(st.sampled_from([0, size // 2]))
    values = st.integers(1 if head else 0, draw(st.sampled_from([1, 3, 7])))
    tails = st.lists(values, min_size=size - head, max_size=size - head)
    rows = [[0] * head + tail for tail in draw(st.lists(tails, min_size=1, max_size=6))]
    sigs = list(dict.fromkeys(_oracle_signature([row], size) for row in rows))
    return np.array(sigs, dtype=np.int64).reshape(len(sigs), size)


@settings(max_examples=150, deadline=None)
@given(distinct_label_rows(), st.integers(0, 4), st.sampled_from([1, 7, 1 << 16]))
def test_distinct_partitions_match_prefix_sweep(sigs, C, batch):
    # small batches split every level into many blocks, so the partitions
    # seen in earlier blocks carry over
    saved = fourier.GOWERS_BATCH_CELLS
    fourier.GOWERS_BATCH_CELLS = batch
    try:
        labels, owners = _distinct_partitions(sigs, C)
    finally:
        fourier.GOWERS_BATCH_CELLS = saved
    oracle_labels, oracle_owners = _oracle_distinct_partitions(sigs, C)
    assert labels.tolist() == oracle_labels.tolist()
    assert owners.tolist() == oracle_owners.tolist()


@pytest.mark.parametrize("n,d,C", [(1, 1, 6), (2, 1, 8), (3, 1, 6)])
def test_distinct_partitions_stop_at_saturation(n, d, C):
    # the partitions stop growing before level C, so the sweep stops early
    # and pads the owners with form 0
    sigs = _factor_candidates(n, d, C)[1]
    labels, owners = _distinct_partitions(sigs, C)
    oracle_labels, oracle_owners = _oracle_distinct_partitions(sigs, C)
    assert labels.tolist() == oracle_labels.tolist()
    assert owners.tolist() == oracle_owners.tolist()


@pytest.mark.parametrize("size,n_words", [(1, 1), (2, 1), (8, 1), (16, 2), (32, 8)])
def test_same_part_words_and_is_refinement(size, n_words):
    rng = random.Random(size)
    x, y = np.triu_indices(size, 1)
    for _ in range(20):
        k = rng.choice((2, 3, size))
        a, b = (np.array([[rng.randrange(k) for _ in range(size)]]) for _ in range(2))
        wa, wb = _same_part_words(a), _same_part_words(b)
        assert wa.shape == (1, n_words) and wa.dtype == np.uint64
        bits = np.unpackbits(wa.view(np.uint8), bitorder="little")
        assert bits[:len(x)].tolist() == (a[0, x] == a[0, y]).tolist()
        assert not bits[len(x):].any()
        assert (wa & wb).tolist() == _same_part_words(_partition_signatures(a * size + b)).tolist()


@pytest.mark.parametrize("n,d", sorted({(n, d) for n, d, _ in PROBE_SHAPES} | {(3, 2), (3, 3)}))
def test_candidate_tables_match_int_table(n, d):
    tables = _candidate_tables(n, d)
    assert tables.tolist() == [list(P.int_table()[0]) for P in enumerate_normal_form_polynomials(n, d)]


# (seed, n, d, C, levels) -> sha256 of (part_ids, polynomial texts, residual.hex()) of
# best_factor_search on seeded values k / (levels - 1); few levels make the winning
# factor depend on the input
FROZEN_PROBES = [
    (0, 3, 2, 2, 3, "9bfcea8cce4d3711308d9835104ee38dd670c612b08bd8c7340ff9fafe72235c"),
    (1, 3, 2, 2, 3, "24c3156fd1f0ea4bdaaa03edb034e43a56d8a36599d88d531bdc4976731eaa35"),
    (2, 3, 2, 2, 3, "ecd7bd9af29cba0e2b7b38a0120ec614682c158451edbd75bef518d5dda265ad"),
    (3, 3, 2, 2, 3, "3b32598006b5b82bfd1837480ebea88da71a84b30da13f2199bcc8a72525186b"),
    (4, 3, 2, 2, 3, "113c2e286ac70995c87614f8bb5406c355b6c2890f5843c20cbfa8d41e733890"),
    (5, 3, 2, 2, 3, "56adb07cd21233602154eeccce534df5b4dbba2c1ee90059a0644182809cc9bb"),
    (0, 4, 2, 1, 17, "f457082127190bec4237ebe1ffc75c4671de885760d3a4c76ea21b5a69f8a247"),
    (1, 4, 2, 1, 17, "11c7b848db38e98afbfb79d8faff25f7834547878d317c4851cd79837095605c"),
]


@pytest.mark.parametrize("seed,n,d,C,levels,digest", FROZEN_PROBES)
def test_best_factor_frozen(seed, n, d, C, levels, digest):
    rng = random.Random(seed)
    g = [Fraction(rng.randrange(levels), levels - 1) for _ in range(1 << n)]
    factor, residual = best_factor_search(g, d, C)
    blob = repr((factor.part_ids, [polynomial_to_text(P) for P in factor.polys], residual.hex()))
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


@pytest.mark.parametrize("n,d", [(0, 3), (1, 0), (2, 2), (2, 6), (3, 3), (4, 1), (5, 2)])
def test_term_count_matches_universe(n, d):
    assert _term_count(n, d) == len(_term_universe(n, d))


def test_term_count_cap_boundary():
    assert _term_count(20, 1) == 20  # 2^20 forms: exactly the cap
    with pytest.raises(BudgetExceeded, match="2\\^21 candidate polynomials"):
        _term_count(21, 1)


def test_normal_form_refusal_lists_no_terms(monkeypatch):
    def fail(*args):
        raise AssertionError("term universe built before the refusal")

    monkeypatch.setattr(fourier, "_term_universe", fail)
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="2\\^22 candidate polynomials"):
        enumerate_normal_form_polynomials(22, 1)
    with pytest.raises(BudgetExceeded, match="candidate polynomials"):
        enumerate_normal_form_polynomials(30, 1)
    assert time.perf_counter() - t0 < 1.0


def test_factor_refusals_build_no_tables(monkeypatch):
    def fail(*args):
        raise AssertionError("candidates built before the refusal")

    # 2^20 forms pass the form and multiset caps; their 2^20 x (20 + 2^20) cells do not
    monkeypatch.setattr(fourier, "_candidate_tables", fail)
    with pytest.raises(BudgetExceeded, match="candidate table cells"):
        count_factors(20, 1, 1)
    # the 1024 forms of degree 1 at n = 10 would fit; the residual U_2 norms do not
    monkeypatch.setattr(fourier, "_factor_candidates", fail)
    with pytest.raises(BudgetExceeded, match="residual Gowers"):
        best_factor_search([0.0] * 1024, 1, 1)
