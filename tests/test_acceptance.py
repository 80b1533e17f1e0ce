"""End-to-end acceptance checks, one numbered verdict line per run.

Each test prints exactly one `ACCEPTANCE <k>: PASS/FAIL ...` line (bypassing
capture, so the verdicts are visible in any pytest run) and then asserts.
Counting checks are exact with zero tolerance; float tolerances are stated
inline where they apply.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from binmat.cli import main as cli_main
from binmat.fourier import (
    NonclassicalPolynomial,
    best_factor_search,
    conditional_expectation,
    count_structured,
    enumerate_normal_form_polynomials,
    enumerate_structured,
    function_entropy,
    gowers_norm,
    verify_degree,
)
from binmat.gf2 import (
    LinearInjections,
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    rooted_subspace_packing,
)
from binmat.hereditary import (
    census,
    count_critical_at_most,
    count_free_extensions,
    forb,
    property_critical_number,
    ramsey_dimension,
    typical_structure_fraction,
    verify_ramsey_result,
)
from binmat.matroid import (
    Matroid,
    Pattern,
    RealFunction,
    builtin_pattern,
    find_instance,
    restrict,
)


def _verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}", flush=True)


def test_01_subspace_counts(capsys):
    t0 = time.perf_counter()
    bad = []
    for n in range(9):
        for d in range(n + 1):
            seen = {S.basis for S in enumerate_subspaces(n, d)}
            if len(seen) != gaussian_binomial(n, d):
                bad.append((n, d))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60
    _verdict(capsys, 1, ok,
             f"subspace counts equal the Gaussian binomial for 0<=d<=n<=8 "
             f"({elapsed:.1f}s, limit 60s)")
    assert ok, f"mismatched pairs: {bad}, elapsed {elapsed:.1f}s"


def test_02_injection_counts(capsys):
    t0 = time.perf_counter()
    rng = random.Random(0)
    bad = []
    for n in range(7):
        for d in range(n + 1):
            seq = LinearInjections(d, n)
            expect = math.prod((1 << n) - (1 << i) for i in range(d))
            if len(seq) != expect:
                bad.append((d, n))
                continue
            if expect <= 300000:
                # exhaustive generation, distinctness included
                if len({tuple(phi.images) for phi in seq}) != expect:
                    bad.append((d, n))
            else:
                # too many to materialize; cross-check random index decoding
                for _ in range(50):
                    i = rng.randrange(expect)
                    if seq.index(seq[i]) != i:
                        bad.append((d, n))
                        break
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60
    _verdict(capsys, 2, ok,
             f"injection counts equal prod(2^n - 2^i) for d<=n<=6 "
             f"({elapsed:.1f}s, limit 60s)")
    assert ok, f"mismatched pairs: {bad}, elapsed {elapsed:.1f}s"


def test_03_entropy_sandwich(capsys):
    t0 = time.perf_counter()
    bad = []
    for k in (1, 2):
        for n in range(k, 6):
            count = count_critical_at_most(n, k)
            floor_log2 = (1 << n) - (1 << (n - k))
            if not (1 << floor_log2) <= count <= (1 << (floor_log2 + k * n)):
                bad.append((n, k, count))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 600
    _verdict(capsys, 3, ok,
             f"exact census of low-critical-number matroids sits in the "
             f"entropy sandwich for k in {{1,2}}, n<=5 ({elapsed:.1f}s, "
             f"limit 600s)")
    assert ok, f"violations: {bad}, elapsed {elapsed:.1f}s"


def test_04_property_critical_numbers(capsys):
    t0 = time.perf_counter()
    got = (
        property_critical_number(forb(builtin_pattern("O2"))),
        property_critical_number(forb(builtin_pattern("ones:3"))),
        property_critical_number(forb(builtin_pattern("I1"))),
    )
    elapsed = time.perf_counter() - t0
    ok = got == (1, 2, 0) and elapsed < 300
    _verdict(capsys, 4, ok,
             f"critical numbers: no-two-flats {got[0]}, no-full-plane "
             f"{got[1]}, no-point {got[2]} ({elapsed:.1f}s, limit 300s)")
    assert ok, f"expected (1, 2, 0), got {got}, elapsed {elapsed:.1f}s"


# |Forb(ones:3)| at n=5; _count_without_full_plane(5) derives it without binmat.
FORB_ONES3_COUNT_5 = 1160510576


def _subspaces(m: int, d: int) -> list:
    """All d-dim subspaces of F_2^m, each as the frozenset of its points,
    built as spans of d-element vector sets."""
    found = set()
    for vectors in itertools.combinations(range(1, 1 << m), d):
        span = {0}
        for v in vectors:
            span |= {p ^ v for p in span}
        if len(span) == 1 << d:
            found.add(frozenset(span))
    return list(found)


def _count_without_full_plane(n: int) -> int:
    """Number of 0/1 tables on the nonzero points of F_2^n with no all-ones
    3-dim subspace, counted with no binmat code.

    Split F_2^n into the hyperplane H = {x < 2^(n-1)} and its coset C. A
    3-dim subspace either lies in H, or meets H in a 2-dim W and C in one of
    the 2^(n-3) cosets of W inside C. So for each table `a` on H with no full
    plane, the admissible tables `b` on C are those containing no C-coset of
    any W that is full under `a`; the count of those depends only on the set
    of full W, so the tables `a` are grouped by that set.
    """
    m = n - 1
    half = 1 << m
    lines, planes = _subspaces(m, 2), _subspaces(m, 3)

    def h_mask(S):
        return sum(1 << (p - 1) for p in S if p)

    a = np.arange(1 << (half - 1), dtype=np.int64)
    plane_free = np.ones(a.shape, dtype=bool)
    for S in planes:
        mask = h_mask(S)
        plane_free &= (a & mask) != mask
    full_lines = np.zeros(a.shape, dtype=np.int64)
    for i, W in enumerate(lines):
        mask = h_mask(W)
        full_lines |= ((a & mask) == mask).astype(np.int64) << i
    keys, mult = np.unique(full_lines[plane_free], return_counts=True)

    # blocked[i], bit-packed over all b: b contains some C-coset of lines[i]
    b = np.arange(1 << half, dtype=np.int64)
    blocked = []
    for W in lines:
        hit = np.zeros(b.shape, dtype=bool)
        for quad in {sum(1 << (v ^ w) for w in W) for v in range(half)}:
            hit |= (b & quad) == quad
        blocked.append(np.packbits(hit))
    blocked = np.array(blocked)

    total = 0
    for key, k in zip(keys.tolist(), mult.tolist()):
        idx = [i for i in range(len(lines)) if key >> i & 1]
        union = np.bitwise_or.reduce(blocked[idx], axis=0)
        total += k * ((1 << half) - int(np.bitwise_count(union).sum()))
    return total


def test_05_typical_structure_trend(capsys):
    # ABBM-type typical structure is asymptotic, so no finite-n trend or
    # threshold is asserted; the small-n fractions are checked exactly and
    # certified. M(2, 0) lies in Forb(ones:3) (critical number 2), so the
    # structured members are exactly the matroids of critical number <= 2.
    t0 = time.perf_counter()
    P = forb(builtin_pattern("ones:3"))
    dims = (4, 5)
    frac = {n: typical_structure_fraction(P, n, 2) for n in dims}
    hold = {n: count_critical_at_most(n, 2) for n in dims}
    total = {n: census(P, n).count for n in dims}
    oracle = {n: _count_without_full_plane(n) for n in dims}
    chi = property_critical_number(P)
    elapsed = time.perf_counter() - t0
    f4, f5 = frac[4], frac[5]
    certs = {
        "exact fractions": (f4 == Fraction(29719, 29887)
                            and f5 == Fraction(61685817, 72531911)),
        "numerator = count_critical_at_most(n, 2) with chi = 2": (
            chi == 2 and hold[4] == 29719
            and all(frac[n] == Fraction(hold[n], total[n]) for n in dims)),
        "denominator = census": (total[4] == 29887
                                 and total[5] == FORB_ONES3_COUNT_5),
        "hold5 + N5 = 2^31": hold[5] + total[5] == 1 << 31,
        "N = hyperplane/coset count": (oracle[4] == 29887
                                       and oracle[5] == FORB_ONES3_COUNT_5),
    }
    failed = [name for name, held in certs.items() if not held]
    ok = not failed and elapsed < 1800
    trend = "decreasing" if f5 < f4 else "not decreasing"
    detail = (
        f"structured fraction of Forb(ones:3), codim 2: n=4 {f4} "
        f"({float(f4):.6f}), n=5 {f5} ({float(f5):.6f}), {trend} at n<=5 "
        f"(the typical structure theorem is asymptotic); certification "
        f"identities {'hold' if not failed else 'FAIL: ' + '; '.join(failed)}"
    )
    _verdict(capsys, 5, ok, f"{detail} ({elapsed:.1f}s, limit 1800s)")
    assert ok, (
        f"{detail}; numerators {hold}, denominators {total}, independent "
        f"counts {oracle}, chi {chi} (elapsed {elapsed:.1f}s)"
    )


def test_06_structured_census_formula(capsys):
    t0 = time.perf_counter()
    rng = random.Random(6)
    values = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3),
              Fraction(2, 3), Fraction(1, 4), Fraction(3, 4), Fraction(2, 5),
              Fraction(1, 7)]
    bad = []
    nonzero = 0
    for trial in range(200):
        n = rng.randint(1, 4)
        pool = [rng.choice(values) for _ in range(rng.randint(1, 3))]
        vals = tuple(rng.choice(pool) for _ in range((1 << n) - 1))
        f = RealFunction(n, vals)
        levels: dict = {}
        for v in vals:
            levels[v] = levels.get(v, 0) + 1
        expect = 1
        for a, size in levels.items():
            ones = a * size
            if ones.denominator != 1:
                expect = 0
                break
            expect *= math.comb(size, ones.numerator)
        nonzero += expect > 0
        got = len(enumerate_structured(f))
        if got != expect or got != count_structured(f):
            bad.append((trial, got, expect))
        elif expect > 2 ** function_entropy(f) * (1 + 1e-9):
            bad.append((trial, expect, "entropy bound"))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 300
    _verdict(capsys, 6, ok,
             f"200 random rational level functions: structured census equals "
             f"the binomial product and respects the entropy bound, "
             f"{nonzero} nonzero ({elapsed:.1f}s, limit 300s)")
    assert ok, f"violations: {bad}, elapsed {elapsed:.1f}s"


def test_07_free_extension_bound(capsys):
    t0 = time.perf_counter()
    rng = random.Random(20260818)
    bad = []
    done = 0
    while done < 100:
        dp = rng.randint(1, 3)
        k = rng.randint(1, dp)
        lo, hi = max(dp - k, 0), 4 - k
        if lo > hi:
            continue
        m = rng.randint(lo, hi)
        cells = [rng.choice([0, 1, 1, "*"]) for _ in range((1 << dp) - 1)]
        Np = Pattern.from_values(cells)
        base_space = Subspace.from_vectors(dp, [1 << i for i in range(dp - k)])
        N = restrict(Np, base_space)
        M = None
        for _ in range(200):
            cand = Matroid(m, rng.randrange(1 << ((1 << m) - 1)))
            if find_instance(N, cand) is not None:
                M = cand
                break
        if M is None:
            continue
        rep = count_free_extensions(M, m + k, Np)
        q, p = rep.bound_log2.denominator, rep.bound_log2.numerator
        if not rep.applicable or not rep.holds:
            bad.append((done, M, Np))
        elif rep.count > 0 and rep.count ** q > 2 ** p:
            bad.append((done, rep.count, rep.bound_log2))
        done += 1
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 600
    _verdict(capsys, 7, ok,
             f"100 random feasible configurations: exact pattern-free "
             f"extension counts stay under the 2^(2^n(1-2^-k-eps)) bound "
             f"({elapsed:.1f}s, limit 600s)")
    assert ok, f"violations: {bad}, elapsed {elapsed:.1f}s"


def test_08_rooted_packing(capsys):
    t0 = time.perf_counter()
    rng = random.Random(0)
    bad = []
    for n in range(7):
        for dw in range(n + 1):
            for du in range(dw + 1):
                pairs = [(Subspace.from_vectors(n, [1 << i for i in range(du)]),
                          Subspace.from_vectors(n, [1 << i for i in range(dw)]))]
                Ws = list(enumerate_subspaces(n, dw))
                for _ in range(2):
                    W = rng.choice(Ws)
                    inside = [S for S in enumerate_subspaces(n, du)
                              if S.is_subspace_of(W)]
                    pairs.append((rng.choice(inside), W))
                for U, W in pairs:
                    fam = rooted_subspace_packing(U, W, n)
                    d = n - W.dim + U.dim
                    upts = set(U.spanned_points())
                    wpts = set(W.spanned_points())
                    for S in fam:
                        if S.dim != d or set(S.spanned_points()) & wpts != upts:
                            bad.append(("conditions", du, dw, n))
                    for i in range(len(fam)):
                        si = set(fam[i].spanned_points())
                        for j in range(i + 1, len(fam)):
                            if si & set(fam[j].spanned_points()) != upts:
                                bad.append(("pairwise", du, dw, n))
                    if W.dim < n:
                        # the greedy maximality bound needs points outside W
                        want = (1 << (n - 2 * d)) if n >= 2 * d else 1
                        if len(fam) < want:
                            bad.append(("bound", du, dw, n, len(fam), want))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 300
    _verdict(capsys, 8, ok,
             f"rooted packings satisfy the dimension, anchoring and pairwise "
             f"conditions on all nested triples with ambient dim <=6, with "
             f"m >= 2^(n-2d) whenever W is proper ({elapsed:.1f}s, "
             f"limit 300s)")
    assert ok, f"violations: {bad}, elapsed {elapsed:.1f}s"


def test_09_ramsey_certificates(capsys):
    t0 = time.perf_counter()
    res = ramsey_dimension(2, 4)
    verified = verify_ramsey_result(res, samples=2000, seed=0)
    cex_ok = sorted(res.counterexamples) == [1, 2] and res.value == 3
    transcript_ok = (
        res.transcript.get("dimension") == 3
        and res.transcript.get("exhausted") is True
    )
    elapsed = time.perf_counter() - t0
    ok = verified and cex_ok and transcript_ok and elapsed < 7200
    _verdict(capsys, 9, ok,
             f"monochromatic-plane threshold {res.value} with verified "
             f"counterexample colorings below and an exhaustive transcript at "
             f"the threshold ({elapsed:.1f}s, limit 7200s)")
    assert ok, (
        f"value {res.value}, verified {verified}, counterexample dims "
        f"{sorted(res.counterexamples)}, transcript {res.transcript}, "
        f"elapsed {elapsed:.1f}s"
    )


def test_10_fourier_suite(capsys):
    t0 = time.perf_counter()
    bad = []

    # normal forms pass at their degree; a maximal term breaks degree d-1
    for n, d, terms in [
        (3, 1, [(0b001, 1)]),
        (3, 2, [(0b011, 1)]),
        (3, 2, [(0b001, 2)]),
        (3, 3, [(0b111, 1)]),
        (3, 3, [(0b001, 3)]),
        (4, 2, [(0b0011, 1), (0b0100, 2)]),
        (4, 3, [(0b0111, 1), (0b1000, 1)]),
    ]:
        P = NonclassicalPolynomial.build(n, d, 0, terms)
        if not verify_degree(P, d).passed:
            bad.append(("degree pass", n, d, terms))
        if verify_degree(P, d - 1).passed:
            bad.append(("degree fail expected", n, d, terms))
    for P in enumerate_normal_form_polynomials(2, 2):
        if not verify_degree(P, 2).passed:
            bad.append(("enumerated form", P))
        maximal = any(bin(I).count("1") + j == 3 for I, j in P.terms)
        if maximal and verify_degree(P, 1).passed:
            bad.append(("maximal term survived d-1", P))

    # U_1 equals |mean| within 1e-12 in exhaustive mode
    rng = random.Random(10)
    for _ in range(50):
        n = rng.randint(1, 4)
        f = [rng.uniform(-1, 1) for _ in range(1 << n)]
        if abs(gowers_norm(f, 1) - abs(sum(f) / len(f))) > 1e-12:
            bad.append(("U1", f))

    # conditional expectation: idempotent and mean preserving, exactly
    for _ in range(20):
        size = 1 << rng.randint(1, 4)
        g = [Fraction(rng.randint(-8, 8), rng.randint(1, 9)) for _ in range(size)]
        cells = list(range(size))
        rng.shuffle(cells)
        cut = rng.randint(1, size - 1)
        parts = [sorted(cells[:cut]), sorted(cells[cut:])]
        ce = conditional_expectation(g, parts)
        if conditional_expectation(ce, parts) != ce:
            bad.append(("idempotence", g, parts))
        if sum(ce) != sum(g):
            bad.append(("mean", g, parts))

    # residual of the best factor never rises with complexity
    g16 = [rng.uniform(0, 1) for _ in range(16)]
    residuals = [best_factor_search(g16, 1, C)[1] for C in (0, 1, 2)]
    if not residuals[0] >= residuals[1] >= residuals[2]:
        bad.append(("residual monotonicity", residuals))

    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 600
    _verdict(capsys, 10, ok,
             f"degree verification, U_1 = |mean| to 1e-12, exact conditional "
             f"expectation laws, residual monotone in complexity at n=4 "
             f"({elapsed:.1f}s, limit 600s)")
    assert ok, f"violations: {bad}, elapsed {elapsed:.1f}s"


def test_11_cli_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    runs = [
        ["census", "--forbid", "O2", "--n", "1:4"],
        ["census", "--forbid", "O2", "--n", "2:3", "--format", "csv"],
        ["entropy-table", "--forbid", "I1", "--n", "1:3"],
        ["o2-check", "--forbid", "ones3", "--n", "4", "--k", "2", "--seed", "3"],
        ["ramsey", "--d", "2", "--n", "4", "--seed", "1"],
        ["pack", "--n", "5", "--d", "0", "--k", "4"],
        ["density", "--pattern", "I1", "--input", "ones:3",
         "--samples", "64", "--seed", "9"],
    ]
    bad = []
    for i, argv in enumerate(runs):
        out = tmp_path / f"run{i}"
        blobs = []
        for _ in range(2):
            code = cli_main([*argv, "--out", str(out)])
            if code != 0:
                bad.append((argv, "exit", code))
                break
            blobs.append(out.read_bytes())
        if len(blobs) == 2 and blobs[0] != blobs[1]:
            bad.append((argv, "bytes differ"))
        if blobs and argv[-2] != "--format" and not argv[1].endswith("csv"):
            json.loads(blobs[0])
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 120
    _verdict(capsys, 11, ok,
             f"repeated CLI runs with identical config and seed are "
             f"byte-identical across {len(runs)} configurations "
             f"({elapsed:.1f}s)")
    assert ok, f"violations: {bad}, elapsed {elapsed:.1f}s"
