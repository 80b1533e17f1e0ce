"""Desk-scale higher-order Fourier toolkit: nonclassical polynomials over
F_2^n with exact dyadic torus values, polynomial factors, conditional
expectation, Gowers uniformity norms, binary entropy, and level-structured
matroid counting.

Functions on the full cube F_2^n are plain sequences of length 2^n indexed
by the vector bits; matroid-side level-set functions reuse
matroid.RealFunction (defined on the 2^n - 1 points).
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import BudgetExceeded
from .gf2 import GF2Vector, span_table
from .matroid import Matroid, RealFunction

__all__ = [
    "TorusValue",
    "NonclassicalPolynomial",
    "eval_polynomial",
    "derivative",
    "DegreeCheck",
    "verify_degree",
    "PolynomialFactor",
    "factor_partition",
    "FactorCountReport",
    "count_factors",
    "enumerate_normal_form_polynomials",
    "conditional_expectation",
    "gowers_norm",
    "binary_entropy",
    "function_entropy",
    "count_structured",
    "enumerate_structured",
    "is_structured",
    "best_factor_search",
    "polynomial_to_text",
    "polynomial_from_text",
]

GOWERS_EXHAUSTIVE_BUDGET = 1 << 28
GOWERS_ROW_OP_BUDGET = 1 << 16  # numpy calls on whole rows of one exhaustive U_d
DEGREE_BFS_BUDGET = 1 << 22
STRUCTURED_ENUM_CAP = 10**6
POLY_ENUM_CAP = 1 << 20
FACTOR_PARTITION_MAX_DIM = 20
GOWERS_BATCH_CELLS = 1 << 16  # table cells per batched residual Gowers call


@dataclass(frozen=True)
class TorusValue:
    """Exact dyadic element of R/Z: num / 2^log_den in [0, 1)."""

    num: int = 0
    log_den: int = 0

    def __post_init__(self):
        num, ld = self.num, self.log_den
        if ld < 0:
            raise ValueError("log_den must be nonnegative")
        num %= 1 << ld
        while num and num % 2 == 0 and ld > 0:
            num //= 2
            ld -= 1
        if num == 0:
            ld = 0
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "log_den", ld)

    @classmethod
    def from_fraction(cls, fr) -> "TorusValue":
        fr = Fraction(fr)
        den = fr.denominator
        ld = den.bit_length() - 1
        if den != 1 << ld:
            raise ValueError(f"{fr} is not dyadic")
        return cls(fr.numerator, ld)

    @property
    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.log_den)

    @property
    def is_zero(self) -> bool:
        return self.num == 0

    def __add__(self, other: "TorusValue") -> "TorusValue":
        ld = max(self.log_den, other.log_den)
        a = self.num << (ld - self.log_den)
        b = other.num << (ld - other.log_den)
        return TorusValue(a + b, ld)

    def __neg__(self) -> "TorusValue":
        return TorusValue(-self.num, self.log_den)

    def __sub__(self, other: "TorusValue") -> "TorusValue":
        return self + (-other)

    def __str__(self):
        return f"{self.num}/{1 << self.log_den}"


def _as_torus(v) -> TorusValue:
    if isinstance(v, TorusValue):
        return v
    return TorusValue.from_fraction(v)


@dataclass(frozen=True)
class NonclassicalPolynomial:
    """Normal form alpha + sum over terms (I, j) of |x_I| / 2^j (mod 1).

    |x_I| is the product of the {0,1}-coordinates indexed by the mask I.
    A term (I, j) with I nonempty and j >= 1 has degree |I| + j - 1 (one
    fewer differentiation kills the 1/2^j part first), so a polynomial of
    degree <= `degree` carries terms with |I| + j <= degree + 1 and a
    constant alpha with denominator dividing 2^degree.
    """

    n: int
    degree: int
    alpha: TorusValue
    terms: frozenset

    def __post_init__(self):
        if self.n < 0 or self.degree < 0:
            raise ValueError("n and degree must be nonnegative")
        alpha = _as_torus(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "terms", frozenset(self.terms))
        if alpha.log_den > self.degree:
            raise ValueError(
                f"alpha denominator 2^{alpha.log_den} exceeds 2^{self.degree}"
            )
        for I, j in self.terms:
            if not 0 < I < (1 << self.n):
                raise ValueError(f"term variable mask {I:#x} out of range")
            if j < 1:
                raise ValueError("term depth j must be >= 1")
            if I.bit_count() + j > self.degree + 1:
                raise ValueError(
                    f"term (|I|={I.bit_count()}, j={j}) has degree "
                    f"{I.bit_count() + j - 1} > {self.degree}"
                )

    @classmethod
    def build(cls, n: int, degree: int, alpha=0, terms: Iterable = ()) -> "NonclassicalPolynomial":
        return cls(n, degree, _as_torus(alpha), frozenset(terms))

    def _units(self, x: int) -> int:
        d = self.degree
        acc = self.alpha.num << (d - self.alpha.log_den)
        for I, j in self.terms:
            if x & I == I:
                acc += 1 << (d - j)
        return acc

    def eval_bits(self, x: int) -> TorusValue:
        if not 0 <= x < (1 << self.n):
            raise ValueError(f"{x:#x} is not in F_2^{self.n}")
        return TorusValue(self._units(x), self.degree)

    def int_table(self) -> tuple[tuple[int, ...], int]:
        """Values over all of F_2^n as ints in units of 2^-degree, plus degree."""
        mod = 1 << self.degree
        return tuple(self._units(x) % mod for x in range(1 << self.n)), self.degree

    def table(self) -> tuple[TorusValue, ...]:
        tbl, d = self.int_table()
        return tuple(TorusValue(v, d) for v in tbl)

    def __repr__(self):
        return f"NonclassicalPolynomial({polynomial_to_text(self)!r})"


def eval_polynomial(P: NonclassicalPolynomial, x: Union[int, GF2Vector]) -> TorusValue:
    """Exact dyadic value of P at x (zero vector allowed)."""
    if isinstance(x, GF2Vector):
        if x.ambient_dim != P.n:
            raise ValueError("ambient dimension mismatch")
        x = x.bits
    return P.eval_bits(x)


def polynomial_to_text(P: NonclassicalPolynomial) -> str:
    parts = [str(P.n), str(P.degree), str(P.alpha), ";"]
    for I, j in sorted(P.terms):
        vars_ = [str(i + 1) for i in range(P.n) if (I >> i) & 1]
        parts.append(f"{','.join(vars_)}:{j}")
    return " ".join(parts)


def polynomial_from_text(text: str) -> NonclassicalPolynomial:
    head, _, tail = text.partition(";")
    fields = head.split()
    if len(fields) != 3:
        raise ValueError(f"expected 'n d alpha ;' header, got {head!r}")
    n, degree = int(fields[0]), int(fields[1])
    num, _, den = fields[2].partition("/")
    alpha = TorusValue.from_fraction(Fraction(int(num), int(den or 1)))
    terms = []
    for tok in tail.split():
        vars_, _, j = tok.partition(":")
        I = 0
        for v in vars_.split(","):
            I |= 1 << (int(v) - 1)
        terms.append((I, int(j)))
    return NonclassicalPolynomial(n, degree, alpha, frozenset(terms))


# --- derivatives -------------------------------------------------------------

def _torus_int_table(values: Sequence) -> tuple[tuple[int, ...], int]:
    tvs = [_as_torus(v) for v in values]
    ld = max((t.log_den for t in tvs), default=0)
    return tuple(t.num << (ld - t.log_den) for t in tvs), ld


def derivative(f: Sequence, y: Union[int, GF2Vector]) -> tuple[TorusValue, ...]:
    """(D_y f)(x) = f(x + y) - f(x), exact on the torus.

    f is a sequence of torus values (TorusValue or dyadic Fractions) over
    all of F_2^n, length a power of two.
    """
    size = len(f)
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValueError("table length must be a power of two")
    if isinstance(y, GF2Vector):
        y = y.bits
    if not 0 <= y < size:
        raise ValueError("direction out of range")
    tbl, ld = _torus_int_table(f)
    mod = 1 << ld
    return tuple(
        TorusValue((tbl[x ^ y] - tbl[x]) % mod if mod > 1 else 0, ld)
        for x in range(size)
    )


@dataclass(frozen=True)
class DegreeCheck:
    passed: bool
    exhaustive: bool
    trials: Optional[int] = None

    def __bool__(self):
        return self.passed


def verify_degree(
    f: Union[NonclassicalPolynomial, Sequence],
    d: int,
    budget: int = DEGREE_BFS_BUDGET,
    trials: int = 2000,
    seed: int = 0,
) -> DegreeCheck:
    """True iff every (d+1)-fold derivative of f vanishes identically.

    Exhaustive mode runs a breadth-first sweep over derivative tables with
    deduplication per level; if the sweep would exceed `budget` table
    expansions it falls back to `trials` random direction tuples and flags
    the result as non-exhaustive.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if isinstance(f, NonclassicalPolynomial):
        tbl, ld = f.int_table()
    else:
        tbl, ld = _torus_int_table(f)
    size = len(tbl)
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValueError("table length must be a power of two")
    mod = 1 << ld

    if mod == 1:
        return DegreeCheck(True, True)

    def diff(t: tuple, y: int) -> tuple:
        return tuple((t[x ^ y] - t[x]) % mod for x in range(size))

    zero = (0,) * size
    level = {tbl}
    ops = 0
    for _ in range(d + 1):
        ops += len(level) * size * size
        if ops > budget:
            break
        level = {diff(t, y) for t in level for y in range(size)}
    else:
        return DegreeCheck(all(t == zero for t in level), True)

    rng = random.Random(seed)
    for _ in range(trials):
        t = tbl
        for _ in range(d + 1):
            t = diff(t, rng.randrange(size))
        if t != zero:
            return DegreeCheck(False, False, trials)
    return DegreeCheck(True, False, trials)


# --- polynomial factors --------------------------------------------------------

@dataclass(frozen=True)
class PolynomialFactor:
    """Partition of F_2^n by the joint value vector of a tuple of polynomials."""

    n: int
    polys: tuple
    part_ids: tuple  # part index per x, first-seen order
    n_parts: int

    def parts(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n_parts)]
        for x, pid in enumerate(self.part_ids):
            out[pid].append(x)
        return out

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "polys": [polynomial_to_text(P) for P in self.polys],
            "n_parts": self.n_parts,
        }


def factor_partition(
    polys: Sequence[NonclassicalPolynomial], n: Optional[int] = None
) -> PolynomialFactor:
    """Partition x ~ y iff P_i(x) = P_i(y) for all i."""
    polys = tuple(polys)
    if polys:
        dims = {P.n for P in polys}
        if len(dims) != 1:
            raise ValueError("polynomials live in different dimensions")
        poly_n = dims.pop()
        if n is not None and n != poly_n:
            raise ValueError("explicit n disagrees with the polynomials")
        n = poly_n
    elif n is None:
        raise ValueError("empty factor needs an explicit dimension")
    if n > FACTOR_PARTITION_MAX_DIM:
        raise BudgetExceeded(f"factor partition is capped at dim {FACTOR_PARTITION_MAX_DIM}")
    size = 1 << n
    labels = np.zeros((1, size), dtype=np.int64)
    for P in polys:  # own labels keep keys below size^2 whatever the degree
        own = _partition_signatures(np.array([P.int_table()[0]]))
        labels = _partition_signatures(labels * size + own)
    part_ids = labels[0].tolist()
    n_parts = max(part_ids) + 1
    d = max((P.degree for P in polys), default=0)
    C = len(polys)
    assert n_parts <= 1 << (d * C), (
        f"part count {n_parts} exceeds 2^(dC) = 2^{d * C}"
    )
    return PolynomialFactor(n, polys, tuple(part_ids), n_parts)


def _partition_signatures(keys: np.ndarray) -> np.ndarray:
    """First-seen part labels of each row of keys, as ids.setdefault(key,
    len(ids)) assigns them in a scan over x; O(size log size) per row."""
    r = np.arange(len(keys))[:, None]
    cols = np.arange(keys.shape[1])
    order = np.argsort(keys, axis=1, kind="stable")
    srt = keys[r, order]
    # the stable sort puts the first occurrence of each key at the head of its run
    run_start = np.diff(srt, axis=1, prepend=srt[:, :1] - 1) != 0
    head = np.maximum.accumulate(np.where(run_start, cols, 0), axis=1)
    first = np.empty_like(order)
    first[r, order] = order[r, head]
    return (np.cumsum(first == cols, axis=1) - 1)[r, first]


def _term_universe(n: int, d: int) -> list[tuple[int, int]]:
    """All normal-form terms (I, j) of degree <= d: I nonempty, |I|+j <= d+1."""
    return [(I, j) for I in range(1, 1 << n) for j in range(1, d + 2 - I.bit_count())]


def enumerate_normal_form_polynomials(n: int, d: int) -> list[NonclassicalPolynomial]:
    """All degree-<=d homogeneous normal forms (alpha = 0, all coefficient
    choices over the term universe)."""
    universe = _term_universe(n, d)
    if 1 << len(universe) > POLY_ENUM_CAP:
        raise BudgetExceeded(
            f"2^{len(universe)} candidate polynomials exceed the cap {POLY_ENUM_CAP}"
        )
    polys = []
    for bits in range(1 << len(universe)):
        terms = frozenset(universe[i] for i in range(len(universe)) if (bits >> i) & 1)
        polys.append(NonclassicalPolynomial(n, d, TorusValue(0, 0), terms))
    return polys


def _factor_candidates(n: int, d: int, C: int) -> tuple[list[NonclassicalPolynomial], np.ndarray]:
    """The first normal form of each distinct value table (all share degree
    d, so int tables compare functions) and each one's first-seen part
    labels; refuses when too many C-multisets of them exist."""
    reps: dict[tuple, NonclassicalPolynomial] = {}
    for P in enumerate_normal_form_polynomials(n, d):
        reps.setdefault(P.int_table()[0], P)
    n_multisets = math.comb(len(reps) + C - 1, C)
    if n_multisets > POLY_ENUM_CAP:
        raise BudgetExceeded(f"{n_multisets} factor candidates exceed the cap")
    return list(reps.values()), _partition_signatures(np.array(list(reps)))


def _distinct_partitions(sigs: np.ndarray, C: int) -> dict[bytes, tuple]:
    """The int64 label bytes of each distinct partition induced by C-multisets
    of rows of sigs, mapped to the first such multiset in combinations with
    replacement order; one block per (C-1)-prefix, vectorized over the last."""
    R, size = sigs.shape
    if C == 0:
        return {np.zeros(size, dtype=np.int64).tobytes(): ()}
    seen: dict[bytes, tuple] = {}
    for prefix in itertools.combinations_with_replacement(range(R), C - 1):
        first = prefix[-1] if prefix else 0
        labels = sigs[first:first + 1] if prefix else 0
        for i in set(prefix) - {first}:  # repeats do not refine the partition
            labels = _partition_signatures(labels * size + sigs[i:i + 1])
        block = _partition_signatures(labels * size + sigs[first:])
        buf, w = block.tobytes(), block[0].nbytes
        for j, k in enumerate(range(0, len(buf), w), first):
            if buf[k:k + w] not in seen:
                seen[buf[k:k + w]] = prefix + (j,)
    return seen


@dataclass(frozen=True)
class FactorCountReport:
    n: int
    d: int
    C: int
    count: int
    bound: int
    bound_holds: bool


def count_factors(n: int, d: int, C: int) -> FactorCountReport:
    """Exact number of distinct partitions of F_2^n induced by C-tuples of
    degree-<=d normal-form polynomials, reported against the n^(dC) bound.

    The bound is reported, not asserted: it fails at tiny n (see the
    report's bound_holds flag), while the 2^(dC) per-factor part bound is
    asserted inside factor_partition on every construction.
    """
    if n < 0 or d < 0 or C < 0:
        raise ValueError("n, d, C must be nonnegative")
    bound = n ** (d * C)
    if C == 0:
        return FactorCountReport(n, d, C, 1, bound, 1 <= bound)
    _, sigs = _factor_candidates(n, d, C)
    count = len(_distinct_partitions(sigs, C))
    return FactorCountReport(n, d, C, count, bound, count <= bound)


# --- conditional expectation -----------------------------------------------------

def _partition_of(B, size: int) -> list[list[int]]:
    if isinstance(B, PolynomialFactor):
        if 1 << B.n != size:
            raise ValueError("factor dimension does not match the function")
        return B.parts()
    parts = [list(part) for part in B]
    seen = sorted(x for part in parts for x in part)
    if seen != list(range(size)):
        raise ValueError("parts do not partition the domain")
    return parts


def conditional_expectation(g: Sequence, B) -> tuple:
    """Part-wise average of g over the partition B, exact when g is rational."""
    size = len(g)
    parts = _partition_of(B, size)
    exact = all(isinstance(v, (int, Fraction)) for v in g)
    out = [None] * size
    for part in parts:
        if exact:
            avg = Fraction(sum(g[x] for x in part), len(part))
        else:
            avg = sum(float(g[x]) for x in part) / len(part)
        for x in part:
            out[x] = avg
    return tuple(out)


# --- Gowers norms -----------------------------------------------------------------

def gowers_norm(f: Sequence, d: int, samples: Optional[int] = None, seed: int = 0) -> float:
    """Gowers uniformity norm ||f||_{U_d} of a real function on F_2^n:
    the 2^d-th root of E prod_{S subseteq [d]} f(x + sum_{i in S} h_i).

    Exhaustive when its 2^(n(d+1)) terms and 2^(n(d-1)) row operations fit
    their budgets; otherwise Monte-Carlo with the given sample count and
    seed (opt-in: refuses without samples).
    """
    if d < 1:
        raise ValueError("Gowers norms are defined for d >= 1")
    arr = np.asarray(f, dtype=np.float64)
    size = arr.size
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValueError("table length must be a power of two")
    if samples is None:
        _check_gowers_budget(n, d, "; pass samples= for Monte-Carlo")
        val = float(_gowers_power(arr[None], d)[0])
        return max(val, 0.0) ** (1.0 / (1 << d))
    if samples <= 0:
        raise ValueError("monte_carlo mode needs samples > 0")
    rng = random.Random(seed)
    acc = 0.0
    for _ in range(samples):
        x = rng.randrange(size)  # then x + sum_{i in S} h_i with S in bit order
        cube = span_table([rng.randrange(size) for _ in range(d)])
        acc += math.prod((arr[x ^ y] for y in cube), start=1.0)
    return max(acc / samples, 0.0) ** (1.0 / (1 << d))


def _check_gowers_budget(n: int, d: int, hint: str = "") -> None:
    """Refuse an exhaustive U_d over 2^n points whose 2^(n(d+1)) terms or
    2^(n(d-1)) numpy row operations (the real cost on small tables) exceed
    their budgets."""
    if 2 ** (n * (d + 1)) > GOWERS_EXHAUSTIVE_BUDGET:
        raise BudgetExceeded(f"2^{n * (d + 1)} terms exceed the exhaustive budget{hint}")
    if 2 ** (n * (d - 1)) > GOWERS_ROW_OP_BUDGET:
        raise BudgetExceeded(
            f"2^{n * (d - 1)} row operations exceed the budget of "
            f"{GOWERS_ROW_OP_BUDGET}{hint}"
        )


def _gowers_power(a: np.ndarray, d: int, perms=None) -> np.ndarray:
    """Exhaustive E prod_{S subseteq [d]} f(x + sum_{i in S} h_i) for each
    row f of a (rows, 2^n): the squared row mean at d = 1, else the sum over
    h in ascending order of the level below, divided by 2^n."""
    size = a.shape[1]
    if d == 1:
        m = np.add.reduce(a, axis=1) / size  # the bits of a.mean(axis=1)
        return m * m
    if perms is None:
        perms = np.arange(size) ^ np.arange(size)[:, None]  # row h: x -> x + h
    acc = 0.0
    for p in perms:
        acc = acc + _gowers_power(a * a.take(p, axis=1), d - 1, perms)
    return acc / size


# --- entropy and structured counting ----------------------------------------------

def binary_entropy(x) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x), with h(0) = h(1) = 0."""
    if not 0 <= x <= 1:
        raise ValueError(f"entropy argument {x!r} outside [0, 1]")
    x = float(x)
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def function_entropy(f: RealFunction) -> float:
    """H(f) = sum of h(f(x)) over the points of f's domain."""
    return sum(binary_entropy(v) for v in f.values)


def _levels(f: RealFunction) -> dict[Fraction, list[int]]:
    levels: dict[Fraction, list[int]] = {}
    snapped = False
    for p in range(1, f.n_points + 1):
        v = f.value_bits(p)
        if isinstance(v, float):
            ev = Fraction(v).limit_denominator(1 << 20)
            snapped = snapped or ev != Fraction(v)
        else:
            ev = Fraction(v)
        levels.setdefault(ev, []).append(p)
    if snapped:
        warnings.warn(
            "float level values snapped to rationals with denominator <= 2^20",
            stacklevel=3,
        )
    return levels


def count_structured(f: RealFunction) -> int:
    """prod over level sets binom(|f^-1(a)|, a |f^-1(a)|); 0 when some
    required count is non-integral."""
    total = 1
    for a, pts in _levels(f).items():
        need = a * len(pts)
        if need.denominator != 1:
            return 0
        total *= math.comb(len(pts), int(need))
    return total


def enumerate_structured(f: RealFunction) -> list[Matroid]:
    """All Boolean matroids with exactly a*|f^-1(a)| ones on each level set."""
    levels = _levels(f)
    expected = count_structured(f)
    if expected > STRUCTURED_ENUM_CAP:
        raise BudgetExceeded(f"{expected} structured matroids exceed the cap")
    if expected == 0:
        return []
    tables = [0]
    for a, pts in levels.items():
        need = int(a * len(pts))
        new_tables = []
        for ones in itertools.combinations(pts, need):
            add = 0
            for p in ones:
                add |= 1 << (p - 1)
            new_tables.extend(t | add for t in tables)
        tables = new_tables
    out = [Matroid(f.dim, t) for t in tables]
    assert len(out) == expected
    return out


def is_structured(M: Matroid, f: RealFunction) -> bool:
    """True iff M has exactly a*|f^-1(a)| ones on every level set of f."""
    if M.dim != f.dim:
        return False
    for a, pts in _levels(f).items():
        need = a * len(pts)
        if need.denominator != 1:
            return False
        have = sum((M.table >> (p - 1)) & 1 for p in pts)
        if have != int(need):
            return False
    return True


# --- decomposition probe ------------------------------------------------------------

def best_factor_search(g: Sequence, d: int, C: int) -> tuple[PolynomialFactor, float]:
    """The complexity-<=C degree-<=d factor minimizing the U_{d+1} norm of
    g - E[g|B], by exhaustive sweep over distinct partitions.

    Ties resolve to the first partition in enumeration order, so results
    are deterministic; residuals are exhaustive-mode Gowers norms.
    """
    size = len(g)
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValueError("table length must be a power of two")
    if C < 0:
        raise ValueError("complexity must be nonnegative")
    garr = np.array([float(v) for v in g])
    polys, sigs = _factor_candidates(n, d, C)
    _check_gowers_budget(n, d + 1, " (residual Gowers norms)")
    seen = _distinct_partitions(sigs, C)
    keys, owners = list(seen), list(seen.values())
    best_combo: tuple = ()
    best_res = math.inf
    step = max(1, GOWERS_BATCH_CELLS // size)
    for lo in range(0, len(keys), step):
        labels = np.frombuffer(b"".join(keys[lo:lo + step]), dtype=np.int64).reshape(-1, size)
        # g - E[g|B]: part sums run over ascending x, as in conditional_expectation
        rows = np.arange(len(labels))
        sums, counts = np.zeros(labels.shape), np.zeros(labels.shape)
        for x in range(size):
            sums[rows, labels[:, x]] += garr[x]
            counts[rows, labels[:, x]] += 1
        proj = np.take_along_axis(sums, labels, axis=1) / np.take_along_axis(counts, labels, axis=1)
        powers = _gowers_power(garr - proj, d + 1).tolist()
        for combo, val in zip(owners[lo:lo + step], powers):
            resid = max(val, 0.0) ** (1.0 / (1 << (d + 1)))
            if resid < best_res:
                best_res, best_combo = resid, combo
    factor = factor_partition([polys[i] for i in best_combo], n=n)
    return factor, best_res

