"""Desk-scale higher-order Fourier toolkit: nonclassical polynomials over
F_2^n with exact dyadic torus values, polynomial factors, conditional
expectation, Gowers uniformity norms, binary entropy, and level-structured
matroid counting.

Functions on the full cube F_2^n are plain sequences of length 2^n indexed
by the vector bits; matroid-side level-set functions reuse
matroid.RealFunction (defined on the 2^n - 1 points).

Every function F_2^n -> 2^-k Z/Z has one normal form alpha + sum of
c_{I,j} |x_I| / 2^j with c in {0, 1} (Tao-Ziegler, Ann. Comb. 2012,
Lemma 1.7), so verify_degree decides degrees exactly from it, with no
budget, and distinct normal forms are distinct functions.
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
from .gf2 import GF2Vector, _points_mask, span_table
from .matroid import TABLE_MAX_DIM, Matroid, RealFunction

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
GOWERS_MAX_DEGREE = 64  # the exhaustive kernel recurses once per degree
STRUCTURED_ENUM_CAP = 10**6
POLY_ENUM_CAP = 1 << 20
GOWERS_BATCH_CELLS = 1 << 16  # table cells per batched residual Gowers call
FACTOR_TABLE_CELLS = 1 << 21  # coefficient bits plus values of all candidate tables


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
    den = int(den or 1)
    if not den:
        raise ValueError(f"zero denominator in alpha {fields[2]!r}")
    alpha = TorusValue.from_fraction(Fraction(int(num), den))
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


def _table_dim(size: int) -> int:
    """n for a table over all of F_2^n, which has 2^n values (never 0)."""
    if size < 1 or size & (size - 1):
        raise ValueError("table length must be a power of two")
    return size.bit_length() - 1


def derivative(f: Sequence, y: Union[int, GF2Vector]) -> tuple[TorusValue, ...]:
    """(D_y f)(x) = f(x + y) - f(x), exact on the torus.

    f is a sequence of torus values (TorusValue or dyadic Fractions) over
    all of F_2^n, length a power of two.
    """
    size = len(f)
    _table_dim(size)
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

    def __bool__(self):
        return self.passed


def verify_degree(f: Union[NonclassicalPolynomial, Sequence], d: int) -> DegreeCheck:
    """True iff every (d+1)-fold derivative of f vanishes identically.

    Decided exactly from the unique normal form of f (Tao-Ziegler 2012,
    Lemma 1.7): with values in units of 2^-ld, the Moebius transform mod
    2^ld gives f = sum over I of a_I |x_I|, binary digit ld - j of a_I is
    the coefficient of the term (I, j), and f has degree <= d iff every
    term with I nonempty has |I| + j - 1 <= d, that is iff
    a_I * 2^(d+1-|I|) = 0 mod 2^ld.  O(n 2^n) integer operations; the
    constant a_0 has degree 0 whatever its denominator.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if isinstance(f, NonclassicalPolynomial):
        tbl, ld = f.int_table()
    else:
        tbl, ld = _torus_int_table(f)
    size = len(tbl)
    n = _table_dim(size)
    mod = 1 << ld
    a = list(tbl)
    for i in range(n):  # subtract the bit-i-clear half from the bit-i-set half
        h = 1 << i
        for lo in range(h, size, h << 1):
            a[lo:lo + h] = [(u - v) % mod for u, v in zip(a[lo:lo + h], a[lo - h:lo])]
    return DegreeCheck(all(
        not (c << max(0, d + 1 - I.bit_count())) % mod for I, c in enumerate(a) if I
    ))


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
    if n > TABLE_MAX_DIM:
        raise BudgetExceeded(f"factor partition is capped at dim {TABLE_MAX_DIM}")
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
    rows, size = keys.shape
    idx = np.arange(rows * size)  # flat positions: after the row sort, work on one axis
    order = (np.argsort(keys, axis=1, kind="stable") + idx[::size, None]).ravel()
    srt = keys.ravel()[order].reshape(rows, size)
    run_start = np.ones((rows, size), dtype=bool)
    np.not_equal(srt[:, 1:], srt[:, :-1], out=run_start[:, 1:])
    # the stable sort puts the first occurrence of each key at the head of its run
    head = np.maximum.accumulate(np.where(run_start.ravel(), idx, 0))
    first = np.empty_like(order)
    first[order] = order[head]
    heads_upto = np.cumsum(first == idx)  # x = 0 of each row is a head, labelled 0
    return (heads_upto[first] - np.repeat(heads_upto[::size], size)).reshape(rows, size)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of a C-contiguous 2-d array as one opaque bytes scalar."""
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _term_universe(n: int, d: int) -> list[tuple[int, int]]:
    """All normal-form terms (I, j) of degree <= d: I nonempty, |I|+j <= d+1."""
    return [(I, j) for I in range(1, 1 << n) for j in range(1, d + 2 - I.bit_count())]


def _term_count(n: int, d: int) -> int:
    """len(_term_universe(n, d)) in closed form: C(n, k) masks I of size k,
    each with d + 1 - k depths j.  Refuses when the 2^T normal forms over
    the T terms exceed POLY_ENUM_CAP, before any term is listed."""
    T = sum(math.comb(n, k) * (d + 1 - k) for k in range(1, min(n, d) + 1))
    if T >= POLY_ENUM_CAP.bit_length():  # 2^T > POLY_ENUM_CAP
        raise BudgetExceeded(f"2^{T} candidate polynomials exceed the cap {POLY_ENUM_CAP}")
    return T


def _normal_forms(n: int, d: int, rows: Iterable[int]) -> list[NonclassicalPolynomial]:
    """The degree-<=d homogeneous normal forms (alpha = 0) numbered by rows:
    bit t of row r picks term t of _term_universe(n, d)."""
    universe = _term_universe(n, d)
    return [NonclassicalPolynomial(n, d, TorusValue(0, 0), frozenset(
        term for t, term in enumerate(universe) if r >> t & 1)) for r in rows]


def enumerate_normal_form_polynomials(n: int, d: int) -> list[NonclassicalPolynomial]:
    """All degree-<=d homogeneous normal forms (alpha = 0, all coefficient
    choices over the term universe)."""
    return _normal_forms(n, d, range(1 << _term_count(n, d)))


def _candidate_tables(n: int, d: int) -> np.ndarray:
    """Value tables, in units of 2^-d, of enumerate_normal_form_polynomials(n, d)
    as one integer product (bits @ contrib) % 2^d: row r of bits holds the
    coefficient choices of the r-th normal form (bit t of r picks term t of
    the universe) and contrib[t, x] = 2^(d-j) when x & I == I, for term
    t = (I, j)."""
    universe = _term_universe(n, d)
    if not universe:  # n = 0 or d = 0: only the zero polynomial, whatever d is
        return np.zeros((1, 1 << n), dtype=np.int64)
    xs = np.arange(1 << n)
    bits = (np.arange(1 << len(universe))[:, None] >> np.arange(len(universe))) & 1
    contrib = np.array([np.where(xs & I == I, 1 << (d - j), 0) for I, j in universe])
    return (bits @ contrib) % (1 << d)


def _factor_candidates(n: int, d: int, C: int) -> tuple[np.ndarray, np.ndarray]:
    """The degree-d normal forms that first induce each distinct partition of
    F_2^n, as ascending indices into enumerate_normal_form_polynomials(n, d),
    and each one's first-seen part labels.

    Refuses before building any array when the 2^T normal forms over the
    T-term universe, their C-multisets, or the cells of the product that
    builds their tables (T coefficient bits and 2^n values per form) exceed
    their caps.  Distinct normal forms have distinct value tables (the
    normal form is unique), but many share a partition; a C-multiset's
    partition depends only on its members' partitions.  Replacing each
    member of a multiset by the first form of its class and sorting gives a
    multiset that is elementwise, hence lexicographically, no later and
    induces the same partition, so the first multiset of each partition
    uses these forms only, and the level-wise sweep of _distinct_partitions
    starts from one row per partition.
    """
    T = _term_count(n, d)
    n_multisets = math.comb((1 << T) + C - 1, C)
    if n_multisets > POLY_ENUM_CAP:
        raise BudgetExceeded(f"{n_multisets} factor candidates exceed the cap")
    cells = (1 << T) * (T + (1 << n))
    if cells > FACTOR_TABLE_CELLS:
        raise BudgetExceeded(
            f"{cells} candidate table cells exceed the budget of {FACTOR_TABLE_CELLS}"
        )
    sigs = _partition_signatures(_candidate_tables(n, d))
    first = np.sort(np.unique(_row_keys(sigs), return_index=True)[1])
    return first, sigs[first]


def _same_part_words(sigs: np.ndarray) -> np.ndarray:
    """Each row of part labels as packed native uint64 words: bit k (little
    bit order) is set iff the points x < y of the k-th pair of
    np.triu_indices(size, 1) share a part, zero padded to whole words (one
    word when there are no pairs).  The common refinement of two partitions
    is the AND of their words.  Rows are compared in blocks of at most
    GOWERS_BATCH_CELLS pairs."""
    rows, size = sigs.shape
    x, y = np.triu_indices(size, 1)
    words = np.zeros((rows, max(1, -(-len(x) // 64))), dtype=np.uint64)
    packed = words.view(np.uint8)
    step = max(1, GOWERS_BATCH_CELLS // max(1, len(x)))
    for lo in range(0, rows, step):
        block = sigs[lo:lo + step]
        bits = np.packbits(block[:, x] == block[:, y], axis=1, bitorder="little")
        packed[lo:lo + step, :bits.shape[1]] = bits
    return words


_MIX_KEY = np.uint64(0x9E3779B97F4A7C15)
_MIX_MUL = np.uint64(0xBF58476D1CE4E5B9)


def _fingerprints(words: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """A 64-bit fingerprint of each row of same-part words: the wrapping
    sum over the columns c of mix(word_c ^ key_c), with a distinct key per
    column and mix a xor-shift-multiply step.  Equal rows get equal
    fingerprints.  The mix is non-linear: a weighted sum of the raw words
    lets rows that differ in high bits of two words collide.  Overwrites
    words and spare, an array of the same shape."""
    words ^= np.arange(1, 2 * words.shape[1], 2, dtype=np.uint64) * _MIX_KEY
    words ^= np.right_shift(words, np.uint64(31), out=spare)
    words *= _MIX_MUL
    words ^= np.right_shift(words, np.uint64(29), out=spare)
    return np.add.reduce(words, axis=1)


def _first_candidates(words: np.ndarray, row_words: np.ndarray, row: np.ndarray,
                      j: np.ndarray, step: int) -> np.ndarray:
    """Ascending positions of the first candidate of each distinct word
    vector, where candidate i has the words words[row[i]] & row_words[j[i]].

    Each candidate gets one 64-bit key: its fingerprint in the high bits
    and its position in the low ones, so one plain sort puts each run of
    equal fingerprints in ascending position, headed by the first
    occurrence of all its members.  A single word (at most 28 bits, as
    size <= 8) is its own fingerprint, so equal keys mean equal words.
    Longer rows take the high bits of their _fingerprints; equal words give
    equal fingerprints, so each word vector lies in one run, but a run may
    hold more than one.  So the words of every later member are compared
    exactly with those of its run's head, and the members that differ (none
    unless fingerprints collide) are regrouped by their exact words, each
    group under its least member.  Words are built, fingerprinted and
    compared in blocks of step candidates, in three reused buffers.
    """
    n, width = len(row), words.shape[1]
    shift = np.uint64(max(1, (n - 1).bit_length()))  # position bits, <= 20 under the multiset cap
    buf = np.empty((3, min(step, n), width), dtype=np.uint64)

    def block_words(at, out):  # the words of the candidates at these positions, into out
        own = row[at]
        out, spare = out[:len(own)], buf[2, :len(own)]
        # the indices are in range; mode="raise" would buffer out
        np.take(words, own, axis=0, out=out, mode="clip")
        np.take(row_words, j[at], axis=0, out=spare, mode="clip")
        out &= spare
        return out

    low = (np.uint64(1) << shift) - np.uint64(1)
    keys = np.empty(n, dtype=np.uint64)
    for lo in range(0, n, step):
        block = block_words(slice(lo, lo + step), buf[0])
        if width == 1:
            key = block[:, 0] << shift
        else:
            key = _fingerprints(block, buf[1, :len(block)]) & ~low
        keys[lo:lo + len(block)] = key | np.arange(lo, lo + len(block), dtype=np.uint64)
    keys.view(np.int64).sort()  # equal high bits stay together, in position order
    at = (keys & low).view(np.int64)
    keys >>= shift
    head = np.concatenate(([True], keys[1:] != keys[:-1]))
    if width == 1:
        return np.sort(at[head])
    later, first = at[~head], at[head][np.cumsum(head) - 1][~head]  # and their run's head
    differ = [later[:0]]
    for lo in range(0, len(later), step):
        block = later[lo:lo + step]
        same = block_words(block, buf[0]) == block_words(first[lo:lo + step], buf[1])
        differ.append(block[~same.all(axis=1)])
    differ = np.sort(np.concatenate(differ))
    split = [at[head]]
    if len(differ):
        exact = words[row[differ]] & row_words[j[differ]]
        split.append(differ[np.unique(_row_keys(exact), return_index=True)[1]])
    return np.sort(np.concatenate(split))


def _distinct_partitions(sigs: np.ndarray, C: int) -> tuple[np.ndarray, np.ndarray]:
    """The first-seen labels of each distinct partition induced by the
    C-multisets of rows of sigs, and the first such multiset (its owner) as
    a row of ascending indices, both in combinations with replacement order.
    The rows of sigs must be the first-seen labels of distinct partitions,
    as _factor_candidates returns them.  Labels come in the smallest
    unsigned type that holds size - 1.

    Level 1 is the identity: owner (i,) for row i.  Level c extends each
    owner o of level c-1 by every j >= o[-1], takes the candidate's
    partition as the AND of the _same_part_words of o's partition and row
    j, and keeps the first candidate of each distinct word vector.  That
    finds the same owners as a sweep over all C-multisets.  Let a be the
    first multiset of a partition q, and b the first multiset of the
    partition p of a[:-1].  If b != a[:-1], then b < a[:-1], and
    sorted(b + (a[-1],)) induces q (p refined by row a[-1]) and is < a:
    inserting a[-1] >= max(a[:-1]) into both keeps the first position where
    they differ.  So a extends an owner of level c-1.  Those owners are in
    combinations with replacement order, hence so are their extensions, and
    the first candidate of q is a.

    When row 0 is the trivial partition, as form 0 is in _factor_candidates,
    (0,) + o induces o's partition, so each level holds the partitions of
    the one below.  A level that adds none refines them by one row into
    themselves, so no later level adds any, and a first multiset one level
    up starts with 0 (as (0,) + o precedes every multiset without one) and
    has the first owner o as its tail.  So the sweep stops at that level
    and pads its owners with leading zeros.

    A level's candidates are distinct C-multisets of the rows, so there are
    no more of them than the multiset cap of _factor_candidates allows.
    _first_candidates finds the first candidate of each distinct word
    vector for the whole level at once: one sort of fingerprints, then an
    exact comparison of words that splits any run of colliding
    fingerprints.  Only the owners kept get labels, from their owner's by
    _partition_signatures.  Words go in blocks of at most GOWERS_BATCH_CELLS
    cells, counting a row's words or its labels, whichever are more, and
    labels in blocks of at most GOWERS_BATCH_CELLS labels.  The words of a
    level's owners are kept only when another level follows.
    """
    R, size = sigs.shape
    key_type = np.min_scalar_type(size - 1)  # labels are < size
    if C == 0:
        return np.zeros((1, size), dtype=key_type), np.zeros((1, 0), dtype=np.int32)
    owners = np.arange(R, dtype=np.int32)[:, None]
    if C == 1 or R == 1:  # repeating a row does not refine its partition
        return sigs.astype(key_type), np.repeat(owners, C, axis=1)
    row_words = _same_part_words(sigs)
    words, labels = row_words, sigs.astype(key_type)
    step = max(1, GOWERS_BATCH_CELLS // max(size, words.shape[1]))
    label_step = max(1, GOWERS_BATCH_CELLS // size)
    for level in range(2, C + 1):
        last = owners[:, -1]
        ext = R - last  # candidates o + (j,) for j = o[-1], ..., R - 1
        row = np.repeat(np.arange(len(last), dtype=np.int32), ext)
        j = np.arange(len(row), dtype=np.int32)
        j += np.repeat((last - np.cumsum(ext) + ext).astype(np.int32), ext)

        kept = _first_candidates(words, row_words, row, j, step)
        own, js = row[kept], j[kept]
        new = np.empty((len(kept), size), dtype=key_type)
        for lo in range(0, len(kept), label_step):
            at = slice(lo, lo + label_step)
            new[at] = _partition_signatures(labels[own[at]].astype(np.int64) * size + sigs[js[at]])
        labels = new
        saturated = len(kept) == len(owners) and not sigs[0].any()
        owners = np.column_stack([owners[own], js])
        if saturated:
            return labels, np.pad(owners, ((0, 0), (C - level, 0)))
        if level < C:
            words = words[own] & row_words[js]
    return labels, owners


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
    count = len(_distinct_partitions(_factor_candidates(n, d, C)[1], C)[0])
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
    n = _table_dim(size)
    with np.errstate(all="ignore"):  # a product that overflows gives inf or nan, as floats do
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
    their budgets, or whose d exceeds GOWERS_MAX_DEGREE: at n = 0 both
    budgets admit any d, but _gowers_power recurses d deep."""
    if d > GOWERS_MAX_DEGREE:
        raise BudgetExceeded(
            f"U_{d} exceeds the exhaustive degree cap of {GOWERS_MAX_DEGREE}{hint}")
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
            add = _points_mask(ones)
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

def _as_float(v) -> float:
    try:
        return float(v)
    except OverflowError:  # beyond 2^1024: name it by its leading digits
        digits = str(abs(int(v)))
        sign = "-" if v < 0 else ""
        raise ValueError(f"value {sign}{digits[0]}.{digits[1:4]}e{len(digits) - 1} "
                         "is too large for a float") from None


def _residuals(g: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """g - E[g|B] for the partition B of each row of part labels, x-major:
    column r is the residual of row r.  np.bincount adds each part's values
    in ascending x, as conditional_expectation does, so every entry has the
    bits of that per-part loop."""
    rows, size = labels.shape
    bins = np.ascontiguousarray(labels.T) + np.arange(0, rows * size, size)
    sums = np.bincount(bins.ravel(), np.repeat(g, rows), rows * size)
    counts = np.bincount(bins.ravel(), minlength=rows * size)
    return g[:, None] - sums[bins] / counts[bins]


def _walsh_power(at: np.ndarray, k: int) -> np.ndarray:
    """A float64 estimate of _gowers_power(at.T, k), for the columns of the
    x-major at: the k-2 derivative products f(x) f(x + h) of
    _gowers_power, then ||D||_{U2}^4 = sum over xi of D^(xi)^4 for each
    product D by a Walsh-Hadamard transform over x, averaged over the h."""
    size, cols = at.shape
    if k == 1:
        m = np.add.reduce(at, axis=0) / size
        return m * m
    xs = np.arange(size)
    a = at[:, None]  # (x, h-tuple, column)
    for _ in range(k - 2):
        b = np.take(a, xs ^ xs[:, None], axis=0)
        b *= a[:, None]
        a = b.reshape(size, -1, cols)
    if k == 2:
        a = a.copy()
    for i in range(size.bit_length() - 1):  # butterflies over bit i of x, in place
        lo, hi = a.reshape(size >> i + 1, 2, -1).transpose(1, 0, 2)
        lo += hi
        hi *= -2
        hi += lo
    a = a.reshape(-1, cols)
    a /= size
    a *= a
    a *= a
    return np.add.reduce(a, axis=0) / (len(a) // size)


def _near_best(score: np.ndarray, top: float, k: int, size: int) -> np.ndarray:
    """Ascending indices of the rows whose _walsh_power score is not finite
    or within the margin of best_factor_search of the least finite score;
    top is the largest |g - E[g|B]| of all rows (nan makes every row near)."""
    with np.errstate(all="ignore"):
        c = np.ldexp(1.0, k + 2) + 8.0 * k * float(size) ** k
        err = c * np.power(top, np.ldexp(1.0, k)) * 2.0 ** -53 + c * 2.0 ** -1074
        finite = np.isfinite(score)
        low = score[finite].min(initial=np.inf)
        margin = 4 * err + np.ldexp(1.0, k - 49) * (max(low, 0.0) + 2 * err)
        return np.flatnonzero(~finite | ~(score > low + margin))


def best_factor_search(g: Sequence, d: int, C: int) -> tuple[PolynomialFactor, float]:
    """The complexity-<=C degree-<=d factor minimizing the U_{d+1} norm of
    g - E[g|B], by exhaustive sweep over distinct partitions.

    Ties resolve to the first partition in enumeration order, so results
    are deterministic; residuals are exhaustive-mode Gowers norms.

    Every partition gets a fast score by _walsh_power, and only the rows
    that _near_best picks go through _gowers_power, whose values alone are
    compared, in index order, and returned.  With k = d + 1 both kernels
    compute V = ||g - E[g|B]||_{U_k}^{2^k} >= 0 from products of 2^k
    residuals, each at most A = max |g - E[g|B]| over all rows in absolute
    value.  Counting every rounding of the products, transforms and sums,
    with room to spare, puts each value within e = c (2^-53 A^(2^k) +
    2^-1074) of V, where c = 2^(k+2) + 8k 2^(nk) and the second term covers
    underflow, unless c A^(2^k) overflows.  Let m be the least finite score,
    s_i the score of row i and P_i its kernel value.  A row left out has s_i
    > m + 4e + r (max(m, 0) + 2e), with r = 2^(k+4-53).  The row j of least
    score is in, and P_j <= m + 2e, so P_i >= s_i - 2e > P_j + r max(P_j,
    0); as m >= -e, also P_i > e > 0.  If P_j <= 0, row j's residual is 0
    and row i's is positive.  Otherwise P_i > (1 + r) P_j, and the 2^k-th
    root keeps a ratio above 1 + r 2^(-k-1) = 1 + 2^-50, which the two
    roundings of the roots (under an ulp each) cannot close.  Either way row
    i's residual exceeds row j's, which is no less than the best, so row i
    can neither win nor tie.  When c A^(2^k) overflows, e is infinite and
    every row is checked, as is every row whose score is not finite.
    """
    size = len(g)
    n = _table_dim(size)
    if d < 0 or C < 0:  # before the budget check: U_(d+1) recurses down to U_1
        raise ValueError("degree and complexity must be nonnegative")
    garr = np.array([_as_float(v) for v in g])
    _check_gowers_budget(n, d + 1, " (residual Gowers norms)")
    forms, sigs = _factor_candidates(n, d, C)
    partitions, owners = _distinct_partitions(sigs, C)
    k = d + 1
    score = np.empty(len(partitions))
    top = np.float64(0.0)  # the largest |g - E[g|B]|, nan if any is nan
    step = max(1, GOWERS_BATCH_CELLS // size ** max(1, k - 1))
    with np.errstate(all="ignore"):  # a non-finite score only sends its row to the kernel
        for lo in range(0, len(partitions), step):
            block = _residuals(garr, partitions[lo:lo + step])
            top = np.maximum(top, np.abs(block).max())
            score[lo:lo + step] = _walsh_power(block, k)
    best_combo: Sequence[int] = ()
    best_res = math.inf
    near = _near_best(score, top, k, size)
    step = max(1, GOWERS_BATCH_CELLS // size)
    for lo in range(0, len(near), step):
        rows = near[lo:lo + step]
        with np.errstate(all="ignore"):  # an overflow gives inf or nan, which never wins
            powers = _gowers_power(np.ascontiguousarray(_residuals(garr, partitions[rows]).T), k)
        for i, val in zip(rows.tolist(), powers.tolist()):
            resid = max(val, 0.0) ** (1.0 / (1 << k))
            if resid < best_res:
                best_res, best_combo = resid, owners[i]
    polys = _normal_forms(n, d, (int(forms[i]) for i in best_combo))
    return factor_partition(polys, n=n), best_res

