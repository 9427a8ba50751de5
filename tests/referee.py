"""Symbol-level referee for the packed codeword maps.

A codeword of Z2^alpha x R^beta is a tuple of bits and a tuple of ring
scalars, and each map is written from its definition over the symbols:
the (1+u)-constacyclic shift multiplies the wrapped symbol by 1+u in R,
the Gray map and the Lee weight map each symbol on its own, and the
inner product sums products in R.  Only ``from_packed`` and ``to_packed``
know the packed layout, so a test that compares a packed map with its
counterpart here compares two independent implementations.

The package computes on bases; the oracles below materialise word sets
instead, as numpy arrays:
- ``min_distance_scan`` weighs every word of a code, the referee of the
  basis-only minimum distance;
- ``dual_scan`` decides every ambient word, the referee of the dual
  computed as a GF(2) kernel.

The package computes on ints: a GF(2)[x] polynomial is an int and an
R[x] element a (p, q) pair of them.  The referee keeps its own object
arithmetic, written from the definitions: ``BinPoly`` (coefficients,
long division, degree -inf for zero), ``RElem`` (the four scalars of R)
and ``RPoly`` (p + u*q over them).  ``is_irreducible``, ``expand``,
``rpoly_mul_mod`` and ``rpoly_mul_mod_cyclic`` are polynomial oracles
built on them, and ``word_texts`` the text and order of words written
with one ``RElem`` per symbol.

The basis referees keep the former one-vector-at-a-time routes:
``basis_by_insertion`` folds the vectors into an RREF basis by
``basis_insert``, ``null_space_by_leads`` reads a kernel off such a
basis's leading bits and eliminates it again, and
``type_by_five_kernels`` measures the Type parameters with a separate
kernel for each subcode (``cb_dimension`` is log2 |C_b|).

Five referees recompute what the package finds by a shorter argument:
``primary_components_by_kernel`` takes each primary component as the
kernel of f^e(S), ``spanning_minimal_by_removal`` rebuilds the span of
a spanning set once per element left out, ``shift_order_by_basis``
shifts a whole basis until it returns, ``gray_interleaved_by_bits``
builds an interleaved Gray image bit by bit, and
``recover_by_candidate_loop`` finds a dual's generator spec by closing
every valid spec whose generators lie in the dual, in sweep order.

The census referees walk the whole ambient: ``cyclic_submodules`` closes
one word per shift orbit and counts each submodule's generators,
``join_irreducibles`` keeps the cyclic submodules whose generator count
says they are join-irreducible, and ``join_irreducibles_by_containment``
finds the same ones by spanning what lies strictly inside each.
"""

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from z2ucodes.codewords import (
    CodeSet,
    ambient_word,
    basis_insert,
    check_word_width,
    closure_basis,
    enumerate_closure,
    iter_valid_specs,
    reduce_against,
    shift_packed,
    spanning_span,
)
from z2ucodes.duality import _orthogonality_rows
from z2ucodes.gf2poly import factor, poly_pow, x_pow_n_minus_1
from z2ucodes.gray import gray_block_packed
from z2ucodes.structure import CodeType

# ---------------------------------------------------------------------------
# polynomial and ring objects

# The degree of the zero polynomial.
MINUS_INF = float("-inf")


class BinPoly:
    """A polynomial over GF(2); bit i of ``bits`` is the coefficient of x^i."""

    __slots__ = ("bits",)

    def __init__(self, bits: int = 0):
        self.bits = bits

    @property
    def degree(self):
        return self.bits.bit_length() - 1 if self.bits else MINUS_INF

    def is_zero(self) -> bool:
        return self.bits == 0

    def coeff(self, i: int) -> int:
        return (self.bits >> i) & 1

    def __add__(self, other: "BinPoly") -> "BinPoly":
        return BinPoly(self.bits ^ other.bits)

    def __mul__(self, other: "BinPoly") -> "BinPoly":
        """The sum of x^i * other over the terms x^i of self."""
        acc = 0
        for i in range(self.bits.bit_length()):
            if self.coeff(i):
                acc ^= other.bits << i
        return BinPoly(acc)

    def __pow__(self, e: int) -> "BinPoly":
        result = BinPoly(1)
        for _ in range(e):
            result = result * self
        return result

    def __divmod__(self, other: "BinPoly") -> tuple["BinPoly", "BinPoly"]:
        """Long division: take away x^k * other for the leading term of
        the remainder until its degree is below other's."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        q, r = ZERO, self
        while r.degree >= other.degree:
            k = r.degree - other.degree
            q, r = q + BinPoly(1 << k), r + BinPoly(other.bits << k)
        return q, r

    def __mod__(self, other: "BinPoly") -> "BinPoly":
        return divmod(self, other)[1]

    def divides(self, other: "BinPoly") -> bool:
        return not self.is_zero() and (other % self).is_zero()

    def __eq__(self, other):
        return isinstance(other, BinPoly) and self.bits == other.bits

    def __str__(self):
        """Ascending terms 1, x, x^i joined by +; 0 for zero."""
        terms = [
            "1" if i == 0 else ("x" if i == 1 else f"x^{i}")
            for i in range(self.bits.bit_length())
            if self.coeff(i)
        ]
        return "+".join(terms) or "0"


ZERO = BinPoly(0)
ONE = BinPoly(1)


class RElem:
    """p + u*q in R = F2 + uF2, u^2 = 0, from the low bits of p and q.
    Each of the four values is one object."""

    __slots__ = ("p", "q")
    _values: dict = {}

    def __new__(cls, p: int, q: int):
        key = (p & 1, q & 1)
        if key not in cls._values:
            elem = cls._values[key] = super().__new__(cls)
            elem.p, elem.q = key
        return cls._values[key]

    def __add__(self, other: "RElem") -> "RElem":
        return RElem(self.p ^ other.p, self.q ^ other.q)

    def __mul__(self, other: "RElem") -> "RElem":
        # (p1 + u q1)(p2 + u q2) = p1 p2 + u (p1 q2 + q1 p2)
        return RElem(self.p & other.p, (self.p & other.q) ^ (self.q & other.p))

    def __str__(self):
        return SYMBOLS[self]


R_ZERO = RElem(0, 0)
R_ONE = RElem(1, 0)
R_U = RElem(0, 1)
R_ONE_U = RElem(1, 1)
# The symbols in text order 0 < 1 < u < 1+u, with their names.
SYMBOLS = {R_ZERO: "0", R_ONE: "1", R_U: "u", R_ONE_U: "1+u"}
RELEMS = tuple(SYMBOLS)
LEE = {R_ZERO: 0, R_ONE: 1, R_U: 2, R_ONE_U: 1}
ORDER = {e: i for i, e in enumerate(SYMBOLS)}


class RPoly(NamedTuple):
    """p(x) + u*q(x) over R, from two GF(2) polynomials."""

    p: BinPoly = ZERO
    q: BinPoly = ZERO

    @property
    def degree(self):
        return max(self.p.degree, self.q.degree)

    def coeff(self, i: int) -> RElem:
        return RElem(self.p.coeff(i), self.q.coeff(i))

    def __add__(self, other: "RPoly") -> "RPoly":
        return RPoly(self.p + other.p, self.q + other.q)

    def __mul__(self, other: "RPoly") -> "RPoly":
        return RPoly(self.p * other.p, self.p * other.q + self.q * other.p)

    def pair(self) -> tuple[int, int]:
        """The package's form of the element: the (p, q) pair of ints."""
        return self.p.bits, self.q.bits


def rpoly(pair: tuple[int, int]) -> RPoly:
    """The RPoly of the package's (p, q) pair."""
    return RPoly(BinPoly(pair[0]), BinPoly(pair[1]))


def _rpoly_mod(d: RPoly, modulus: RPoly) -> RPoly:
    """d modulo a monic modulus, by long division in R[x]."""
    while d.degree >= modulus.degree:
        k = d.degree - modulus.degree
        lead = d.coeff(d.degree)
        d = d + RPoly(BinPoly(lead.p << k), BinPoly(lead.q << k)) * modulus
    return d


def rpoly_mul_mod(a: RPoly, b: RPoly, beta: int) -> RPoly:
    """Product in R[x]/(x^beta - 1 - u) = R[x]/(x^beta + 1 + u)."""
    if beta < 1:
        raise ValueError("beta must be >= 1")
    return _rpoly_mod(a * b, RPoly(BinPoly(1 << beta | 1), ONE))


def rpoly_mul_mod_cyclic(a: RPoly, b: RPoly, beta: int) -> RPoly:
    """Product in R[x]/(x^beta - 1), the domain ring of the mu map."""
    if beta < 1:
        raise ValueError("beta must be >= 1")
    return _rpoly_mod(a * b, RPoly(BinPoly(1 << beta | 1)))


class Ambient(NamedTuple):
    """(first, second) of Z2[x]/(x^alpha - 1) x R[x]/(x^beta - 1 - u)."""

    first: BinPoly
    second: RPoly
    alpha: int
    beta: int

    def ints(self) -> tuple[int, tuple[int, int], int, int]:
        """The arguments of ``codewords.ambient_word``."""
        return self.first.bits, self.second.pair(), self.alpha, self.beta


@dataclass(frozen=True)
class Codeword:
    """Element of Z2^alpha x R^beta: binary bits a and ring symbols b."""

    a: tuple[int, ...]
    b: tuple[RElem, ...]

    @property
    def alpha(self) -> int:
        return len(self.a)

    @property
    def beta(self) -> int:
        return len(self.b)

    @classmethod
    def zero(cls, alpha: int, beta: int) -> "Codeword":
        return cls((0,) * alpha, (R_ZERO,) * beta)

    @classmethod
    def from_packed(cls, w: int, alpha: int, beta: int) -> "Codeword":
        """Bits [0, alpha) are a; symbol j is p + u*q with p at bit
        alpha + j and q at bit alpha + beta + j."""
        a = tuple((w >> i) & 1 for i in range(alpha))
        b = tuple(RElem(w >> (alpha + j), w >> (alpha + beta + j)) for j in range(beta))
        return cls(a, b)

    def to_packed(self) -> int:
        alpha, beta = self.alpha, self.beta
        w = sum(bit << i for i, bit in enumerate(self.a))
        for j, e in enumerate(self.b):
            w |= (e.p << (alpha + j)) | (e.q << (alpha + beta + j))
        return w

    @classmethod
    def from_ambient(cls, elem: Ambient) -> "Codeword":
        a = tuple(elem.first.coeff(i) for i in range(elem.alpha))
        return cls(a, tuple(elem.second.coeff(j) for j in range(elem.beta)))

    def to_ambient(self) -> Ambient:
        first = BinPoly(sum(bit << i for i, bit in enumerate(self.a)))
        p = BinPoly(sum(e.p << j for j, e in enumerate(self.b)))
        q = BinPoly(sum(e.q << j for j, e in enumerate(self.b)))
        return Ambient(first, RPoly(p, q), self.alpha, self.beta)

    def __add__(self, other: "Codeword") -> "Codeword":
        _same_lengths(self, other)
        return Codeword(
            tuple(x ^ y for x, y in zip(self.a, other.a)),
            tuple(x + y for x, y in zip(self.b, other.b)),
        )

    def sort_key(self):
        """The bits, then the symbols ordered 0 < 1 < u < 1+u."""
        return (self.a, tuple(ORDER[e] for e in self.b))

    def __str__(self):
        return "".join(map(str, self.a)) + "|" + ",".join(SYMBOLS[e] for e in self.b)


def _same_lengths(c1: Codeword, c2: Codeword) -> None:
    if (c1.alpha, c1.beta) != (c2.alpha, c2.beta):
        raise ValueError("codeword length mismatch")


def words(code) -> list[Codeword]:
    """Every word of a code (anything with alpha, beta and packed()), in
    ``sort_key`` order."""
    found = [Codeword.from_packed(int(w), code.alpha, code.beta) for w in code.packed()]
    return sorted(found, key=Codeword.sort_key)


def shift(c: Codeword) -> Codeword:
    """Rotate both blocks one step right; the wrapped symbol is multiplied
    by 1+u."""
    b = (c.b[-1] * R_ONE_U,) + c.b[:-1] if c.b else c.b
    return Codeword(c.a[-1:] + c.a[:-1], b)


def star_mul(d: RPoly, c: Ambient) -> Ambient:
    """d(x) * (a(x), b(x)) = (dbar(x) a(x), d(x) b(x)) in the ambient
    module, where dbar = d mod u is the p part."""
    first = (d.p * c.first) % BinPoly(1 << c.alpha | 1)
    return Ambient(first, rpoly_mul_mod(d, c.second, c.beta), c.alpha, c.beta)


def gray_symbol(e: RElem) -> tuple[int, int]:
    """x + u*y -> (y, x + y)."""
    return (e.q, e.p ^ e.q)


def gray_map(c: Codeword, layout: str = "interleaved") -> tuple[int, ...]:
    """The binary image: the bits a, then the symbol images, each pair
    adjacent (interleaved) or all first bits before all second bits
    (block)."""
    pairs = [gray_symbol(e) for e in c.b]
    if layout == "interleaved":
        return c.a + tuple(bit for pair in pairs for bit in pair)
    if layout == "block":
        return c.a + tuple(y for y, _ in pairs) + tuple(xy for _, xy in pairs)
    raise ValueError(f"unknown layout {layout!r}")


def gray_interleaved_by_bits(w, alpha: int, beta: int):
    """Referee of ``gray.gray_interleaved_packed``: the interleaved image
    built one symbol at a time, q_j at bit alpha+2j and p_j ^ q_j at bit
    alpha+2j+1."""
    out = w & ((1 << alpha) - 1)
    for j in range(beta):
        y = (w >> (alpha + beta + j)) & 1
        xy = ((w >> (alpha + j)) & 1) ^ y
        out = out | (y << (alpha + 2 * j)) | (xy << (alpha + 2 * j + 1))
    return out


def lee_weight(c: Codeword) -> int:
    return sum(c.a) + sum(LEE[e] for e in c.b)


def inner_product(c1: Codeword, c2: Codeword) -> RElem:
    """u * sum(a_i d_i) + sum(b_j e_j), valued in R."""
    _same_lengths(c1, c2)
    total = R_U if sum(x & y for x, y in zip(c1.a, c2.a)) & 1 else R_ZERO
    for x, y in zip(c1.b, c2.b):
        total = total + x * y
    return total


def word_array(code) -> np.ndarray:
    """The words of a code as an ascending int64 array."""
    return np.array(code.packed(), dtype=np.int64)


def min_distance_scan(code) -> int:
    """Minimum nonzero Lee weight over all 2^rank words of a code of
    rank >= 1: the Hamming weights of their block-layout Gray images."""
    # packed() is ascending, so the zero word comes first.
    imgs = gray_block_packed(word_array(code)[1:], code.alpha, code.beta)
    return int(np.bitwise_count(imgs).min())


# ---------------------------------------------------------------------------
# the ambient dual scan


def _xor_table(vectors: Sequence[int]) -> np.ndarray:
    """Entry i is the XOR of vectors[j] over the set bits j of i, as an
    int64 array, so that syndromes and blocks compare elementwise."""
    table = np.zeros(1 << len(vectors), dtype=np.int64)
    for j, v in enumerate(vectors):
        half = 1 << j
        np.bitwise_xor(table[:half], v, out=table[half : 2 * half])
    return table


def _syndrome_table(rows: Sequence[int], shift: int, nbits: int) -> np.ndarray:
    """Syndromes of the words h << shift for h in [0, 2^nbits): bit i of
    an entry is the parity of that word against rows[i].

    Column j, the syndrome of the word 1 << (shift + j), collects bit i
    from each row i that has bit shift + j set; one pass over the rows'
    set bits builds every column.
    """
    columns = [0] * nbits
    for i, r in enumerate(rows):
        r = (r >> shift) & ((1 << nbits) - 1)
        while r:
            j = r.bit_length() - 1
            columns[j] |= 1 << i
            r ^= 1 << j
    return _xor_table(columns)


def _runs(s_hi: np.ndarray, s_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The low table's stable sort order, and for each hi the first index
    and the length of its run of equal syndromes in the sorted table."""
    order = np.argsort(s_lo, kind="stable")
    sorted_lo = s_lo[order]
    first = np.searchsorted(sorted_lo, s_hi, side="left")
    counts = np.searchsorted(sorted_lo, s_hi, side="right") - first
    return order, first, counts


def _write_runs(order: np.ndarray, first: np.ndarray, counts: np.ndarray, low: int) -> np.ndarray:
    """(hi << low) | order[first[hi] + k] for every hi and k < counts[hi],
    ascending: the join's words, from the runs that :func:`_runs` found.

    ``_write_runs(*_runs(s_hi, s_lo), low)`` is the whole equi-join:
    (hi << low) | lo for every pair with s_hi[hi] == s_lo[lo], ascending.
    """
    # Word k of hi's run sits at start[hi] + k; its low half is order[first[hi] + k].
    start = np.cumsum(counts) - counts
    words = np.repeat(first - start, counts)
    words += np.arange(len(words))
    np.take(order, words, out=words)
    words |= np.repeat(np.arange(len(first)) << low, counts)
    return words


# The dual scan writes out and checks the dual in aligned blocks of
# 2^_BLOCK_BITS ascending positions, 256 KB of int64 words each.
_BLOCK_BITS = 15


def dual_scan(code: CodeSet) -> CodeSet:
    """All ambient words orthogonal to every codeword, by deciding every
    ambient word.

    Each basis vector contributes two parity conditions, the unreduced
    masks of ``duality._orthogonality_rows``: at most 2n rows for
    n = alpha + 2*beta, so a syndrome fits in an int64 up to n = 31.
    The syndrome is linear, so the word hi|lo is in the dual exactly
    when S_hi[hi] == S_lo[lo]: the dual is the equi-join of the two half
    tables.

    The join's run lengths give the dual's size and where each high
    half's words sit in ascending order, so the words at positions 2^i,
    which span a sorted XOR subgroup, are read without writing out the
    dual.  The runs are then written out one aligned block of
    2^_BLOCK_BITS positions at a time, and every block must equal the
    same positions of the span of that basis; otherwise the words are
    not closed under addition and ValueError is raised.  Memory is the
    two half tables plus one block; time grows with the dual's size.
    """
    alpha, beta = code.alpha, code.beta
    nbits = alpha + 2 * beta
    check_word_width(nbits)
    rows = _orthogonality_rows(code)
    low = nbits // 2
    s_lo = _syndrome_table(rows, 0, low)
    s_hi = _syndrome_table(rows, low, nbits - low)
    order, first, counts = _runs(s_hi, s_lo)
    ends = np.cumsum(counts)
    start = ends - counts
    size = int(ends[-1])
    if size & (size - 1):
        raise ValueError("not closed under addition: size is not a power of two")

    def runs_at(positions: np.ndarray) -> np.ndarray:
        """The hi whose run holds the word at each ascending position."""
        return np.searchsorted(ends, positions, side="right")

    positions = 1 << np.arange(size.bit_length() - 1)
    his = runs_at(positions)
    basis: list[int] = []
    for word in (his << low | order[first[his] + positions - start[his]]).tolist():
        basis_insert(basis, word)
    ascending = basis[::-1]
    width = min(len(ascending), _BLOCK_BITS)
    inner = _xor_table(ascending[:width])
    heads = np.arange(size >> width) << width
    blocks = zip(heads.tolist(), runs_at(heads).tolist(), runs_at(heads + len(inner) - 1).tolist())
    for outer, (head, h0, h_last) in zip(_xor_table(ascending[width:]), blocks):
        covering = slice(h0, h_last + 1)
        words = _write_runs(order, first[covering], counts[covering], low)
        words += h0 << low
        skip = head - int(start[h0])
        if not np.array_equal(words[skip : skip + len(inner)], inner ^ outer):
            raise ValueError("not closed under addition")
    return CodeSet(alpha, beta, tuple(basis))


# ---------------------------------------------------------------------------
# polynomial oracles


def is_irreducible(bits: int) -> bool:
    """Exhaustive trial division by every polynomial of degree 1 up to
    half the degree."""
    p = BinPoly(bits)
    if p.degree < 1:
        return False
    return not any(BinPoly(cand).divides(p) for cand in range(2, 1 << (p.degree // 2 + 1)))


def expand(factorization) -> int:
    """The product of the (factor, multiplicity) pairs, as an int."""
    result = ONE
    for f, m in factorization:
        result = result * BinPoly(f) ** m
    return result.bits


def word_texts(words, alpha: int, beta: int) -> list[str]:
    """Referee of ``codewords.word_texts``: each word as a (bits list,
    symbol-order list, text) row, the rows sorted as tuples."""
    rows = []
    for w in map(int, words):
        bits = [(w >> i) & 1 for i in range(alpha)]
        symbols = [RElem(w >> (alpha + j), w >> (alpha + beta + j)) for j in range(beta)]
        text = "".join(map(str, bits)) + "|" + ",".join(map(str, symbols))
        rows.append((bits, [ORDER[e] for e in symbols], text))
    return [text for _, _, text in sorted(rows)]


# ---------------------------------------------------------------------------
# linear-algebra referees


def basis_by_insertion(vectors) -> tuple[int, ...]:
    """Referee of ``codewords.rref``: the vectors folded one at a time
    into a fully reduced RREF basis by ``basis_insert``."""
    basis: list[int] = []
    for v in vectors:
        basis_insert(basis, int(v))
    return tuple(basis)


def null_space_by_leads(vectors, nbits: int) -> tuple[int, ...]:
    """Referee of ``codewords.null_space``: the vectors folded into a
    fully reduced RREF basis, then for each bit j that is no row's
    leading bit the word 1 << j plus the leads of the rows with bit j
    set, and those words eliminated again into canonical form."""
    rows = basis_by_insertion(vectors)
    pivot_bits = 0
    for r in rows:
        pivot_bits |= 1 << (r.bit_length() - 1)
    kernel = []
    for j in range(nbits):
        if (pivot_bits >> j) & 1:
            continue
        v = 1 << j
        for r in rows:
            if (r & v).bit_count() & 1:
                v |= 1 << (r.bit_length() - 1)
        kernel.append(v)
    return basis_by_insertion(kernel)


def kernel_by_insertion(code: CodeSet, mask: int) -> CodeSet:
    """The codewords with no bit in mask: the basis eliminated with the
    masked bits lifted above the word, one vector at a time, and the
    rows left with no masked bit eliminated again."""
    n = code.n
    rows = basis_by_insertion((b & ~mask) | (b & mask) << n for b in code.basis)
    return CodeSet(code.alpha, code.beta, basis_by_insertion(r for r in rows if not r >> n))


def cb_dimension(code: CodeSet) -> int:
    """log2 |C_b|, the looser reading of k0: the rank of the codewords
    whose every second-block symbol lies in {0, u}."""
    return kernel_by_insertion(code, ((1 << code.beta) - 1) << code.alpha).rank


def type_by_five_kernels(code: CodeSet) -> CodeType:
    """Referee of ``structure.type_from_enumeration``: each rank from its
    own kernel, C_b and its binary-free part, the Y-only subcode and its
    1-component-free part, and the X-only subcode."""
    alpha, beta = code.alpha, code.beta
    amask = (1 << alpha) - 1
    pmask = ((1 << beta) - 1) << alpha
    ymask = ((1 << (2 * beta)) - 1) << alpha
    cb = kernel_by_insertion(code, pmask)
    k2 = code.rank - cb.rank
    k1 = code.rank - 2 * k2
    k0 = cb.rank - kernel_by_insertion(cb, amask).rank
    k0p = kernel_by_insertion(code, ymask).rank
    yonly = kernel_by_insertion(code, amask)
    k2p = yonly.rank - kernel_by_insertion(yonly, pmask).rank
    return CodeType(alpha, beta, k0, k1, k2, k0p, k0 - k0p, k2p, k2 - k2p)


def primary_components_by_kernel(alpha: int, beta: int) -> list[tuple[int, ...]]:
    """Referee of ``structure._primary_components``: each V_f as the
    kernel of f^e(S), with S the shift and e the larger of f's
    multiplicity in x^alpha - 1 and twice its multiplicity in
    x^beta - 1, since S is annihilated by x^alpha - 1 on the binary
    block and by (x^beta - 1)^2 on the R block."""
    nbits = alpha + 2 * beta
    exponent: dict[int, int] = {}
    if alpha:
        for f, mult in factor(x_pow_n_minus_1(alpha)):
            exponent[f] = mult
    if beta:
        for f, mult in factor(x_pow_n_minus_1(beta)):
            exponent[f] = max(exponent.get(f, 0), 2 * mult)
    powers = [poly_pow(f, exponent[f]) for f in sorted(exponent)]
    # vectors[j] is S^k applied to 1 << j, and images[c][j] sums these
    # over the set bits k of component c's f^e: one pass of shifts serves
    # every component.
    images = [[0] * nbits for _ in powers]
    vectors = [1 << j for j in range(nbits)]
    for k in range(max(powers, default=0).bit_length()):
        for power, image in zip(powers, images):
            if power >> k & 1:
                image[:] = [m ^ v for m, v in zip(image, vectors)]
        vectors = [shift_packed(v, alpha, beta) for v in vectors]
    components = []
    for image in images:
        # Row i holds bit i of every column j at bit j: the transpose, read
        # off the columns' binary texts, last column first.
        columns = (format(m, f"0{nbits}b") for m in reversed(image))
        rows = [int("".join(bits), 2) for bits in zip(*columns)]
        components.append(null_space_by_leads(rows, nbits))
    return components


def spanning_minimal_by_removal(elements, alpha: int, beta: int) -> bool:
    """Referee of ``codewords.spanning_minimal``: whether leaving out any one
    element of the family shrinks its span, by rebuilding the span of
    the family less each element in turn."""
    rank = spanning_span(elements, alpha, beta).rank
    for skip in range(len(elements)):
        reduced = [el for i, el in enumerate(elements) if i != skip]
        if spanning_span(reduced, alpha, beta).rank >= rank:
            return False
    return True


def shift_order_by_basis(code) -> int:
    """Referee of ``report._shift_order``: the least k > 0 with S^k the
    identity on the code, found by shifting every basis vector until the
    whole basis returns."""
    order = 1
    base = list(code.basis)
    current = [shift_packed(b, code.alpha, code.beta) for b in base]
    # The shift permutes the finite ambient space, so the basis returns.
    while current != base:
        current = [shift_packed(v, code.alpha, code.beta) for v in current]
        order += 1
    return order


def _close_spec(spec):
    return enumerate_closure(spec.generators(), spec.alpha, spec.beta)


def recover_by_candidate_loop(dual, cases, close=_close_spec):
    """Referee of ``duality.recover_spec``: every valid spec in sweep
    order, case by case, tested one by one for both generators lying in
    the dual, and closed with ``close`` (by default the closure oracle,
    charged no budget) only if they do; the first whose closure is the
    dual, or None."""
    alpha, beta = dual.alpha, dual.beta

    def rem(first, second):
        return reduce_against(ambient_word(first, second, alpha, beta), dual.basis)

    for case in cases:
        for cand in iter_valid_specs(alpha, beta, (case,)):
            if rem(cand.a, (0, 0)) or rem(cand.l, (0, 0)) != rem(0, cand.y_generator()):
                continue
            if close(cand).basis == dual.basis:
                return cand
    return None


# ---------------------------------------------------------------------------
# census referees


def cyclic_submodules(alpha: int, beta: int) -> dict[tuple[int, ...], list[int]]:
    """Every distinct cyclic submodule of the whole ambient, as {RREF
    basis: [least word that generates it, number of words that do]}, in
    ascending order of that word.  Closes one word per shift orbit and
    adds up the orbit sizes per submodule: the shift is a unit, so the
    words of an orbit generate the same submodule."""
    nbits = alpha + 2 * beta
    done = bytearray(1 << nbits)
    modules: dict[tuple[int, ...], list[int]] = {}
    for w in range(1, 1 << nbits):
        if not done[w]:
            entry = modules.setdefault(closure_basis([w], alpha, beta), [w, 0])
            orbit = w
            while not done[orbit]:
                done[orbit] = 1
                entry[1] += 1
                orbit = shift_packed(orbit, alpha, beta)
    return modules


def join_irreducibles(alpha: int, beta: int) -> list[tuple[int, tuple[int, ...]]]:
    """The join-irreducible submodules of the whole ambient, as (least
    word, RREF basis) pairs in ascending order of rank.

    Every join-irreducible is cyclic (a module is the sum of the cyclic
    submodules of its elements), so it is one of ``cyclic_submodules``.
    A cyclic submodule C is join-irreducible exactly when |C| minus its
    number of generators is a power of two.  C = A w is isomorphic to the
    ring B = A / Ann(w), A = F2[x, u] / (u^2) acting on the ambient
    module, and the words that generate C are the units of B.  C is
    join-irreducible when it has a unique maximal submodule, that is
    when the finite commutative ring B is local.  A local B with residue
    field of 2^d elements has |B| / 2^d non-units, a power of two.  A
    product of k >= 2 local rings with residue degrees d_i, D = sum d_i,
    has |B| (2^D - prod(2^d_i - 1)) / 2^D non-units, whose odd factor
    2^D - prod(2^d_i - 1) is at least 3.
    """
    irreducible = [
        (w, basis)
        for basis, (w, gens) in cyclic_submodules(alpha, beta).items()
        if ((1 << len(basis)) - gens).bit_count() == 1
    ]
    return sorted(irreducible, key=lambda c: len(c[1]))


def join_irreducibles_by_containment(
    ranked: Sequence[tuple[int, tuple[int, ...]]],
) -> list[tuple[int, tuple[int, ...]]]:
    """The members of ``ranked``, (word, RREF basis) pairs of cyclic
    submodules in ascending order of rank, that the members strictly
    inside them do not span.  C_i lies in C_j exactly when the word of
    C_i reduces to 0 against the basis of C_j.  These are the
    join-irreducibles when ``ranked`` holds every cyclic submodule that
    lies inside any of its members."""
    irreducible = []
    for i, (w, basis) in enumerate(ranked):
        inside: list[int] = []
        for v, smaller in ranked[:i]:
            if len(smaller) < len(basis) and reduce_against(v, basis) == 0:
                for g in smaller:
                    basis_insert(inside, g)
        if len(inside) < len(basis):
            irreducible.append((w, basis))
    return irreducible
