"""Packed codewords of Z2^alpha x R^beta, the (1+u)-constacyclic shift,
generator-case construction, minimal spanning sets, and the exhaustive
closure oracle.

Packed representation
---------------------
A codeword is packed into one integer: bits [0, alpha) hold the binary
block, bits [alpha, alpha+beta) the 1-components (p) of the R block and
bits [alpha+beta, alpha+2*beta) the u-components (q).  Word addition
is then XOR, and both the constacyclic shift and multiplication by u are
GF(2)-linear maps on packed words, which is what makes the exhaustive
oracles fast: a code is an XOR-subgroup invariant under the two maps.

The closure oracle below spans shift chains of the generators and of
their u-multiples; it never consults the spanning-set formulas, so it
serves as an independent referee for every counting formula in the
package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .gf2poly import (
    divisors_of_xn_minus_1,
    parse_poly,
    poly_divmod,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_text,
    x_pow_n_minus_1,
    xn_minus_1_mod,
)
from .ringr import reduce_rpoly

DEFAULT_BUDGET = 1 << 24
CENSUS_BUDGET = 1 << 16
# The widest code whose words may be listed or whose dual is computed.
# The commands refuse wider codes with exit status 2: without the limit, a
# raised budget would let `gray` on a 65-bit code list 2^32 words.  It stays
# until budgets are charged where words are materialised.
WORD_BITS = 63


class BudgetExceededError(RuntimeError):
    """Ambient space larger than the configured enumeration budget."""


class SpecValidationError(ValueError):
    """A CodeSpec violates its structural constraints."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class SpecParseError(ValueError):
    """A spec file does not match the flat key-value format.

    ``line`` is None when the fault is on no line, such as a missing key.
    """

    def __init__(self, message: str, line: "int | None" = None, column: int = 1):
        super().__init__(message if line is None else f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def check_budget(nbits: int, budget: int) -> None:
    """Refuse to enumerate an ambient space of 2^nbits words past the budget."""
    if budget < 1 or nbits >= budget.bit_length():
        raise BudgetExceededError(f"ambient size 2^{nbits} exceeds budget {budget}")


def check_word_width(nbits: int) -> None:
    """Refuse to materialise words wider than :data:`WORD_BITS`."""
    if nbits > WORD_BITS:
        raise BudgetExceededError(
            f"word length {nbits} bits exceeds the {WORD_BITS}-bit packed-word limit"
        )


# ---------------------------------------------------------------------------
# GF(2)-linear maps on packed words


def shift_packed(w, alpha: int, beta: int):
    """(1+u)-constacyclic shift on packed words."""
    amask = (1 << alpha) - 1
    bmask = (1 << beta) - 1
    a = w & amask
    p = (w >> alpha) & bmask
    q = (w >> (alpha + beta)) & bmask
    if alpha:
        a = ((a << 1) | (a >> (alpha - 1))) & amask
    if beta:
        pw = (p >> (beta - 1)) & 1
        qw = (q >> (beta - 1)) & 1
        p = ((p << 1) & bmask) | pw
        q = ((q << 1) & bmask) | (pw ^ qw)
    return a | (p << alpha) | (q << (alpha + beta))


def ambient_word(first: int, second: tuple[int, int], alpha: int, beta: int) -> int:
    """The packed word of (first, second), a polynomial and a (p, q) pair,
    each reduced in its quotient ring."""
    p, q = reduce_rpoly(second, beta)
    return poly_mod(first, x_pow_n_minus_1(alpha)) | p << alpha | q << (alpha + beta)


def umul_packed(w, alpha: int, beta: int):
    """Scalar multiplication by u on packed words: (a, p, q) -> (0, 0, p)."""
    bmask = (1 << beta) - 1
    p = (w >> alpha) & bmask
    return p << (alpha + beta)


# ---------------------------------------------------------------------------
# GF(2) basis bookkeeping (reduced row echelon over packed words)


def reduce_against(v: int, basis: Sequence[int]) -> int:
    """Reduce v against a basis sorted by descending leading bit."""
    for b in basis:
        if v ^ b < v:
            v ^= b
    return v


def basis_insert(basis: list[int], v: int) -> bool:
    """Insert v into an RREF basis; returns True if the rank grew."""
    v = reduce_against(v, basis)
    if v == 0:
        return False
    lead = 1 << (v.bit_length() - 1)
    for i, b in enumerate(basis):
        if b & lead:
            basis[i] = b ^ v
    basis.append(v)
    basis.sort(reverse=True)
    return True


def null_space(rows: Sequence[int], nbits: int) -> list[int]:
    """A basis of the nbits-bit words with even parity against every row
    of a fully reduced RREF basis: for each bit j that is no row's
    pivot, the word 1 << j plus the pivots of the rows with bit j set."""
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
    return kernel


def xor_table(vectors: Sequence[int]) -> list[int]:
    """Entry i is the XOR of vectors[j] over the set bits j of i."""
    table = [0]
    for v in vectors:
        table += [t ^ v for t in table]
    return table


def span_array(basis: Sequence[int], nbits: int) -> list[int]:
    """All XOR combinations of a fully reduced RREF basis of nbits-bit
    words, ascending.

    Taken in ascending order of leading bit, the XOR table is already
    strictly ascending: for indices i < i' whose highest differing bit is
    j, the vectors below j have no bit at or above lead(b_j) and the
    vectors above j have a 0 there, so the two words agree above
    lead(b_j) and only word i' has a 1 at it.  A basis with leads that
    do not strictly descend, with a bit at another vector's lead, or
    with a vector wider than nbits is refused with ValueError.
    """
    check_word_width(nbits)
    basis = [int(b) for b in basis]
    leads = [1 << (b.bit_length() - 1) if b > 0 else 0 for b in basis]
    pivots = sum(leads)
    if (
        0 in leads
        or any(hi <= lo for hi, lo in zip(leads, leads[1:]))
        or any(b & pivots != lead for b, lead in zip(basis, leads))
    ):
        raise ValueError("basis is not in fully reduced row echelon form")
    if pivots >> nbits:
        raise ValueError(f"basis vector wider than {nbits} bits")
    return xor_table(basis[::-1])


def basis_from_group_array(words: Sequence[int]) -> list[int]:
    """Extract a basis from a sorted XOR-subgroup list.

    In a numerically sorted subgroup the element at index 2^i is the i-th
    vector of its RREF basis, so the span of these elements equals the
    list exactly when the list is a subgroup.
    """
    k = len(words).bit_length() - 1
    basis: list[int] = []
    for i in range(k):
        basis_insert(basis, words[1 << i])
    return basis


# ---------------------------------------------------------------------------
# closure oracle


def closure_basis(packed_gens: Iterable[int], alpha: int, beta: int) -> tuple[int, ...]:
    """Smallest XOR-span containing the generators and invariant under
    the shift and u-multiplication maps (= the generated submodule), as
    its canonical fully reduced RREF basis.

    The submodule is the span of the shift iterates of the generators
    and of their u-multiples: u*u = 0 and u commutes with the shift, so
    no other words are needed.  Each of these words starts a chain
    v, shift(v), shift^2(v), ... that stops at the first iterate already
    in the span: a shift-invariant span plus such a chain is again
    shift-invariant.  The chains are kept in echelon form, one row per
    leading bit, and fully reduced once at the end.
    """
    gens = [int(g) for g in packed_gens]
    gens += [umul_packed(g, alpha, beta) for g in gens]
    rows: dict[int, int] = {}
    for v in gens:
        while True:
            w = v
            while w and (lead := w.bit_length() - 1) in rows:
                w ^= rows[lead]
            if not w:
                break
            rows[lead] = w
            v = shift_packed(v, alpha, beta)
    basis: list[int] = []
    for lead in sorted(rows):
        basis.append(reduce_against(rows[lead], basis))
    return tuple(basis[::-1])


# ---------------------------------------------------------------------------
# explicit code sets


class CodeSet:
    """A GF(2)-subspace of packed words: a width and a canonical RREF basis.

    The width is split as alpha binary bits plus beta R symbols, so that
    (alpha, beta) is a view of the same subspace.  A code of
    Z2^alpha x R^beta is a CodeSet closed under shift and u-scaling; a
    binary linear code of length n is ``CodeSet(n, 0, basis)``, and
    alpha == 0 holds punctured second-block codes.  The explicit word
    list is materialized lazily, only for the oracles that need it.
    """

    __slots__ = ("alpha", "beta", "basis", "_packed")

    def __init__(self, alpha: int, beta: int, basis: tuple[int, ...]):
        self.alpha = alpha
        self.beta = beta
        self.basis = basis
        self._packed = None

    @classmethod
    def from_basis(cls, alpha: int, beta: int, vectors: Iterable[int]) -> "CodeSet":
        basis: list[int] = []
        for v in vectors:
            basis_insert(basis, int(v))
        return cls(alpha, beta, tuple(basis))

    @classmethod
    def from_packed_words(cls, alpha: int, beta: int, words: Iterable[int]) -> "CodeSet":
        """Build from explicit words, in any order and with repeats,
        verifying closure under addition."""
        words = sorted(set(map(int, words)))
        n = len(words)
        if n == 0 or words[0] != 0:
            raise ValueError("a code set must contain the zero word")
        if n & (n - 1):
            raise ValueError("not closed under addition: size is not a power of two")
        basis = basis_from_group_array(words)
        if span_array(basis, alpha + 2 * beta) != words:
            raise ValueError("not closed under addition")
        return cls(alpha, beta, tuple(basis))

    @property
    def n(self) -> int:
        """Word length alpha + 2*beta in bits."""
        return self.alpha + 2 * self.beta

    @property
    def rank(self) -> int:
        return len(self.basis)

    def __len__(self) -> int:
        return 1 << len(self.basis)

    def packed(self) -> list[int]:
        """Ascending list of all packed words (cached)."""
        if self._packed is None:
            self._packed = span_array(self.basis, self.n)
        return self._packed

    def contains_packed(self, w: int) -> bool:
        return reduce_against(int(w), self.basis) == 0

    def __eq__(self, other):
        return (
            isinstance(other, CodeSet)
            and self.alpha == other.alpha
            and self.beta == other.beta
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.alpha, self.beta, self.basis))

    def __repr__(self):
        return f"<CodeSet alpha={self.alpha} beta={self.beta} size={1 << self.rank}>"


BinaryCode = CodeSet  # a binary code of length n is CodeSet(n, 0, basis)


# The text of a symbol, keyed by its (1-component, u-component) digits.
_SYMBOL_TEXTS = {("0", "0"): "0", ("1", "0"): "1", ("0", "1"): "u", ("1", "1"): "1+u"}


def word_texts(words: Iterable[int], alpha: int, beta: int) -> list[str]:
    """Packed words as text such as ``01|0,1+u,u``: the binary bits from
    bit 0, then the R symbols.  The texts are sorted by the binary bits
    lexicographically, then by the symbols, ordered 0 < 1 < u < 1+u.

    A word's digits are read from bit 0 off one binary text of the word.
    Its sort key is one int whose base-4 digits, most significant first,
    are the binary bits and then the symbols' order indices p + 2q; the
    leading 1s only add the same constant to every key.
    """
    split = alpha + beta
    top = 1 << (split + beta)
    rows = []
    for w in map(int, words):
        d = format(w | top, "b")[:0:-1]
        key = int("1" + d[:split], 4) + 2 * int("1" + d[split:], 4)
        symbols = map(_SYMBOL_TEXTS.__getitem__, zip(d[alpha:split], d[split:]))
        rows.append((key, d[:alpha] + "|" + ",".join(symbols)))
    rows.sort()
    return [text for _, text in rows]


# ---------------------------------------------------------------------------
# generator specs


_CASE_NAMES = {1: "Case1", 2: "Case2", 3: "Case3"}


def y_generator_of(case: int, g: int, f: "int | None") -> tuple[int, int]:
    """The second-block generator g, u*g or f*g of a case, as a (p, q) pair."""
    if case == 1:
        return g, 0
    if case == 2:
        return 0, g
    return poly_mul(f, g), 0


@dataclass(frozen=True)
class CodeSpec:
    """One of the three generator cases with polynomials (a, l, g[, f])."""

    alpha: int
    beta: int
    case: int
    a: int
    l: int
    g: int
    f: "int | None" = None

    def __post_init__(self):
        if self.alpha < 1 or self.beta < 1:
            raise ValueError("alpha and beta must be positive")
        if self.case not in (1, 2, 3):
            raise ValueError("case must be 1, 2 or 3")
        if self.case == 3 and self.f is None:
            raise ValueError("case 3 requires f")
        if self.case != 3 and self.f is not None:
            raise ValueError("f is only meaningful for case 3")

    def h(self) -> int:
        """(x^beta - 1) / g, exact for valid specs."""
        q, r = poly_divmod(x_pow_n_minus_1(self.beta), self.g)
        if r:
            raise SpecValidationError([f"g = {poly_text(self.g)} does not divide x^{self.beta}-1"])
        return q

    def y_generator(self) -> tuple[int, int]:
        """The second-block generator polynomial as an element of R[x]."""
        return y_generator_of(self.case, self.g, self.f)

    def generators(self) -> list[int]:
        """The module generators (a, 0) and (l, y-part) as packed words."""
        return [
            ambient_word(self.a, (0, 0), self.alpha, self.beta),
            ambient_word(self.l, self.y_generator(), self.alpha, self.beta),
        ]

    def is_separable(self) -> bool:
        return not self.l

    def serialize(self) -> str:
        lines = [
            f"alpha = {self.alpha}",
            f"beta = {self.beta}",
            f"case = {self.case}",
            f"a = {poly_text(self.a)}",
            f"l = {poly_text(self.l)}",
            f"g = {poly_text(self.g)}",
        ]
        if self.f is not None:
            lines.append(f"f = {poly_text(self.f)}")
        return "\n".join(lines) + "\n"

    def __str__(self):
        tail = f", f={poly_text(self.f)}" if self.f is not None else ""
        return (
            f"{_CASE_NAMES[self.case]}(alpha={self.alpha}, beta={self.beta}, "
            f"a={poly_text(self.a)}, l={poly_text(self.l)}, g={poly_text(self.g)}{tail})"
        )


def parse_spec_text(text: str) -> CodeSpec:
    """Parse the flat key-value spec format; unknown keys are rejected."""
    fields: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SpecParseError("expected 'key = value'", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in ("alpha", "beta", "case", "a", "l", "g", "f"):
            raise SpecParseError(f"unknown key {key!r}", lineno)
        if key in fields:
            raise SpecParseError(f"duplicate key {key!r}", lineno)
        if not value:
            raise SpecParseError(f"empty value for {key!r}", lineno, len(raw) + 1)
        fields[key] = value
        lines[key] = lineno

    def need(key: str) -> str:
        if key not in fields:
            raise SpecParseError(f"missing key {key!r}")
        return fields[key]

    def integer(key: str) -> int:
        value = need(key)
        # str.isdigit also accepts digits such as "²" that int() rejects.
        if value.isascii() and value.isdigit():
            try:
                number = int(value)
            except ValueError:  # more digits than int() converts
                raise SpecParseError(
                    f"{key} is too large ({len(value)} digits)", lines[key]
                ) from None
            if number >= 1:
                return number
        raise SpecParseError(f"{key} must be a positive integer, got {value!r}", lines[key])

    def poly(key: str) -> int:
        value = need(key)
        try:
            return parse_poly(value)
        except ValueError as exc:
            raise SpecParseError(f"bad polynomial for {key!r}: {exc}", lines[key]) from exc

    case = integer("case")
    if case not in (1, 2, 3):
        raise SpecParseError("case must be 1, 2 or 3", lines["case"])
    if case != 3 and "f" in fields:
        raise SpecParseError(f"f is only meaningful for case 3, got case {case}", lines["f"])
    f = poly("f") if case == 3 else None
    return CodeSpec(
        alpha=integer("alpha"),
        beta=integer("beta"),
        case=case,
        a=poly("a"),
        l=poly("l"),
        g=poly("g"),
        f=f,
    )


def load_spec_file(path) -> CodeSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec_text(fh.read())


def validate_spec(spec: CodeSpec) -> list[str]:
    """Check the structural constraints; violations are data, not errors."""
    violations: list[str] = []
    a, l, g, f = spec.a, spec.l, spec.g, spec.f
    if not a or xn_minus_1_mod(spec.alpha, a):
        violations.append(f"a = {poly_text(a)} does not divide x^{spec.alpha}-1")
    if not g or xn_minus_1_mod(spec.beta, g):
        violations.append(f"g = {poly_text(g)} does not divide x^{spec.beta}-1")
    if spec.case == 3 and (not f or poly_mod(g, f)):
        violations.append(f"f = {poly_text(f)} does not divide g = {poly_text(g)}")
    if l and a and l.bit_length() >= a.bit_length():
        violations.append(
            f"deg(l) = {l.bit_length() - 1} is not below deg(a) = {a.bit_length() - 1}"
        )
    if not violations and poly_mod(l, l_base(spec.case, a, g, spec.beta)):
        window = "((x^beta-1)/g)" if spec.case == 2 else "(x^beta-1)"
        violations.append(f"a does not divide {window} * l")
    return violations


def require_valid(spec: CodeSpec) -> None:
    """Raise :class:`SpecValidationError` unless the spec is valid."""
    violations = validate_spec(spec)
    if violations:
        raise SpecValidationError(violations)


@dataclass(frozen=True)
class SpanningElement:
    """Spanning-set member, a packed word of Z2^alpha x R^beta, with its
    scalar domain (2 or 4 multiples)."""

    packed: int
    alpha: int
    beta: int
    multiples: int
    group: str


def spanning_set(spec: CodeSpec) -> list[SpanningElement]:
    """The stated minimal spanning family S1 u S2 u S3."""
    require_valid(spec)
    alpha, beta = spec.alpha, spec.beta
    t1 = 0 if not spec.a else spec.a.bit_length() - 1
    t2 = 0 if not spec.g else spec.g.bit_length() - 1
    lh = poly_mul(spec.l, spec.h())

    def powers(first: int, second: tuple[int, int], count: int, multiples: int, group: str):
        # x^i * (first, second): multiplying by x is the constacyclic shift.
        elems = []
        w = ambient_word(first, second, alpha, beta)
        for _ in range(count):
            elems.append(SpanningElement(w, alpha, beta, multiples, group))
            w = shift_packed(w, alpha, beta)
        return elems

    out: list[SpanningElement] = []
    out += powers(spec.a, (0, 0), alpha - t1, 2, "S1")
    if spec.case == 1:
        out += powers(spec.l, (spec.g, 0), beta - t2, 4, "S2")
        out += powers(lh, (0, 1), t2, 2, "S3")
    elif spec.case == 2:
        out += powers(spec.l, (0, spec.g), beta - t2, 2, "S2")
    else:
        t3 = 0 if not spec.f else spec.f.bit_length() - 1
        out += powers(spec.l, (poly_mul(spec.f, spec.g), 0), beta - t2, 4, "S2")
        out += powers(lh, (0, spec.f), t2 - t3, 2, "S3")
    return out


def spanning_span(elements: Sequence[SpanningElement], alpha: int, beta: int) -> CodeSet:
    """XOR-span of the marked family: an R-scalar element contributes both
    itself and its u-multiple as GF(2) spanning vectors."""
    vectors = []
    for el in elements:
        vectors.append(el.packed)
        if el.multiples == 4:
            vectors.append(umul_packed(el.packed, alpha, beta))
    return CodeSet.from_basis(alpha, beta, vectors)


def spanning_minimal(elements: Sequence[SpanningElement], alpha: int, beta: int) -> bool:
    """Whether leaving out any one element of the marked family shrinks
    its span.

    One elimination finds the relations among the family's GF(2)
    vectors (each element's word and, for an R-scalar element, its
    u-multiple, as in :func:`spanning_span`): each vector is reduced
    against the rows kept before it, tagged with the set of vectors it
    is the sum of, and a vector that reduces to 0 leaves its tag as a
    relation.  These tags span the relations K.  An element is redundant
    exactly when each of its vectors is a sum of vectors of the other
    elements, that is when K holds, for each of its 1 or 2 vectors, a
    relation with that vector and not its other one: when K projected on
    the element's vectors has full rank.
    """
    rows: dict[int, tuple[int, int]] = {}
    relations: list[int] = []
    masks: list[int] = []
    j = 0
    for el in elements:
        vectors = [el.packed]
        if el.multiples == 4:
            vectors.append(umul_packed(el.packed, alpha, beta))
        masks.append(((1 << len(vectors)) - 1) << j)
        for v in vectors:
            tag = 1 << j
            j += 1
            while v:
                lead = v.bit_length() - 1
                if lead not in rows:
                    rows[lead] = (v, tag)
                    break
                w, t = rows[lead]
                v ^= w
                tag ^= t
            else:
                relations.append(tag)
    for mask in masks:
        projected: list[int] = []
        for r in relations:
            basis_insert(projected, r & mask)
        if len(projected) == mask.bit_count():
            return False
    return True


def cardinality_formula(spec: CodeSpec) -> int:
    """The case-appropriate closed-form codeword count."""
    t1 = 0 if not spec.a else spec.a.bit_length() - 1
    t2 = 0 if not spec.g else spec.g.bit_length() - 1
    alpha, beta = spec.alpha, spec.beta
    if spec.case == 1:
        return (1 << (alpha - t1)) * (1 << (2 * (beta - t2))) * (1 << t2)
    if spec.case == 2:
        return (1 << (alpha - t1)) * (1 << (beta - t2))
    t3 = 0 if not spec.f else spec.f.bit_length() - 1
    return (1 << (alpha - t1)) * (1 << (2 * (beta - t2))) * (1 << (t2 - t3))


def enumerate_closure(
    words: Sequence[int],
    alpha: int,
    beta: int,
    budget: int = DEFAULT_BUDGET,
) -> CodeSet:
    """Fixed-point closure of the packed generator words under {+, x*, u*}."""
    if not words:
        raise ValueError("at least one generator is required")
    n = alpha + 2 * beta
    check_budget(n, budget)
    if any(w >> n for w in words):
        raise ValueError(f"generator wider than alpha + 2*beta = {n} bits")
    return CodeSet(alpha, beta, closure_basis(words, alpha, beta))


def closure_of_spec(spec: CodeSpec, budget: int = DEFAULT_BUDGET) -> CodeSet:
    """Closure oracle applied to the spec's two generators."""
    # Refuse before the generators pack a word of alpha + 2*beta bits.
    check_budget(spec.alpha + 2 * spec.beta, budget)
    return enumerate_closure(spec.generators(), spec.alpha, spec.beta, budget)


def is_constacyclic(code: CodeSet) -> bool:
    """True iff the shift of every word stays in the set.

    The shift is linear and bijective, so checking the basis suffices.
    """
    return all(code.contains_packed(shift_packed(b, code.alpha, code.beta)) for b in code.basis)


# ---------------------------------------------------------------------------
# sweeping the valid spec space


def l_base(case: int, a: int, g: int, beta: int) -> int:
    """The base b of the l condition: a | w*l exactly when b divides l,
    for the window w = (x^beta-1)/g in case 2 and x^beta-1 otherwise.

    b = m / gcd(m, x^beta-1), where m = a*g in case 2 (given g | x^beta-1,
    a | ((x^beta-1)/g)*l iff a*g | (x^beta-1)*l) and m = a otherwise.  The
    gcd starts from (x^beta-1) mod m, so x^beta-1 is never built.
    """
    m = poly_mul(a, g) if case == 2 else a
    return poly_divmod(m, poly_gcd(m, xn_minus_1_mod(beta, m)))[0]


def iter_spec_families(
    alpha: int, beta: int, case: int
) -> Iterator[tuple[int, int, "int | None"]]:
    """(a, g, f) of every valid spec family of one case, in sweep order.

    The family's valid l are those with deg(l) < deg(a) and base | l, for
    base = l_base(case, a, g, beta): the m * base with deg(m) < deg(a) -
    deg(base), in the order of m's bit pattern.  Case 3 iterates f != 1
    only; an f of 1 reproduces a case-1 spec.
    """
    divs_a = divisors_of_xn_minus_1(alpha)
    divs_b = divisors_of_xn_minus_1(beta)
    if case == 3:
        for f in divs_b:
            if f == 1:
                continue
            for g in divs_b:
                if not poly_mod(g, f):
                    for a in divs_a:
                        yield a, g, f
        return
    for a in divs_a:
        for g in divs_b:
            yield a, g, None


def iter_valid_specs(
    alpha: int, beta: int, cases: Sequence[int] = (1, 2, 3)
) -> Iterator[CodeSpec]:
    """Every valid CodeSpec for the given lengths, in deterministic order:
    case by case, then family by family of :func:`iter_spec_families`,
    then l by l."""
    for case in (1, 2, 3):
        if case in cases:
            for a, g, f in iter_spec_families(alpha, beta, case):
                base = l_base(case, a, g, beta)
                for m in range(1 << (a.bit_length() - base.bit_length())):
                    yield CodeSpec(alpha, beta, case, a, poly_mul(m, base), g, f)
