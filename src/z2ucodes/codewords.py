"""Codewords of Z2^alpha x R^beta, the (1+u)-constacyclic shift, the
star multiplication, generator-case construction, minimal spanning sets,
and the exhaustive closure oracle.

Packed representation
---------------------
A codeword is packed into one integer: bits [0, alpha) hold the binary
block, bits [alpha, alpha+beta) the 1-components (p) of the R block and
bits [alpha+beta, alpha+2*beta) the u-components (q).  Codeword addition
is then XOR, and both the constacyclic shift and multiplication by u are
GF(2)-linear maps on packed words, which is what makes the exhaustive
oracles fast: a code is an XOR-subgroup invariant under the two maps.

The closure oracle below is a breadth-first fixed point over
{+, x*, u*}; it never consults the spanning-set formulas, so it serves
as an independent referee for every counting formula in the package.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .gf2poly import (
    ONE,
    ZERO,
    BinPoly,
    MINUS_INF,
    parse_poly,
    poly_divmod,
    poly_gcd,
    divisors_of_xn_minus_1,
    x_pow_n_minus_1,
)
from .ringr import (
    AmbientElement,
    RELEMS,
    RElem,
    RPoly,
    RP_U,
    R_ONE_U,
    bar_reduce,
    reduce_mod_xn_minus_1,
    rpoly_mul_mod,
)

DEFAULT_BUDGET = 1 << 24
CENSUS_BUDGET = 1 << 16
# Word arrays hold packed words as numpy int64, whose sign bit stays clear.
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
    if 1 << nbits > budget:
        raise BudgetExceededError(f"ambient size 2^{nbits} exceeds budget {budget}")


def check_word_width(nbits: int) -> None:
    """Refuse to materialise words wider than :data:`WORD_BITS`."""
    if nbits > WORD_BITS:
        raise BudgetExceededError(
            f"word length {nbits} bits exceeds the {WORD_BITS}-bit packed-word limit"
        )


# ---------------------------------------------------------------------------
# GF(2)-linear maps on packed words (ints and numpy integer arrays alike)


def shift_packed(w, alpha: int, beta: int):
    """(1+u)-constacyclic shift on packed words (ints or arrays)."""
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


def xor_table(vectors: Sequence[int]) -> np.ndarray:
    """Entry i is the XOR of vectors[j] over the set bits j of i."""
    table = np.zeros(1 << len(vectors), dtype=np.int64)
    for j, v in enumerate(vectors):
        half = 1 << j
        np.bitwise_xor(table[:half], v, out=table[half : 2 * half])
    return table


def span_array(basis: Sequence[int], nbits: int) -> np.ndarray:
    """All XOR combinations of the basis of nbits-bit words, sorted ascending."""
    check_word_width(nbits)
    arr = xor_table(basis)
    arr.sort()
    return arr


def basis_from_group_array(arr: np.ndarray) -> list[int]:
    """Extract a basis from a sorted XOR-subgroup array.

    In a numerically sorted subgroup the element at index 2^i is the i-th
    vector of its RREF basis, so the span of these elements equals the
    array exactly when the array is a subgroup.
    """
    k = len(arr).bit_length() - 1
    basis: list[int] = []
    for i in range(k):
        basis_insert(basis, int(arr[1 << i]))
    return basis


# ---------------------------------------------------------------------------
# closure oracle


def closure_basis(packed_gens: Iterable[int], alpha: int, beta: int) -> tuple[int, ...]:
    """Smallest XOR-span containing the generators and invariant under
    the shift and u-multiplication maps (= the generated submodule)."""
    basis: list[int] = []
    queue = deque(int(g) for g in packed_gens)
    while queue:
        v = queue.popleft()
        v = reduce_against(v, basis)
        if v == 0:
            continue
        basis_insert(basis, v)
        queue.append(shift_packed(v, alpha, beta))
        queue.append(umul_packed(v, alpha, beta))
    return tuple(basis)


# ---------------------------------------------------------------------------
# Codeword


@dataclass(frozen=True)
class Codeword:
    """Element of Z2^alpha x R^beta."""

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
        return cls((0,) * alpha, (RELEMS[0],) * beta)

    @classmethod
    def from_packed(cls, w: int, alpha: int, beta: int) -> "Codeword":
        a = tuple((w >> i) & 1 for i in range(alpha))
        b = tuple(
            RElem((w >> (alpha + j)) & 1, (w >> (alpha + beta + j)) & 1) for j in range(beta)
        )
        return cls(a, b)

    def to_packed(self) -> int:
        alpha, beta = self.alpha, self.beta
        w = 0
        for i, bit in enumerate(self.a):
            w |= (bit & 1) << i
        for j, e in enumerate(self.b):
            w |= e.p << (alpha + j)
            w |= e.q << (alpha + beta + j)
        return w

    @classmethod
    def from_ambient(cls, elem: AmbientElement) -> "Codeword":
        return cls.from_packed(elem.packed(), elem.alpha, elem.beta)

    def to_ambient(self) -> AmbientElement:
        if self.alpha < 1:
            raise ValueError("ambient view requires alpha >= 1")
        return AmbientElement(
            BinPoly.from_coeffs(self.a),
            RPoly.from_coeffs(self.b),
            self.alpha,
            self.beta,
        )

    def __add__(self, other: "Codeword") -> "Codeword":
        if self.alpha != other.alpha or self.beta != other.beta:
            raise ValueError("codeword length mismatch")
        return Codeword(
            tuple(x ^ y for x, y in zip(self.a, other.a)),
            tuple(x + y for x, y in zip(self.b, other.b)),
        )

    def sort_key(self):
        """Lexicographic on (a bits, then symbols ordered 0 < 1 < u < 1+u)."""
        return (self.a, tuple(e.order_index for e in self.b))

    def __str__(self):
        return "".join(map(str, self.a)) + "|" + ",".join(map(str, self.b))


def shift(c: Codeword) -> Codeword:
    """Rotate both blocks right; the wrapped R symbol is multiplied by 1+u."""
    a = c.a[-1:] + c.a[:-1]
    if c.b:
        b = (c.b[-1] * R_ONE_U,) + c.b[:-1]
    else:
        b = c.b
    return Codeword(a, b)


def star_mul(d: RPoly, c: AmbientElement) -> AmbientElement:
    """d(x) * (a(x), b(x)) = (dbar(x) a(x), d(x) b(x)) in the ambient module."""
    first = reduce_mod_xn_minus_1(bar_reduce(d) * c.first, c.alpha)
    second = rpoly_mul_mod(d, c.second, c.beta)
    return AmbientElement(first, second, c.alpha, c.beta)


# ---------------------------------------------------------------------------
# explicit code sets


class CodeSet:
    """A GF(2)-subspace of packed words: a width and a canonical RREF basis.

    The width is split as alpha binary bits plus beta R symbols, so that
    (alpha, beta) is a view of the same subspace.  A code of
    Z2^alpha x R^beta is a CodeSet closed under shift and u-scaling; a
    binary linear code of length n is ``CodeSet(n, 0, basis)``, and
    alpha == 0 holds punctured second-block codes.  The explicit word
    array is materialized lazily, only for the oracles that need it.
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
        """Build from explicit words, verifying closure under addition."""
        if not isinstance(words, np.ndarray):
            words = list(words)
        arr = np.sort(np.asarray(words, dtype=np.int64))
        keep = np.ones(len(arr), dtype=bool)
        keep[1:] = arr[1:] != arr[:-1]
        arr = arr[keep]
        n = len(arr)
        if n == 0 or arr[0] != 0:
            raise ValueError("a code set must contain the zero word")
        if n & (n - 1):
            raise ValueError("not closed under addition: size is not a power of two")
        basis = basis_from_group_array(arr)
        if not np.array_equal(span_array(basis, alpha + 2 * beta), arr):
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

    def packed(self) -> np.ndarray:
        """Sorted array of all packed words (cached)."""
        if self._packed is None:
            self._packed = span_array(self.basis, self.n)
        return self._packed

    def contains_packed(self, w: int) -> bool:
        return reduce_against(int(w), self.basis) == 0

    def __contains__(self, c: Codeword) -> bool:
        return contains(self, c)

    @property
    def words(self) -> tuple[Codeword, ...]:
        done = [Codeword.from_packed(int(w), self.alpha, self.beta) for w in self.packed()]
        done.sort(key=Codeword.sort_key)
        return tuple(done)

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
        return f"<CodeSet alpha={self.alpha} beta={self.beta} size={len(self)}>"


BinaryCode = CodeSet  # a binary code of length n is CodeSet(n, 0, basis)


# ---------------------------------------------------------------------------
# generator specs


_CASE_NAMES = {1: "Case1", 2: "Case2", 3: "Case3"}


def y_generator_of(case: int, g: BinPoly, f: "BinPoly | None") -> RPoly:
    """The second-block generator g, u*g or f*g of a case."""
    if case == 1:
        return RPoly(g)
    if case == 2:
        return RPoly(ZERO, g)
    return RPoly(f * g)


@dataclass(frozen=True)
class CodeSpec:
    """One of the three generator cases with polynomials (a, l, g[, f])."""

    alpha: int
    beta: int
    case: int
    a: BinPoly
    l: BinPoly
    g: BinPoly
    f: "BinPoly | None" = None

    def __post_init__(self):
        if self.alpha < 1 or self.beta < 1:
            raise ValueError("alpha and beta must be positive")
        if self.case not in (1, 2, 3):
            raise ValueError("case must be 1, 2 or 3")
        if self.case == 3 and self.f is None:
            raise ValueError("case 3 requires f")
        if self.case != 3 and self.f is not None:
            raise ValueError("f is only meaningful for case 3")

    def h(self) -> BinPoly:
        """(x^beta - 1) / g, exact for valid specs."""
        q, r = poly_divmod(x_pow_n_minus_1(self.beta), self.g)
        if not r.is_zero():
            raise SpecValidationError([f"g = {self.g} does not divide x^{self.beta}-1"])
        return q

    def y_generator(self) -> RPoly:
        """The second-block generator polynomial as an element of R[x]."""
        return y_generator_of(self.case, self.g, self.f)

    def generators(self) -> list[AmbientElement]:
        """The module generators (a, 0) and (l, y-part)."""
        return [
            AmbientElement(self.a, RPoly(), self.alpha, self.beta),
            AmbientElement(self.l, self.y_generator(), self.alpha, self.beta),
        ]

    def is_separable(self) -> bool:
        return self.l.is_zero()

    def serialize(self) -> str:
        lines = [
            f"alpha = {self.alpha}",
            f"beta = {self.beta}",
            f"case = {self.case}",
            f"a = {self.a}",
            f"l = {self.l}",
            f"g = {self.g}",
        ]
        if self.f is not None:
            lines.append(f"f = {self.f}")
        return "\n".join(lines) + "\n"

    def __str__(self):
        tail = f", f={self.f}" if self.f is not None else ""
        return (
            f"{_CASE_NAMES[self.case]}(alpha={self.alpha}, beta={self.beta}, "
            f"a={self.a}, l={self.l}, g={self.g}{tail})"
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

    def poly(key: str) -> BinPoly:
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
    xa = x_pow_n_minus_1(spec.alpha)
    xb = x_pow_n_minus_1(spec.beta)
    if not spec.a.divides(xa):
        violations.append(f"a = {spec.a} does not divide x^{spec.alpha}-1")
    if not spec.g.divides(xb):
        violations.append(f"g = {spec.g} does not divide x^{spec.beta}-1")
    if spec.case == 3 and not spec.f.divides(spec.g):
        violations.append(f"f = {spec.f} does not divide g = {spec.g}")
    if not spec.l.is_zero() and not spec.a.is_zero() and not spec.l.degree < spec.a.degree:
        violations.append(f"deg(l) = {spec.l.degree} is not below deg(a) = {spec.a.degree}")
    if not violations:
        if spec.case == 2:
            witness = spec.h() * spec.l
            if not spec.a.divides(witness):
                violations.append("a does not divide ((x^beta-1)/g) * l")
        else:
            witness = xb * spec.l
            if not spec.a.divides(witness):
                violations.append("a does not divide (x^beta-1) * l")
    return violations


def require_valid(spec: CodeSpec) -> None:
    """Raise :class:`SpecValidationError` unless the spec is valid."""
    violations = validate_spec(spec)
    if violations:
        raise SpecValidationError(violations)


@dataclass(frozen=True)
class SpanningElement:
    """Spanning-set member with its scalar domain (2 or 4 multiples)."""

    word: Codeword
    multiples: int
    group: str


def spanning_set(spec: CodeSpec) -> list[SpanningElement]:
    """The stated minimal spanning family S1 u S2 u S3."""
    require_valid(spec)
    alpha, beta = spec.alpha, spec.beta
    t1 = 0 if spec.a.is_zero() else spec.a.degree
    t2 = 0 if spec.g.is_zero() else spec.g.degree
    h = spec.h()
    lh = reduce_mod_xn_minus_1(spec.l * h, alpha)

    def powers(base: AmbientElement, count: int, multiples: int, group: str):
        # x^i * base: multiplying by x is the constacyclic shift.
        elems = []
        w = base.packed()
        for _ in range(count):
            elems.append(SpanningElement(Codeword.from_packed(w, alpha, beta), multiples, group))
            w = shift_packed(w, alpha, beta)
        return elems

    out: list[SpanningElement] = []
    out += powers(
        AmbientElement(spec.a, RPoly(), alpha, beta), alpha - t1, 2, "S1"
    )
    if spec.case == 1:
        out += powers(
            AmbientElement(spec.l, RPoly(spec.g), alpha, beta), beta - t2, 4, "S2"
        )
        out += powers(AmbientElement(lh, RP_U, alpha, beta), t2, 2, "S3")
    elif spec.case == 2:
        out += powers(
            AmbientElement(spec.l, RPoly(ZERO, spec.g), alpha, beta), beta - t2, 2, "S2"
        )
    else:
        t3 = 0 if spec.f.is_zero() else spec.f.degree
        out += powers(
            AmbientElement(spec.l, RPoly(spec.f * spec.g), alpha, beta), beta - t2, 4, "S2"
        )
        out += powers(
            AmbientElement(lh, RPoly(ZERO, spec.f), alpha, beta), t2 - t3, 2, "S3"
        )
    return out


def spanning_span(elements: Sequence[SpanningElement], alpha: int, beta: int) -> CodeSet:
    """XOR-span of the marked family: an R-scalar element contributes both
    itself and its u-multiple as GF(2) spanning vectors."""
    vectors = []
    for el in elements:
        w = el.word.to_packed()
        vectors.append(w)
        if el.multiples == 4:
            vectors.append(umul_packed(w, alpha, beta))
    return CodeSet.from_basis(alpha, beta, vectors)


def cardinality_formula(spec: CodeSpec) -> int:
    """The case-appropriate closed-form codeword count."""
    t1 = 0 if spec.a.is_zero() else spec.a.degree
    t2 = 0 if spec.g.is_zero() else spec.g.degree
    alpha, beta = spec.alpha, spec.beta
    if spec.case == 1:
        return (1 << (alpha - t1)) * (1 << (2 * (beta - t2))) * (1 << t2)
    if spec.case == 2:
        return (1 << (alpha - t1)) * (1 << (beta - t2))
    t3 = 0 if spec.f.is_zero() else spec.f.degree
    return (1 << (alpha - t1)) * (1 << (2 * (beta - t2))) * (1 << (t2 - t3))


def enumerate_closure(
    generators: Sequence[AmbientElement],
    alpha: int,
    beta: int,
    budget: int = DEFAULT_BUDGET,
) -> CodeSet:
    """Fixed-point closure of the generators under {+, x*, u*}."""
    if not generators:
        raise ValueError("at least one generator is required")
    check_budget(alpha + 2 * beta, budget)
    if any(g.alpha != alpha or g.beta != beta for g in generators):
        raise ValueError("generator lengths do not match alpha/beta")
    packed = [g.packed() for g in generators]
    return CodeSet(alpha, beta, closure_basis(packed, alpha, beta))


def closure_of_spec(spec: CodeSpec, budget: int = DEFAULT_BUDGET) -> CodeSet:
    """Closure oracle applied to the spec's two generators."""
    return enumerate_closure(spec.generators(), spec.alpha, spec.beta, budget)


def is_constacyclic(code: CodeSet) -> bool:
    """True iff the shift of every word stays in the set.

    The shift is linear and bijective, so checking the basis suffices.
    """
    return all(code.contains_packed(shift_packed(b, code.alpha, code.beta)) for b in code.basis)


def contains(code: CodeSet, c: Codeword) -> bool:
    """Membership in the canonical word set."""
    if c.alpha != code.alpha or c.beta != code.beta:
        raise ValueError("codeword length mismatch")
    return code.contains_packed(c.to_packed())


# ---------------------------------------------------------------------------
# sweeping the valid spec space


def _l_candidates(a: BinPoly, window: BinPoly) -> Iterator[BinPoly]:
    """All l with deg(l) < deg(a) and a | window*l, in deterministic order.

    a | window*l is equivalent to (a / gcd(a, window)) | l, so the valid
    l are exactly the multiples of that quotient below deg(a).
    """
    if a.is_zero():
        yield ZERO
        return
    if window.is_zero():
        free = 0 if a.degree is MINUS_INF else a.degree
        for mbits in range(1 << free):
            yield BinPoly(mbits)
        return
    base = a // poly_gcd(a, window)
    free = a.degree - base.degree
    for mbits in range(1 << free):
        yield BinPoly(mbits) * base


def iter_spec_families(
    alpha: int, beta: int, case: int
) -> Iterator[tuple[BinPoly, BinPoly, "BinPoly | None", Iterator[BinPoly]]]:
    """(a, g, f, l candidates) of every valid spec of one case, in sweep order.

    The l candidates are a lazy iterator, so a caller that rejects a
    family from (a, g, f) alone never generates them.  Case 3 iterates
    f != 1 only; an f of 1 reproduces a case-1 spec.
    """
    xb = x_pow_n_minus_1(beta)
    divs_a = divisors_of_xn_minus_1(alpha)
    divs_b = divisors_of_xn_minus_1(beta)
    if case == 3:
        for f in divs_b:
            if f == ONE:
                continue
            for g in divs_b:
                if f.divides(g):
                    for a in divs_a:
                        yield a, g, f, _l_candidates(a, xb)
        return
    for a in divs_a:
        for g in divs_b:
            yield a, g, None, _l_candidates(a, xb if case == 1 else xb // g)


def iter_valid_specs(
    alpha: int, beta: int, cases: Sequence[int] = (1, 2, 3)
) -> Iterator[CodeSpec]:
    """Every valid CodeSpec for the given lengths, in deterministic order:
    case by case, then family by family of :func:`iter_spec_families`."""
    for case in (1, 2, 3):
        if case in cases:
            for a, g, f, ls in iter_spec_families(alpha, beta, case):
                for l in ls:
                    yield CodeSpec(alpha, beta, case, a, l, g, f)
