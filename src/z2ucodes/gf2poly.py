"""Exact arithmetic for polynomials over GF(2).

A polynomial is stored as a nonnegative Python integer whose bit i is the
coefficient of x^i, so the representation is canonical by construction
(no stored leading zeros) and equality is structural.  Python integers
give the single-word fast path for all degrees in scope and fall back to
multi-word arithmetic transparently.

The degree of the zero polynomial is the distinguished marker
``MINUS_INF`` rather than a number; it compares below every integer so
degree comparisons are total.

Text grammar (shared project-wide): terms ``1``, ``x``, ``x^K`` joined by
``+``; whitespace is ignored; ``0`` denotes the zero polynomial.
Serialization emits ascending powers, e.g. ``1+x+x^3``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator


class _MinusInfinity:
    """Degree of the zero polynomial; totally ordered below every int."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return not isinstance(other, _MinusInfinity)

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return isinstance(other, _MinusInfinity)

    def __eq__(self, other):
        return isinstance(other, _MinusInfinity)

    def __hash__(self):
        return hash("gf2poly.MINUS_INF")

    def __repr__(self):
        return "MINUS_INF"


MINUS_INF = _MinusInfinity()


class PolyParseError(ValueError):
    """Raised when a polynomial string does not match the grammar."""

    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


class BinPoly:
    """Immutable polynomial over GF(2), bit-packed in ascending degree."""

    __slots__ = ("bits",)

    def __init__(self, bits: int = 0):
        if not isinstance(bits, int) or bits < 0:
            raise TypeError("BinPoly expects a nonnegative int")
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("BinPoly is immutable")

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> "BinPoly":
        """Build from an ascending-degree coefficient sequence."""
        bits = 0
        for i, c in enumerate(coeffs):
            if c & 1:
                bits |= 1 << i
        return cls(bits)

    @property
    def degree(self):
        """Degree, or MINUS_INF for the zero polynomial."""
        if self.bits == 0:
            return MINUS_INF
        return self.bits.bit_length() - 1

    def is_zero(self) -> bool:
        return self.bits == 0

    def coeff(self, i: int) -> int:
        return (self.bits >> i) & 1

    def __add__(self, other: "BinPoly") -> "BinPoly":
        return BinPoly(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other: "BinPoly") -> "BinPoly":
        a, b = self.bits, other.bits
        if a < b:
            a, b = b, a
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            a <<= 1
            b >>= 1
        return BinPoly(acc)

    def __pow__(self, e: int) -> "BinPoly":
        if e < 0:
            raise ValueError("negative exponent")
        result = ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: "BinPoly") -> tuple["BinPoly", "BinPoly"]:
        return poly_divmod(self, other)

    def __floordiv__(self, other: "BinPoly") -> "BinPoly":
        return poly_divmod(self, other)[0]

    def __mod__(self, other: "BinPoly") -> "BinPoly":
        return poly_divmod(self, other)[1]

    def divides(self, other: "BinPoly") -> bool:
        """True iff self is nonzero and divides other exactly."""
        return not self.is_zero() and (other % self).is_zero()

    def __eq__(self, other):
        return isinstance(other, BinPoly) and self.bits == other.bits

    def __hash__(self):
        return hash(("BinPoly", self.bits))

    def __lt__(self, other: "BinPoly") -> bool:
        # Deterministic total order: by integer value (degree-major).
        return self.bits < other.bits

    def __le__(self, other: "BinPoly") -> bool:
        return self.bits <= other.bits

    def __bool__(self):
        return self.bits != 0

    def __str__(self):
        if self.bits == 0:
            return "0"
        # Walk the set bits of the binary text from its end (x^0), so the
        # cost stays linear in the degree.
        digits = bin(self.bits)
        top = len(digits) - 1
        terms = []
        pos = digits.rfind("1")
        while pos >= 0:
            i = top - pos
            terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
            pos = digits.rfind("1", 0, pos)
        return "+".join(terms)

    def __repr__(self):
        return f"BinPoly({str(self)!r})"


ZERO = BinPoly(0)
ONE = BinPoly(1)


def _parse_bits(text: str) -> int:
    stripped = "".join(text.split())
    if not stripped:
        raise PolyParseError("empty polynomial", 1)
    if stripped == "0":
        return 0
    bits = 0
    pos = 0
    for term in stripped.split("+"):
        if not term:
            raise PolyParseError("empty term", pos + 1)
        if term == "1":
            bits ^= 1
        elif term == "x":
            bits ^= 2
        elif term.startswith("x^"):
            exp = term[2:]
            # str.isdigit also accepts digits such as "²" and "٣".
            if not (exp.isascii() and exp.isdigit()):
                raise PolyParseError(f"bad exponent {exp!r}", pos + 3)
            try:
                bits ^= 1 << int(exp)
            except ValueError:  # more digits than int() converts
                raise PolyParseError(f"bad exponent ({len(exp)} digits)", pos + 3) from None
        else:
            raise PolyParseError(f"bad term {term!r}", pos + 1)
        pos += len(term) + 1
    return bits


def parse_poly(text: str) -> BinPoly:
    """Parse the shared text grammar (``1+x+x^3``; ``0`` for zero)."""
    return BinPoly(_parse_bits(text))


def x_pow_n_minus_1(n: int) -> BinPoly:
    """x^n - 1, which equals x^n + 1 in characteristic 2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return BinPoly((1 << n) | 1)


def poly_divmod(a: BinPoly, b: BinPoly) -> tuple[BinPoly, BinPoly]:
    """Division with remainder; requires b nonzero."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    ra, rb = a.bits, b.bits
    db = rb.bit_length() - 1
    q = 0
    while ra.bit_length() - 1 >= db and ra:
        shift = ra.bit_length() - 1 - db
        q ^= 1 << shift
        ra ^= rb << shift
    return BinPoly(q), BinPoly(ra)


def poly_gcd(a: BinPoly, b: BinPoly) -> BinPoly:
    """Greatest common divisor; monic automatically over GF(2)."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    x, y = a.bits, b.bits
    while y:
        x, y = y, poly_divmod(BinPoly(x), BinPoly(y))[1].bits
    return BinPoly(x)


def bit_reverse(value: int, n: int) -> int:
    """The low n bits of value in reverse order."""
    out = 0
    for i in range(n):
        if (value >> i) & 1:
            out |= 1 << (n - 1 - i)
    return out


def reciprocal(p: BinPoly) -> BinPoly:
    """Reciprocal polynomial p*(x) = x^deg(p) * p(1/x)."""
    if p.is_zero():
        raise ValueError("reciprocal of the zero polynomial is undefined")
    return BinPoly(bit_reverse(p.bits, p.bits.bit_length()))


@dataclass(frozen=True)
class Factorization:
    """Multiset of irreducible factors with multiplicities."""

    factors: tuple[tuple[BinPoly, int], ...]

    def expand(self) -> BinPoly:
        result = ONE
        for f, m in self.factors:
            result = result * f**m
        return result

    def multiplicity(self, f: BinPoly) -> int:
        for g, m in self.factors:
            if g == f:
                return m
        return 0

    def __iter__(self) -> Iterator[tuple[BinPoly, int]]:
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __str__(self):
        return "*".join(f"({f})" + (f"^{m}" if m > 1 else "") for f, m in self.factors)


@functools.lru_cache(maxsize=4096)
def _factor_bits(bits: int) -> tuple[tuple[int, int], ...]:
    # Trial division in increasing integer order.  Because every smaller
    # factor is divided out first, the first candidate that divides is
    # irreducible, exactly as in integer trial division.
    remaining = bits
    found: list[tuple[int, int]] = []
    cand = 2
    while True:
        deg_rem = remaining.bit_length() - 1
        if deg_rem < 1:
            break
        dc = cand.bit_length() - 1
        if 2 * dc > deg_rem:
            found.append((remaining, 1))
            break
        mult = 0
        while True:
            q, r = poly_divmod(BinPoly(remaining), BinPoly(cand))
            if r.bits:
                break
            remaining = q.bits
            mult += 1
        if mult:
            found.append((cand, mult))
        cand += 1
    return tuple(sorted(found))


def factor(p: BinPoly) -> Factorization:
    """Complete factorization into irreducibles over GF(2)."""
    deg = p.degree
    if deg is MINUS_INF or deg < 1:
        raise ValueError("factor requires degree >= 1")
    return Factorization(tuple((BinPoly(b), m) for b, m in _factor_bits(p.bits)))


def is_irreducible(p: BinPoly) -> bool:
    """Exhaustive trial division by every polynomial up to half degree."""
    deg = p.degree
    if deg is MINUS_INF or deg < 1:
        return False
    for cand in range(2, 1 << (deg // 2 + 1)):
        if cand.bit_length() - 1 < 1:
            continue
        if BinPoly(cand).divides(p):
            return False
    return True


def cyclotomic_class_count(t: int) -> int:
    """Number of orbits of i -> 2i (mod t) on {0, ..., t-1}."""
    if t < 1:
        raise ValueError("t must be >= 1")
    seen = [False] * t
    count = 0
    for i in range(t):
        if seen[i]:
            continue
        count += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = (2 * j) % t
    return count


def divisors_of_xn_minus_1(n: int) -> tuple[BinPoly, ...]:
    """All monic divisors of x^n - 1 over GF(2), sorted, incl. 1 and x^n-1.

    Built as all sub-multisets of the irreducible factorization.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    facs = factor(x_pow_n_minus_1(n))
    divisors = [ONE]
    for f, mult in facs:
        acc = []
        for d in divisors:
            power = d
            for _ in range(mult + 1):
                acc.append(power)
                power = power * f
        divisors = acc
    divisors.sort(key=lambda p: (p.bits.bit_length(), p.bits))
    return tuple(divisors)
