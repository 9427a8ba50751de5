"""Exact arithmetic for polynomials over GF(2).

A polynomial is a nonnegative Python integer whose bit i is the
coefficient of x^i, so the representation is canonical by construction
(no stored leading zeros) and equality is integer equality.  Python
integers give the single-word fast path for all degrees in scope and
fall back to multi-word arithmetic transparently.  Addition is XOR;
:func:`poly_mul`, :func:`poly_pow` and :func:`poly_divmod` do the rest.

The degree of p is ``p.bit_length() - 1``.  That reads -1 for the zero
polynomial, whose degree is undefined, so callers that take a degree
guard the zero polynomial first.

Text grammar (shared project-wide): terms ``1``, ``x``, ``x^K`` joined by
``+``; whitespace is ignored; ``0`` denotes the zero polynomial.  An
exponent K is ASCII digits and at most :data:`MAX_EXPONENT`.
Serialization (:func:`poly_text`) emits ascending powers, e.g. ``1+x+x^3``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

# The largest exponent the text grammar accepts: x^K is a (K+1)-bit
# integer, so the bound keeps one parsed term at 2 MB.
MAX_EXPONENT = 1 << 24


class PolyParseError(ValueError):
    """Raised when a polynomial string does not match the grammar."""

    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


def parse_poly(text: str) -> int:
    """Parse the shared text grammar (``1+x+x^3``; ``0`` for zero)."""
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
                k = int(exp)
            except ValueError:  # more digits than int() converts
                raise PolyParseError(f"bad exponent ({len(exp)} digits)", pos + 3) from None
            if k > MAX_EXPONENT:
                raise PolyParseError(f"exponent exceeds the limit {MAX_EXPONENT}", pos + 3)
            bits ^= 1 << k
        else:
            raise PolyParseError(f"bad term {term!r}", pos + 1)
        pos += len(term) + 1
    return bits


def poly_text(bits: int) -> str:
    """The text of a polynomial in the shared grammar."""
    if bits == 0:
        return "0"
    # Walk the set bits of the binary text from its end (x^0), so the
    # cost stays linear in the degree.
    digits = bin(bits)
    top = len(digits) - 1
    terms = []
    pos = digits.rfind("1")
    while pos >= 0:
        i = top - pos
        terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
        pos = digits.rfind("1", 0, pos)
    return "+".join(terms)


def poly_mul(a: int, b: int) -> int:
    """The product a*b."""
    if a < b:
        a, b = b, a
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def poly_pow(p: int, e: int) -> int:
    """p^e by square-and-multiply; p^0 = 1."""
    if e < 0:
        raise ValueError("negative exponent")
    result = 1
    while e:
        if e & 1:
            result = poly_mul(result, p)
        p = poly_mul(p, p)
        e >>= 1
    return result


def poly_divmod(a: int, b: int) -> tuple[int, int]:
    """Division with remainder; requires b nonzero."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    db = b.bit_length()
    q = 0
    while (da := a.bit_length()) >= db:
        q ^= 1 << (da - db)
        a ^= b << (da - db)
    return q, a


def poly_mod(a: int, m: int) -> int:
    """a mod m; requires m nonzero."""
    return poly_divmod(a, m)[1]


def x_pow_n_minus_1(n: int) -> int:
    """x^n - 1, which equals x^n + 1 in characteristic 2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (1 << n) | 1


def xn_minus_1_mod(n: int, m: int) -> int:
    """(x^n - 1) mod m, without building x^n - 1.

    Square-and-multiply over the bits of n, so the cost grows with
    log(n).  The leading bits of n are taken as one power below about
    x^(4 deg m + 128), so a small n costs a single reduction.
    """
    low = max(n.bit_length() - max(2 * m.bit_length(), 64).bit_length(), 0)
    r = poly_mod(1 << (n >> low), m)
    for i in reversed(range(low)):
        # x^(n >> i) = (x^(n >> (i+1)))^2 * x^(bit i of n); squaring over
        # GF(2) moves bit j to bit 2j.
        r = poly_mod(int("0".join(bin(r)[2:]), 2) << (n >> i & 1), m)
    return poly_mod(r ^ 1, m)


def poly_gcd(a: int, b: int) -> int:
    """Greatest common divisor; monic automatically over GF(2)."""
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    while b:
        a, b = b, poly_mod(a, b)
    return a


def bit_reverse(value: int, n: int) -> int:
    """The low n bits of value in reverse order."""
    return int(format(value & ((1 << n) - 1), f"0{n}b")[::-1], 2)


def reciprocal(p: int) -> int:
    """Reciprocal polynomial p*(x) = x^deg(p) * p(1/x)."""
    if not p:
        raise ValueError("reciprocal of the zero polynomial is undefined")
    return bit_reverse(p, p.bit_length())


@dataclass(frozen=True)
class Factorization:
    """Multiset of irreducible factors with multiplicities."""

    factors: tuple[tuple[int, int], ...]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __str__(self):
        return "*".join(f"({poly_text(f)})" + (f"^{m}" if m > 1 else "") for f, m in self.factors)


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
            q, r = poly_divmod(remaining, cand)
            if r:
                break
            remaining = q
            mult += 1
        if mult:
            found.append((cand, mult))
        cand += 1
    return tuple(sorted(found))


def factor(p: int) -> Factorization:
    """Complete factorization into irreducibles over GF(2)."""
    if p.bit_length() < 2:
        raise ValueError("factor requires degree >= 1")
    return Factorization(_factor_bits(p))


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


def divisors_of_xn_minus_1(n: int) -> tuple[int, ...]:
    """All monic divisors of x^n - 1 over GF(2), ascending, incl. 1 and
    x^n-1.

    Built as all sub-multisets of the irreducible factorization.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    divisors = [1]
    for f, mult in factor(x_pow_n_minus_1(n)):
        acc = []
        for d in divisors:
            for _ in range(mult + 1):
                acc.append(d)
                d = poly_mul(d, f)
        divisors = acc
    return tuple(sorted(divisors))
