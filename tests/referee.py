"""Symbol-level referee for the packed codeword maps.

A codeword of Z2^alpha x R^beta is a tuple of bits and a tuple of ring
scalars, and each map is written from its definition over the symbols:
the (1+u)-constacyclic shift multiplies the wrapped symbol by 1+u in R,
the Gray map and the Lee weight map each symbol on its own, and the
inner product sums products in R.  Only ``from_packed`` and ``to_packed``
know the packed layout, so a test that compares a packed map with its
counterpart here compares two independent implementations.

``min_distance_scan`` is the exhaustive scan over every word of a code,
the referee of the basis-only minimum distance.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from z2ucodes.gf2poly import BinPoly
from z2ucodes.gray import gray_block_packed
from z2ucodes.ringr import R_ONE, R_ONE_U, R_U, R_ZERO, RElem, RPoly
from z2ucodes.ringr import bar_reduce, reduce_mod_xn_minus_1, rpoly_mul_mod

# The symbols in text order 0 < 1 < u < 1+u, with their names.
SYMBOLS = {R_ZERO: "0", R_ONE: "1", R_U: "u", R_ONE_U: "1+u"}
LEE = {R_ZERO: 0, R_ONE: 1, R_U: 2, R_ONE_U: 1}
ORDER = {e: i for i, e in enumerate(SYMBOLS)}


class Ambient(NamedTuple):
    """(first, second) of Z2[x]/(x^alpha - 1) x R[x]/(x^beta - 1 - u)."""

    first: BinPoly
    second: RPoly
    alpha: int
    beta: int


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
    """d(x) * (a(x), b(x)) = (dbar(x) a(x), d(x) b(x)) in the ambient module."""
    first = reduce_mod_xn_minus_1(bar_reduce(d) * c.first, c.alpha)
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


def lee_weight(c: Codeword) -> int:
    return sum(c.a) + sum(LEE[e] for e in c.b)


def inner_product(c1: Codeword, c2: Codeword) -> RElem:
    """u * sum(a_i d_i) + sum(b_j e_j), valued in R."""
    _same_lengths(c1, c2)
    total = R_U if sum(x & y for x, y in zip(c1.a, c2.a)) & 1 else R_ZERO
    for x, y in zip(c1.b, c2.b):
        total = total + x * y
    return total


def min_distance_scan(code) -> int:
    """Minimum nonzero Lee weight over all 2^rank words of a code of
    rank >= 1: the Hamming weights of their block-layout Gray images."""
    # packed() is ascending, so the zero word comes first.
    imgs = gray_block_packed(code.packed()[1:], code.alpha, code.beta)
    return int(np.bitwise_count(imgs).min())
