"""Arithmetic in R = F2 + uF2 (u^2 = 0) and in the two quotient rings
Z2[x]/(x^a - 1) and R[x]/(x^b - 1 - u) forming the ambient module.

An R[x] element p(x) + u*q(x) is stored as two GF(2) polynomials so the
bit-packed fast paths of :mod:`z2ucodes.gf2poly` are reused everywhere.
"""

from __future__ import annotations

from .gf2poly import BinPoly, MINUS_INF


class RElem:
    """One of the four ring scalars 0, 1, u, 1+u; instances are interned."""

    __slots__ = ("p", "q")
    _cache: dict[tuple[int, int], "RElem"] = {}

    def __new__(cls, p: int, q: int):
        key = (p & 1, q & 1)
        elem = cls._cache.get(key)
        if elem is None:
            elem = super().__new__(cls)
            object.__setattr__(elem, "p", key[0])
            object.__setattr__(elem, "q", key[1])
            cls._cache[key] = elem
        return elem

    def __setattr__(self, name, value):
        raise AttributeError("RElem is immutable")

    def __add__(self, other: "RElem") -> "RElem":
        return RElem(self.p ^ other.p, self.q ^ other.q)

    __sub__ = __add__

    def __mul__(self, other: "RElem") -> "RElem":
        # (p1 + u q1)(p2 + u q2) = p1 p2 + u (p1 q2 + p2 q1), using u^2 = 0.
        return RElem(self.p & other.p, (self.p & other.q) ^ (other.p & self.q))

    @property
    def order_index(self) -> int:
        """Canonical symbol order 0 < 1 < u < 1+u."""
        return self.p + 2 * self.q

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        return ("0", "1", "u", "1+u")[self.order_index]

    def __repr__(self):
        return f"RElem({self.p}, {self.q})"


R_ZERO = RElem(0, 0)
R_ONE = RElem(1, 0)
R_U = RElem(0, 1)
R_ONE_U = RElem(1, 1)
RELEMS = (R_ZERO, R_ONE, R_U, R_ONE_U)


class RPoly:
    """Polynomial over R written p(x) + u*q(x)."""

    __slots__ = ("p", "q")

    def __init__(self, p: "BinPoly | int" = 0, q: "BinPoly | int" = 0):
        object.__setattr__(self, "p", p if isinstance(p, BinPoly) else BinPoly(p))
        object.__setattr__(self, "q", q if isinstance(q, BinPoly) else BinPoly(q))

    def __setattr__(self, name, value):
        raise AttributeError("RPoly is immutable")

    @property
    def degree(self):
        if self.p.is_zero() and self.q.is_zero():
            return MINUS_INF
        return max(self.p.bits.bit_length(), self.q.bits.bit_length()) - 1

    def is_zero(self) -> bool:
        return self.p.is_zero() and self.q.is_zero()

    def coeff(self, i: int) -> RElem:
        return RElem(self.p.coeff(i), self.q.coeff(i))

    def __add__(self, other: "RPoly") -> "RPoly":
        return RPoly(self.p + other.p, self.q + other.q)

    __sub__ = __add__

    def __mul__(self, other: "RPoly") -> "RPoly":
        return RPoly(self.p * other.p, self.p * other.q + self.q * other.p)

    def __eq__(self, other):
        return isinstance(other, RPoly) and self.p == other.p and self.q == other.q

    def __hash__(self):
        return hash(("RPoly", self.p.bits, self.q.bits))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        n = max(self.p.bits.bit_length(), self.q.bits.bit_length())
        for i in range(n):
            e = self.coeff(i)
            if e.is_zero():
                continue
            mono = "1" if i == 0 else ("x" if i == 1 else f"x^{i}")
            if e is R_ONE:
                terms.append(mono)
            elif i == 0:
                terms.append("u" if e is R_U else "(1+u)")
            else:
                coef = "u" if e is R_U else "(1+u)"
                terms.append(f"{coef}*{mono}")
        return "+".join(terms)

    def __repr__(self):
        return f"RPoly({str(self)!r})"


RP_ZERO = RPoly()
RP_U = RPoly(0, 1)


def bar_reduce(d: RPoly) -> BinPoly:
    """Reduction modulo u: keep the p-component."""
    return d.p


def reduce_mod_xn_minus_1(a: BinPoly, n: int) -> BinPoly:
    """Reduce a binary polynomial modulo x^n - 1 by cyclic folding."""
    if n < 1:
        raise ValueError("modulus exponent must be >= 1")
    bits = a.bits
    mask = (1 << n) - 1
    while bits >> n:
        bits = (bits & mask) ^ (bits >> n)
    return BinPoly(bits)


def reduce_rpoly(d: RPoly, beta: int) -> RPoly:
    """Reduce modulo x^beta - 1 - u by single-step folding.

    Each top term t*x^(beta+k) is replaced by t*(1+u)*x^k, where
    t*(1+u) = tp + u*(tp+tq) for t = tp + u*tq.
    """
    if beta < 1:
        raise ValueError("beta must be >= 1")
    p, q = d.p.bits, d.q.bits
    top = max(p.bit_length(), q.bit_length()) - 1
    for k in range(top - beta, -1, -1):
        i = beta + k
        tp = (p >> i) & 1
        tq = (q >> i) & 1
        p ^= tp << i
        q ^= tq << i
        p ^= tp << k
        q ^= (tp ^ tq) << k
    return RPoly(BinPoly(p), BinPoly(q))


def rpoly_mul_mod(a: RPoly, b: RPoly, beta: int) -> RPoly:
    """Product in R[x]/(x^beta - 1 - u), where x^beta wraps to 1 + u."""
    if beta < 1:
        raise ValueError("beta must be >= 1")
    return reduce_rpoly(a * b, beta)


def _reduce_rpoly_cyclic(d: RPoly, beta: int) -> RPoly:
    # Reduction modulo x^beta - 1 (no twist); component-wise cyclic fold.
    return RPoly(reduce_mod_xn_minus_1(d.p, beta), reduce_mod_xn_minus_1(d.q, beta))


def mu_map(a: BinPoly, b: RPoly, alpha: int, beta: int) -> tuple[BinPoly, RPoly]:
    """The substitution (a(x), b(x)) -> (a(x), b((1+u)x)) for odd beta.

    (1+u)^k is 1 for even k and 1+u for odd k, so odd-degree coefficients
    of b are multiplied by 1+u.
    """
    if beta % 2 == 0:
        raise ValueError("mu is only defined for odd beta")
    b = _reduce_rpoly_cyclic(b, beta)
    odd_mask = 0
    for i in range(1, beta, 2):
        odd_mask |= 1 << i
    p, q = b.p.bits, b.q.bits
    # coefficient (p,q) at odd degree becomes (p, p^q)
    q_new = q ^ (p & odd_mask)
    return reduce_mod_xn_minus_1(a, alpha), RPoly(BinPoly(p), BinPoly(q_new))

