"""Arithmetic in R[x]/(x^beta - 1 - u) with R = F2 + uF2 (u^2 = 0), the
second block of the ambient module.

An element p(x) + u*q(x) of R[x] is the pair ``(p, q)`` of GF(2)
polynomials, each an int as in :mod:`z2ucodes.gf2poly`.  Reduction
modulo u keeps ``pair[0]``.
"""

from __future__ import annotations

from .gf2poly import poly_mod, poly_mul, x_pow_n_minus_1


def reduce_rpoly(d: tuple[int, int], beta: int) -> tuple[int, int]:
    """Reduce modulo x^beta - 1 - u by single-step folding.

    Each top term t*x^(beta+k) is replaced by t*(1+u)*x^k, where
    t*(1+u) = tp + u*(tp+tq) for t = tp + u*tq.
    """
    if beta < 1:
        raise ValueError("beta must be >= 1")
    p, q = d
    top = max(p.bit_length(), q.bit_length()) - 1
    for k in range(top - beta, -1, -1):
        i = beta + k
        tp = (p >> i) & 1
        tq = (q >> i) & 1
        p ^= tp << i
        q ^= tq << i
        p ^= tp << k
        q ^= (tp ^ tq) << k
    return p, q


def rpoly_mul_mod(a: tuple[int, int], b: tuple[int, int], beta: int) -> tuple[int, int]:
    """Product in R[x]/(x^beta - 1 - u), where x^beta wraps to 1 + u."""
    (p1, q1), (p2, q2) = a, b
    return reduce_rpoly((poly_mul(p1, p2), poly_mul(p1, q2) ^ poly_mul(q1, p2)), beta)


def mu_map(
    a: int, b: tuple[int, int], alpha: int, beta: int
) -> tuple[int, tuple[int, int]]:
    """The substitution (a(x), b(x)) -> (a(x), b((1+u)x)) for odd beta,
    on Z2[x]/(x^alpha - 1) x R[x]/(x^beta - 1).

    (1+u)^k is 1 for even k and 1+u for odd k, so odd-degree coefficients
    of b are multiplied by 1+u: (p, q) at an odd degree becomes (p, p+q).
    """
    if beta % 2 == 0:
        raise ValueError("mu is only defined for odd beta")
    xb = x_pow_n_minus_1(beta)
    p, q = poly_mod(b[0], xb), poly_mod(b[1], xb)
    odd_mask = ((1 << (beta - 1)) - 1) // 3 << 1  # bits 1, 3, ..., beta - 2
    return poly_mod(a, x_pow_n_minus_1(alpha)), (p, q ^ (p & odd_mask))
