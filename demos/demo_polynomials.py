"""
Binary polynomial toolbox
=========================

Everything downstream is built on exact GF(2) polynomial arithmetic:
factoring x^n - 1, greatest common divisors, reciprocals and
2-cyclotomic classes.
"""

from z2ucodes import (
    cyclotomic_class_count,
    divisors_of_xn_minus_1,
    factor,
    parse_poly,
    poly_divmod,
    poly_gcd,
    poly_text,
    reciprocal,
    x_pow_n_minus_1,
)

# Division with remainder: (x^3+x+1) = (x^2+x)(x+1) + 1
q, r = poly_divmod(parse_poly("1+x+x^3"), parse_poly("1+x"))
print("quotient:", poly_text(q), " remainder:", poly_text(r))

# gcd over GF(2)
print("gcd(x^2+1, x^3+1) =", poly_text(poly_gcd(parse_poly("1+x^2"), parse_poly("1+x^3"))))

# Reciprocal polynomial: reverse the coefficients
print("(1+x+x^3)* =", poly_text(reciprocal(parse_poly("1+x+x^3"))))

# x^7 - 1 splits into three irreducible factors over GF(2)
print("x^7-1 =", factor(x_pow_n_minus_1(7)))

# x^6 - 1 is a square in characteristic 2
print("x^6-1 =", factor(x_pow_n_minus_1(6)))

# The number of 2-cyclotomic classes mod n counts those factors for odd n
for n in (1, 3, 7, 15):
    print(f"C2({n}) = {cyclotomic_class_count(n)}  "
          f"(irreducible factors of x^{n}-1: {len(factor(x_pow_n_minus_1(n)))})")

# All monic divisors of x^3 - 1; every generator polynomial comes from here
print("divisors of x^3-1:", [poly_text(d) for d in divisors_of_xn_minus_1(3)])
