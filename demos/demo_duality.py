"""
Dual codes
==========

The dual is computed by brute force from the inner product
u*sum(a_i d_i) + sum(b_j e_j), then compared against the stated degree
formulas and, for separable codes, the closed-form dual generators.
"""

from z2ucodes import (
    CodeSpec,
    check_dual_constacyclic,
    dual_bruteforce,
    dual_degree_formulas,
    eta_pair,
    parse_poly,
    poly_text,
    separable_dual,
)
from z2ucodes.codewords import closure_of_spec
from z2ucodes.duality import build_dual_report, orthogonality_masks

# The R-valued inner product of the word (1|u) of Z2 x R with itself.
# Packed with bit 0 = a, bit 1 = p and bit 2 = q, the word is 0b101; the
# free part and the u part of the product are parities against two masks,
# and the value is free + u * (u part).
SYMBOLS = {(0, 0): "0", (1, 0): "1", (0, 1): "u", (1, 1): "1+u"}
m_free, m_u = orthogonality_masks(0b101, 1, 1)
value = ((0b101 & m_free).bit_count() & 1, (0b101 & m_u).bit_count() & 1)
print("<(1|u), (1|u)> =", SYMBOLS[value])

spec = CodeSpec(2, 3, 1, parse_poly("1+x^2"), parse_poly("1+x"), parse_poly("1+x"))
code = closure_of_spec(spec)
dual = dual_bruteforce(code)
print("|C| =", len(code), " |C-dual| =", len(dual),
      " product =", len(code) * len(dual), "= 2^(alpha+2*beta)")
print("dual is constacyclic:", check_dual_constacyclic(code))

# Predicted dual degrees vs the generators recovered from the dual itself;
# disagreements are recorded as findings.
print("stated dual degrees:", dual_degree_formulas(spec))
report = build_dual_report(spec, dual)
print("recovered dual spec:", report.observed, " match:", report.match)

# Separable codes have closed-form duals that check out exactly.
sep = CodeSpec(2, 3, 1, parse_poly("1+x"), 0, parse_poly("1+x"))
sd = separable_dual(sep)
print("separable dual spec:", sd)
print("matches brute force:",
      closure_of_spec(sd) == dual_bruteforce(closure_of_spec(sep)))

# The binary pairing behind the Gray-route dual computations
value = eta_pair((parse_poly("1+x"), 0), (parse_poly("1+x"), 0), 2, 2)
print("eta((1+x, 0), (1+x, 0)) =", poly_text(value))
