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
    inner_product,
    parse_poly,
    separable_dual,
)
from z2ucodes.codewords import Codeword, closure_of_spec
from z2ucodes.duality import build_dual_report
from z2ucodes.gf2poly import ZERO
from z2ucodes.ringr import R_U

# The R-valued inner product on two tiny words
print("<(1|0), (1|0)> =", inner_product(Codeword((1,), (R_U,)), Codeword((1,), (R_U,))))

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
sep = CodeSpec(2, 3, 1, parse_poly("1+x"), ZERO, parse_poly("1+x"))
sd = separable_dual(sep)
print("separable dual spec:", sd)
print("matches brute force:",
      closure_of_spec(sd) == dual_bruteforce(closure_of_spec(sep)))

# The binary pairing behind the Gray-route dual computations
value = eta_pair((parse_poly("1+x"), ZERO), (parse_poly("1+x"), ZERO), 2, 2)
print("eta((1+x, 0), (1+x, 0)) =", value)
