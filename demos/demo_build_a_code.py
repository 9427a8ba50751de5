"""
Building a code from generator polynomials
==========================================

A code lives in Z2^alpha x R^beta with R = F2 + uF2 and is generated by
a pair (a(x), 0), (l(x), y(x)) as a module over R[x].  The closure
oracle enumerates the code exhaustively and referees the closed-form
cardinality and the minimal spanning family.
"""

from z2ucodes import (
    CodeSpec,
    cardinality_formula,
    is_constacyclic,
    parse_poly,
    spanning_set,
    validate_spec,
)
from z2ucodes.codewords import closure_of_spec, word_texts

spec = CodeSpec(
    alpha=2,
    beta=3,
    case=1,
    a=parse_poly("1+x^2"),
    l=parse_poly("1+x"),
    g=parse_poly("1+x"),
)
print(spec)
print("structural violations:", validate_spec(spec) or "none")

code = closure_of_spec(spec)
print("closure size:", len(code), " stated formula:", cardinality_formula(spec))
print("closed under the (1+u)-constacyclic shift:", is_constacyclic(code))

# The minimal spanning family with its scalar domains: elements marked 4
# contribute a full set of R-multiples, elements marked 2 only binary ones.
for el in spanning_set(spec):
    (text,) = word_texts([el.packed], el.alpha, el.beta)
    print(f"  {el.group}: {text}  ({el.multiples} multiples)")

# Every word can be listed explicitly at desk scale
words = word_texts(code.packed(), code.alpha, code.beta)
print("first words:", ", ".join(words[:6]), "...")
print("zero word is a member:", code.contains_packed(0))

# A spec that fails its divisibility constraint is reported, not built:
bad = CodeSpec(2, 3, 1, parse_poly("1+x^2"), parse_poly("1"), parse_poly("1+x"))
print("invalid spec:", validate_spec(bad))
