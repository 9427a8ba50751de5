"""Additive (1+u)-constacyclic codes over the mixed alphabet Z2 x (F2+uF2).

The package constructs codes from generator polynomials, derives their
parameters from closed-form degree formulas, and checks every formula
against exhaustive enumeration oracles at desk scale.
"""

from .gf2poly import (
    Factorization,
    cyclotomic_class_count,
    divisors_of_xn_minus_1,
    factor,
    parse_poly,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_pow,
    poly_text,
    reciprocal,
    x_pow_n_minus_1,
)
from .ringr import mu_map, rpoly_mul_mod
from .codewords import (
    BinaryCode,
    CodeSet,
    CodeSpec,
    cardinality_formula,
    enumerate_closure,
    is_constacyclic,
    iter_valid_specs,
    spanning_set,
    validate_spec,
)
from .structure import (
    CodeType,
    count_codes_census,
    count_codes_formula,
    puncture_x,
    puncture_y,
    subcode_cb,
    type_from_enumeration,
    type_from_formulas,
)
from .duality import (
    DualReport,
    check_dual_constacyclic,
    dual_bruteforce,
    dual_degree_formulas,
    eta_pair,
    gray_route_dual,
    separable_dual,
)
from .gray import (
    gray_dimension_formula,
    gray_image,
    is_double_cyclic,
    min_distance,
    self_dual_transfer,
)
