"""The names ``z2ucodes`` exports.  Adding or removing a public name is an
edit to the list below."""

import types

import z2ucodes

PUBLIC_NAMES = [
    "BinaryCode",
    "CodeSet",
    "CodeSpec",
    "CodeType",
    "DualReport",
    "Factorization",
    "cardinality_formula",
    "check_dual_constacyclic",
    "count_codes_census",
    "count_codes_formula",
    "cyclotomic_class_count",
    "divisors_of_xn_minus_1",
    "dual_bruteforce",
    "dual_degree_formulas",
    "enumerate_closure",
    "eta_pair",
    "factor",
    "gray_dimension_formula",
    "gray_image",
    "gray_route_dual",
    "is_constacyclic",
    "is_double_cyclic",
    "iter_valid_specs",
    "min_distance",
    "mu_map",
    "parse_poly",
    "poly_divmod",
    "poly_gcd",
    "poly_mul",
    "poly_pow",
    "poly_text",
    "puncture_x",
    "puncture_y",
    "reciprocal",
    "rpoly_mul_mod",
    "self_dual_transfer",
    "separable_dual",
    "spanning_set",
    "subcode_cb",
    "type_from_enumeration",
    "type_from_formulas",
    "validate_spec",
    "x_pow_n_minus_1",
]


def test_public_names_are_pinned():
    # Submodules become attributes of the package as they are imported,
    # so they are left out.
    names = sorted(
        name
        for name in dir(z2ucodes)
        if not name.startswith("_") and not isinstance(getattr(z2ucodes, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES
