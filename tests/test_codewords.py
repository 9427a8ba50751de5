import functools
import json
import math
import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from z2ucodes.gf2poly import (
    divisors_of_xn_minus_1,
    parse_poly,
    poly_divmod,
    poly_gcd,
    x_pow_n_minus_1,
)
from z2ucodes.codewords import (
    BudgetExceededError,
    CodeSet,
    CodeSpec,
    SpecParseError,
    SpecValidationError,
    ambient_word,
    cardinality_formula,
    closure_of_spec,
    enumerate_closure,
    is_constacyclic,
    iter_valid_specs,
    l_base,
    null_space,
    parse_spec_text,
    rref,
    shift_packed,
    spanning_set,
    spanning_span,
    umul_packed,
    validate_spec,
)
from z2ucodes.cli import main

from referee import R_ONE, R_ONE_U, R_U, R_ZERO, ZERO, Ambient, BinPoly, Codeword, RPoly
from referee import basis_by_insertion, null_space_by_leads, shift, star_mul, words


def P(text):
    return parse_poly(text)


WORKED = CodeSpec(2, 3, 1, P("1+x^2"), P("1+x"), P("1+x"))


class TestShift:
    def test_worked_examples(self):
        assert shift(Codeword((1, 0), (R_ONE, R_U))) == Codeword((0, 1), (R_U, R_ONE))
        assert shift(Codeword((1,), (R_ONE_U,))) == Codeword((1,), (R_ONE,))
        z = Codeword.zero(2, 2)
        assert shift(z) == z

    def test_matches_packed_shift(self):
        rng = random.Random(3)
        for _ in range(400):
            alpha, beta = rng.randint(1, 5), rng.randint(1, 5)
            w = rng.getrandbits(alpha + 2 * beta)
            c = Codeword.from_packed(w, alpha, beta)
            assert shift(c).to_packed() == shift_packed(w, alpha, beta)

    def test_period_divides_two_lcm(self):
        rng = random.Random(4)
        for _ in range(100):
            alpha, beta = rng.randint(1, 4), rng.randint(1, 4)
            c = Codeword.from_packed(rng.getrandbits(alpha + 2 * beta), alpha, beta)
            bound = 2 * math.lcm(alpha, beta)
            cur = c
            for _ in range(bound):
                cur = shift(cur)
            assert cur == c


class TestStarMul:
    def test_identity_and_u_annihilation(self):
        amb = Ambient(BinPoly(P("1+x")), RPoly(ZERO, BinPoly(P("1+x"))), 2, 3)
        assert star_mul(RPoly(BinPoly(1)), amb) == amb
        assert star_mul(RPoly(ZERO, BinPoly(1)), amb) == Ambient(ZERO, RPoly(), 2, 3)

    def test_x_star_is_shift(self):
        rng = random.Random(5)
        for _ in range(200):
            alpha, beta = rng.randint(1, 4), rng.randint(1, 4)
            c = Codeword.from_packed(rng.getrandbits(alpha + 2 * beta), alpha, beta)
            xs = star_mul(RPoly(BinPoly(2)), c.to_ambient())
            assert Codeword.from_ambient(xs) == shift(c)

    def test_ambient_packed_round_trip(self):
        rng = random.Random(6)
        for _ in range(200):
            alpha, beta = rng.randint(1, 5), rng.randint(1, 5)
            w = rng.getrandbits(alpha + 2 * beta)
            assert ambient_word(*Codeword.from_packed(w, alpha, beta).to_ambient().ints()) == w


def _word_by_unit_shifts(first, second, alpha, beta):
    """The XOR of x^i * e over the set coefficients x^i of each part,
    for the unit words e = (1|0...), (0|1,0...) and (0|u,0...); x^i * e
    is the i-th shift, so the folding of x^alpha and of x^beta = 1+u is
    the shift's."""
    zero_b = (R_ZERO,) * (beta - 1)
    units = [
        Codeword((1,) + (0,) * (alpha - 1), (R_ZERO,) + zero_b),
        Codeword((0,) * alpha, (R_ONE,) + zero_b),
        Codeword((0,) * alpha, (R_U,) + zero_b),
    ]
    total = Codeword.zero(alpha, beta)
    for bits, unit in zip((first, *second), units):
        for i in range(bits.bit_length()):
            if bits >> i & 1:
                total = total + unit
            unit = shift(unit)
    return total.to_packed()


@st.composite
def polynomial_pairs(draw):
    """(first, second, alpha, beta) with degrees below 3*alpha and 3*beta,
    so that both folds and the wrap x^beta = 1+u are exercised."""
    alpha, beta = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    first = draw(st.integers(0, (1 << 3 * alpha) - 1))
    p, q = (draw(st.integers(0, (1 << 3 * beta) - 1)) for _ in range(2))
    return first, (p, q), alpha, beta


@settings(deadline=None)
@given(polynomial_pairs())
def test_ambient_word_matches_shifted_unit_words(pair):
    assert ambient_word(*pair) == _word_by_unit_shifts(*pair)


@st.composite
def l_base_inputs(draw):
    """(case, a, g, beta) with g | x^beta-1 and any nonzero a."""
    beta = draw(st.integers(1, 9))
    g = draw(st.sampled_from(divisors_of_xn_minus_1(beta)))
    a = draw(st.integers(1, (1 << 12) - 1))
    return draw(st.sampled_from((1, 2, 3))), a, g, beta


@settings(deadline=None)
@given(l_base_inputs())
def test_l_base_matches_the_gcd_with_the_built_window(inputs):
    # The window of the l condition, built in full: (x^beta-1)/g in case 2.
    case, a, g, beta = inputs
    window = poly_divmod(x_pow_n_minus_1(beta), g)[0] if case == 2 else x_pow_n_minus_1(beta)
    assert l_base(case, a, g, beta) == poly_divmod(a, poly_gcd(a, window))[0]


class TestValidateSpec:
    def test_worked_valid(self):
        assert validate_spec(WORKED) == []

    def test_returned_list_is_the_callers_own(self):
        # The violations are computed once per spec; a caller that edits
        # the list it got must not change what the next caller gets.
        bad = CodeSpec(2, 3, 1, P("1+x^2"), P("1"), P("1+x"))
        first = validate_spec(bad)
        first.append("edited")
        first[0] = "replaced"
        equal = CodeSpec(2, 3, 1, P("1+x^2"), P("1"), P("1+x"))
        assert validate_spec(equal) == ["a does not divide (x^beta-1) * l"]
        valid = validate_spec(WORKED)
        valid.append("edited")
        assert validate_spec(WORKED) == []

    def test_case1_divisibility_violation(self):
        bad = CodeSpec(2, 3, 1, P("1+x^2"), P("1"), P("1+x"))
        violations = validate_spec(bad)
        assert violations == ["a does not divide (x^beta-1) * l"]

    def test_case2_divisibility_violation(self):
        # (x-1)/g = 1 here, so a = 1+x^2 must divide l = 1.
        bad = CodeSpec(2, 1, 2, P("1+x^2"), P("1"), P("1+x"))
        assert validate_spec(bad) == ["a does not divide ((x^beta-1)/g) * l"]

    def test_zero_l_is_always_fine_on_divisibility(self):
        spec = CodeSpec(2, 3, 1, P("1+x^2"), 0, P("1+x"))
        assert validate_spec(spec) == []

    def test_degree_bound(self):
        bad = CodeSpec(2, 3, 1, P("1+x"), P("1+x"), P("1+x"))
        assert any("deg(l)" in v for v in validate_spec(bad))

    def test_non_divisor_rejected(self):
        bad = CodeSpec(2, 3, 1, P("1+x+x^2"), 0, P("1+x"))
        assert any("does not divide x^2-1" in v for v in validate_spec(bad))

    def test_case3_f_must_divide_g(self):
        bad = CodeSpec(2, 3, 3, P("1+x^2"), 0, P("1+x"), P("1+x+x^2"))
        assert any("does not divide g" in v for v in validate_spec(bad))

    def test_constructor_guards(self):
        with pytest.raises(ValueError):
            CodeSpec(0, 3, 1, P("1"), 0, P("1"))
        with pytest.raises(ValueError):
            CodeSpec(2, 3, 4, P("1"), 0, P("1"))
        with pytest.raises(ValueError):
            CodeSpec(2, 3, 3, P("1"), 0, P("1"))  # missing f
        with pytest.raises(ValueError):
            CodeSpec(2, 3, 1, P("1"), 0, P("1"), P("1"))  # stray f


class TestSpanning:
    def test_worked_sizes(self):
        groups = {}
        for el in spanning_set(WORKED):
            groups.setdefault(el.group, []).append(el)
        assert len(groups.get("S1", [])) == 0
        assert len(groups["S2"]) == 2
        assert len(groups["S3"]) == 1
        assert all(el.multiples == 4 for el in groups["S2"])
        assert all(el.multiples == 2 for el in groups["S3"])

    def test_a_full_modulus_gives_empty_s1(self):
        spec = CodeSpec(2, 3, 1, P("1+x^2"), 0, P("1+x"))
        assert all(el.group != "S1" for el in spanning_set(spec))

    def test_invalid_spec_rejected(self):
        bad = CodeSpec(2, 3, 1, P("1+x^2"), P("1"), P("1+x"))
        with pytest.raises(SpecValidationError):
            spanning_set(bad)

    def test_spanning_span_equals_closure_cases_1_and_2(self):
        for alpha, beta in ((1, 1), (2, 3), (3, 3), (1, 2), (2, 2)):
            for spec in iter_valid_specs(alpha, beta, cases=(1, 2)):
                span = spanning_span(spanning_set(spec), alpha, beta)
                assert span == closure_of_spec(spec), spec

    def test_spanning_span_contained_in_closure_always(self):
        # The stated case-3 family does not always generate the code
        # (verify reports those as findings); containment must hold.
        for alpha, beta in ((1, 1), (2, 3), (3, 3), (1, 2), (2, 2)):
            for spec in iter_valid_specs(alpha, beta):
                span = spanning_span(spanning_set(spec), alpha, beta)
                closure = closure_of_spec(spec)
                assert all(closure.contains_packed(v) for v in span.basis), spec

    def test_case3_spanning_defect_is_visible(self):
        # Smallest case-3 instance where the stated family undershoots.
        spec = CodeSpec(1, 2, 3, P("1"), 0, P("1+x"), P("1+x"))
        assert validate_spec(spec) == []
        assert cardinality_formula(spec) == 8 == len(closure_of_spec(spec))
        span = spanning_span(spanning_set(spec), 1, 2)
        assert len(span) == 4

    def test_minimality_on_worked_example(self):
        elements = spanning_set(WORKED)
        full = spanning_span(elements, 2, 3)
        for skip in range(len(elements)):
            rest = [el for i, el in enumerate(elements) if i != skip]
            assert len(spanning_span(rest, 2, 3)) < len(full)


class TestCardinalityAndClosure:
    def test_worked_case1(self):
        assert cardinality_formula(WORKED) == 32
        assert len(closure_of_spec(WORKED)) == 32

    def test_case2_formula_value(self):
        # The formula value for this spec is 4, but the spec violates the
        # case-2 divisibility constraint and its actual closure has 8
        # words; validation is what keeps it out of the sweeps.
        spec = CodeSpec(2, 3, 2, P("1+x^2"), P("1+x"), P("1+x"))
        assert cardinality_formula(spec) == 4
        assert validate_spec(spec) != []
        assert len(closure_of_spec(spec)) == 8

    def test_case2_simple(self):
        spec = CodeSpec(1, 1, 2, P("1+x"), 0, P("1"))
        assert cardinality_formula(spec) == 2
        assert len(closure_of_spec(spec)) == 2

    def test_case3_f_equals_g_reduces(self):
        spec = CodeSpec(2, 3, 3, P("1+x^2"), 0, P("1+x"), P("1+x"))
        t2 = 1
        assert cardinality_formula(spec) == (1 << 0) * (1 << (2 * (3 - t2))) * 1

    def test_closure_of_zero_generator(self):
        assert len(enumerate_closure([0], 1, 1)) == 1

    def test_closure_single_generator_example(self):
        gen = ambient_word(P("1"), (0, P("1")), 1, 1)
        cs = enumerate_closure([gen], 1, 1)
        assert len(cs) == 2
        assert {str(w) for w in words(cs)} == {"0|0", "1|u"}

    def test_closure_refuses_a_word_wider_than_the_ambient_space(self):
        assert len(enumerate_closure([0b100], 1, 1)) == 2
        with pytest.raises(ValueError, match="wider than alpha"):
            enumerate_closure([0b1, 0b1000], 1, 1)

    def test_budget(self):
        spec = CodeSpec(3, 3, 1, P("1"), 0, P("1"))
        with pytest.raises(BudgetExceededError):
            closure_of_spec(spec, budget=16)


class TestCodeSet:
    def test_contains_and_membership(self):
        cs = closure_of_spec(WORKED)
        assert cs.contains_packed(Codeword.zero(2, 3).to_packed())
        gen = Codeword.from_packed(WORKED.generators()[1], 2, 3)
        assert cs.contains_packed(gen.to_packed())
        assert not cs.contains_packed(Codeword((1, 0), (R_ZERO,) * 3).to_packed())

    def test_constacyclic_checks(self):
        cs = closure_of_spec(WORKED)
        assert is_constacyclic(cs)
        # a set closed under addition but not under the shift
        bad = CodeSet.from_packed_words(2, 1, [0, 1])
        assert not is_constacyclic(bad)
        full = CodeSet.from_basis(2, 1, [1, 2, 4, 8])
        assert is_constacyclic(full)

    def test_constacyclic_binary_code(self):
        # beta = 0: the shift is the plain cyclic shift of the binary block.
        assert not is_constacyclic(CodeSet.from_basis(3, 0, [1]))
        assert is_constacyclic(CodeSet.from_basis(3, 0, [0b111]))

    def test_from_words_rejects_non_groups(self):
        with pytest.raises(ValueError):
            CodeSet.from_packed_words(2, 1, [0, 1, 2])
        with pytest.raises(ValueError):
            CodeSet.from_packed_words(2, 1, [1, 2])

    def test_from_words_random_subgroups_round_trip(self):
        import numpy as np

        rng = random.Random(77)
        for _ in range(200):
            beta = rng.randint(1, 4)
            alpha = rng.randint(0, 4)
            nbits = alpha + 2 * beta
            vectors = [rng.getrandbits(nbits) for _ in range(rng.randint(0, 5))]
            reference = CodeSet.from_basis(alpha, beta, vectors)
            words = list(reference.packed())
            rng.shuffle(words)
            rebuilt = CodeSet.from_packed_words(alpha, beta, words)
            assert rebuilt == reference
            assert np.array_equal(rebuilt.packed(), reference.packed())

    def test_emit_words_match_the_referee(self, tmp_path, capsys):
        # construct --emit-words lists the closure's words as the referee
        # prints them, in the referee's order: the worked code, a
        # separable case-2 code and the zero code.
        specs = [
            WORKED,
            CodeSpec(2, 3, 2, P("1+x"), 0, P("1+x")),
            CodeSpec(2, 3, 2, P("1+x^2"), 0, P("1+x^3")),
        ]
        for spec in specs:
            path = tmp_path / "code.spec"
            path.write_text(spec.serialize())
            argv = ["construct", "--spec", str(path), "--emit-words", "--format", "json"]
            assert main(argv) == 0
            emitted = json.loads(capsys.readouterr().out)["words"]
            assert emitted == [str(w) for w in words(closure_of_spec(spec))], spec
        assert len(emitted) == 1

    def test_umul_packed(self):
        w = Codeword((1, 1), (R_ONE, R_U)).to_packed()
        u = umul_packed(w, 2, 2)
        assert Codeword.from_packed(u, 2, 2) == Codeword((0, 0), (R_U, R_ZERO))


class TestSpecFiles:
    def test_round_trip(self):
        text = WORKED.serialize()
        assert parse_spec_text(text) == WORKED

    def test_case3_round_trip(self):
        spec = CodeSpec(2, 2, 3, P("1+x^2"), 0, P("1+x^2"), P("1+x"))
        assert parse_spec_text(spec.serialize()) == spec

    def test_unknown_key(self):
        with pytest.raises(SpecParseError) as err:
            parse_spec_text("alpha = 2\nbogus = 1\n")
        assert err.value.line == 2

    def test_missing_key(self):
        with pytest.raises(SpecParseError):
            parse_spec_text("alpha = 2\nbeta = 3\ncase = 1\na = 1\nl = 0\n")

    def test_missing_key_names_no_line(self):
        # The key is on no line, so the diagnostic gives none.
        with pytest.raises(SpecParseError) as err:
            parse_spec_text("alpha = 2\nbeta = 3\ncase = 1\na = 1\ng = 1\n")
        assert err.value.line is None
        assert str(err.value) == "missing key 'l'"

    def test_bad_polynomial(self):
        with pytest.raises(SpecParseError) as err:
            parse_spec_text("alpha = 2\nbeta = 3\ncase = 1\na = y\nl = 0\ng = 1\n")
        assert err.value.line == 4

    def test_length_below_one_names_its_line(self):
        with pytest.raises(SpecParseError) as err:
            parse_spec_text("case = 1\nalpha = 2\nbeta = 0\na = 1\nl = 0\ng = 1\n")
        assert err.value.line == 3
        assert "beta must be a positive integer" in str(err.value)

    def test_f_only_for_case3(self):
        with pytest.raises(SpecParseError) as err:
            parse_spec_text("alpha = 2\nbeta = 3\ncase = 1\na = 1\nl = 0\ng = 1\nf = 1\n")
        assert err.value.line == 7


class TestSweep:
    def test_iter_valid_specs_matches_validator(self):
        for alpha, beta in ((1, 1), (2, 2), (2, 3), (3, 3)):
            generated = set(iter_valid_specs(alpha, beta))
            assert generated, (alpha, beta)
            for spec in generated:
                assert validate_spec(spec) == [], spec
            # brute-force the full candidate space and compare
            from z2ucodes.gf2poly import divisors_of_xn_minus_1

            brute = set()
            divs_a = divisors_of_xn_minus_1(alpha)
            divs_b = divisors_of_xn_minus_1(beta)
            for a in divs_a:
                lspace = range(1 << (a.bit_length() - 1))
                for g in divs_b:
                    for l in lspace:
                        for case in (1, 2):
                            cand = CodeSpec(alpha, beta, case, a, l, g)
                            if not validate_spec(cand):
                                brute.add(cand)
                    for f in divs_b:
                        if f == 1 or poly_divmod(g, f)[1]:
                            continue
                        for l in lspace:
                            cand = CodeSpec(alpha, beta, 3, a, l, g, f)
                            if not validate_spec(cand):
                                brute.add(cand)
            assert generated == brute, (alpha, beta)


@st.composite
def vector_lists(draw, max_bits=90):
    """A width of 1..max_bits bits and up to 12 words of that width, with
    zeros, repeats and sums of earlier words mixed in."""
    nbits = draw(st.integers(1, max_bits))
    vectors = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["word", "zero", "sum"]) if vectors else st.just("word"))
        if kind == "word":
            vectors.append(draw(st.integers(0, (1 << nbits) - 1)))
        elif kind == "zero":
            vectors.append(0)
        else:
            chosen = draw(st.lists(st.sampled_from(vectors), min_size=1, max_size=3))
            vectors.append(functools.reduce(operator.xor, chosen))
    return nbits, vectors


class TestBatchElimination:
    @settings(deadline=None, max_examples=300)
    @given(vector_lists())
    @example((1, []))
    @example((5, [0, 0, 0]))
    @example((4, [0b1010, 0b1010, 0b0110, 0b1100, 0b0110]))
    @example((90, [(1 << 90) - 1, 1 << 89, 1, (1 << 89) | 1]))
    def test_rref_matches_the_insertion_referee(self, drawn):
        _, vectors = drawn
        basis = rref(vectors)
        assert basis == basis_by_insertion(vectors)
        assert rref(basis) == basis
        assert CodeSet.from_basis(3, 0, vectors).basis == basis

    @settings(deadline=None, max_examples=300)
    @given(vector_lists())
    @example((1, []))
    @example((1, [1]))
    @example((6, [0, 0]))
    @example((6, [0b111111, 0b111111, 0b000011]))
    @example((90, [(1 << 90) - 1, 1 << 89, 1, (1 << 89) | 1]))
    def test_null_space_is_the_canonical_orthogonal_complement(self, drawn):
        nbits, vectors = drawn
        kernel = null_space(vectors, nbits)
        assert all(((k & v).bit_count() & 1) == 0 for k in kernel for v in vectors)
        assert len(rref(vectors)) + len(kernel) == nbits
        assert rref(kernel) == kernel
        assert all(k >> nbits == 0 for k in kernel)
        assert kernel == null_space_by_leads(vectors, nbits)
