import itertools
import math

import pytest

from z2ucodes.gf2poly import ZERO, BinPoly, parse_poly
from z2ucodes.codewords import (
    CodeSet,
    CodeSpec,
    closure_basis,
    closure_of_spec,
    iter_valid_specs,
    reduce_against,
    shift_packed,
    umul_packed,
)
from z2ucodes.structure import (
    cb_dimension,
    census_table,
    count_codes_census,
    count_codes_formula,
    cyclic_code_from_generator,
    puncture_x,
    puncture_y,
    subcode_cb,
    type_from_enumeration,
    type_from_formulas,
)


def P(text):
    return parse_poly(text)


WORKED = CodeSpec(2, 3, 1, P("1+x^2"), P("1+x"), P("1+x"))


class TestPunctures:
    def test_worked_example(self):
        code = closure_of_spec(WORKED)
        cx = puncture_x(code)
        assert sorted(int(w) for w in cx.packed()) == [0, 0b11]
        assert cx == cyclic_code_from_generator(P("1+x"), 2)
        cy = puncture_y(code)
        assert len(cy) == 32

    def test_zero_code(self):
        zero = CodeSet.from_basis(2, 3, [])
        assert len(puncture_x(zero)) == 1
        assert len(puncture_y(zero)) == 1

    def test_second_only_code(self):
        spec = CodeSpec(2, 3, 2, P("1+x^2"), ZERO, P("1+x"))
        code = closure_of_spec(spec)
        assert len(puncture_x(code)) == 1

    def test_case2_cb_is_whole_code(self):
        spec = CodeSpec(2, 3, 2, P("1+x^2"), ZERO, P("1+x"))
        code = closure_of_spec(spec)
        assert subcode_cb(code) == code

    def test_full_ambient_cb(self):
        full = CodeSet.from_basis(1, 1, [1, 2, 4])
        cb = subcode_cb(full)
        assert len(cb) == 4  # Z2^alpha x {0,u}^beta


@pytest.mark.parametrize("n", range(1, 10))
def test_cyclic_code_matches_rotations_of_the_generator(n):
    # Reference: the span of the n rotations of gen mod x^n-1.
    mask = (1 << n) - 1
    for bits in range(1 << (n + 2)):
        word = bits
        while word >> n:
            word = (word & mask) ^ (word >> n)
        vectors = []
        for _ in range(n):
            vectors.append(word)
            word = ((word << 1) & mask) | (word >> (n - 1))
        expected = CodeSet.from_basis(n, 0, vectors)
        assert cyclic_code_from_generator(BinPoly(bits), n) == expected, bits


class TestTypes:
    def test_worked_example_formulas(self):
        t = type_from_formulas(WORKED)
        assert t.triple() == (1, 1, 2)
        assert (t.k0p, t.k0pp, t.k2p, t.k2pp) == (0, 1, 2, 0)

    def test_worked_example_enumeration_matches(self):
        assert type_from_enumeration(closure_of_spec(WORKED)) == type_from_formulas(WORKED)

    def test_case2_separable_splits(self):
        spec = CodeSpec(3, 3, 2, P("1+x"), ZERO, P("1+x"))
        t = type_from_formulas(spec)
        assert t.k0 == t.k0p == 3 - 1
        assert t.k0pp == 0 and t.k2 == 0
        assert t == type_from_enumeration(closure_of_spec(spec))

    def test_case3_f_equals_g(self):
        spec = CodeSpec(2, 3, 3, P("1+x^2"), ZERO, P("1+x"), P("1+x"))
        t = type_from_formulas(spec)
        assert t.k1 == 2 - 2  # alpha - deg a when f = g
        assert t.k2 == 3 - 1

    def test_zero_code_enumeration(self):
        zero = CodeSet.from_basis(2, 3, [])
        t = type_from_enumeration(zero)
        assert t.triple() == (0, 0, 0)

    def test_full_ambient_enumeration(self):
        alpha, beta = 2, 2
        vectors = [1 << i for i in range(alpha + 2 * beta)]
        t = type_from_enumeration(CodeSet.from_basis(alpha, beta, vectors))
        assert (t.k1, t.k2, t.k0) == (alpha, beta, alpha)

    def test_separable_sweep_formulas_match_enumeration(self):
        for alpha, beta in ((1, 1), (2, 3), (3, 3), (3, 1)):
            for spec in iter_valid_specs(alpha, beta):
                if not spec.is_separable():
                    continue
                stated = type_from_formulas(spec)
                measured = type_from_enumeration(closure_of_spec(spec))
                assert stated == measured, spec

    def test_size_identity(self):
        for spec in iter_valid_specs(2, 3):
            code = closure_of_spec(spec)
            t = type_from_enumeration(code)
            assert len(code) == t.size()


class TestCensus:
    def test_formula_values(self):
        assert count_codes_formula(1, 1) == 6
        assert count_codes_formula(7, 7) == 216
        assert count_codes_formula(1, 3) == 18

    def test_formula_rejects_even(self):
        with pytest.raises(ValueError):
            count_codes_formula(2, 1)
        with pytest.raises(ValueError):
            count_codes_formula(1, 2)

    def test_census_1_1_against_full_subset_enumeration(self):
        # Independent mini-oracle: try all 2^8 subsets of the ambient.
        alpha = beta = 1
        n = alpha + 2 * beta
        count = 0
        for mask in range(1 << (1 << n)):
            words = [w for w in range(1 << n) if (mask >> w) & 1]
            if not words or words[0] != 0:
                continue
            wordset = set(words)
            ok = all((a ^ b) in wordset for a, b in itertools.product(words, repeat=2))
            ok = ok and all(shift_packed(w, alpha, beta) in wordset for w in words)
            ok = ok and all(umul_packed(w, alpha, beta) in wordset for w in words)
            if ok:
                count += 1
        assert count == 8
        assert count_codes_census(1, 1) == 8

    def test_census_counts_at_acceptance_pairs(self):
        # The formula predicts 6/18/12; the census finds more submodules.
        assert count_codes_census(1, 1) == 8
        assert count_codes_census(1, 3) == 24
        assert count_codes_census(3, 1) == 16

    def test_census_matches_distinct_spec_codes(self):
        # Every submodule found by the census is reachable from a spec at
        # these sizes, so the two counts coincide.
        for alpha, beta in ((1, 1), (3, 1), (1, 3)):
            seen = set()
            for spec in iter_valid_specs(alpha, beta):
                seen.add(closure_of_spec(spec).basis)
            assert len(seen) == count_codes_census(alpha, beta)

    def test_table(self):
        rows = census_table([(1, 1), (2, 1)])
        assert rows[0]["formula"] == 6 and rows[0]["census"] == 8 and rows[0]["match"] is False
        assert rows[1]["formula"] is None and rows[1]["match"] is None


def census_by_adjoining_words(alpha, beta):
    """Reference census: adjoin every nonzero ambient word to every known
    module and close again under {+, x*, u*}, from the zero module up."""
    words = range(1, 1 << (alpha + 2 * beta))
    seen = {()}
    worklist = [()]
    while worklist:
        basis = worklist.pop()
        for w in words:
            if reduce_against(w, basis) == 0:
                continue
            grown = closure_basis(list(basis) + [w], alpha, beta)
            if grown not in seen:
                seen.add(grown)
                worklist.append(grown)
    return len(seen)


def cyclotomic_coset_sizes(n):
    """Sizes of the cosets {s, 2s, 4s, ...} mod n: for odd n, the degrees
    of the irreducible factors of x^n - 1."""
    sizes, done = [], set()
    for s in range(n):
        if s in done:
            continue
        c, size = s, 0
        while c not in done:
            done.add(c)
            size += 1
            c = 2 * c % n
        sizes.append(size)
    return sizes


def crt_census(alpha, beta):
    """Pi_shared (2q + 4) * 2^#(alpha only) * 3^#(beta only), q = 2^deg p.

    The factors shared by x^alpha - 1 and x^beta - 1 are those of
    x^gcd(alpha, beta) - 1.
    """
    shared = cyclotomic_coset_sizes(math.gcd(alpha, beta))
    count = math.prod(2 * 2**d + 4 for d in shared)
    count *= 2 ** (len(cyclotomic_coset_sizes(alpha)) - len(shared))
    return count * 3 ** (len(cyclotomic_coset_sizes(beta)) - len(shared))


ORACLE_PAIRS = [(a, b) for b in (1, 2, 3) for a in range(1, 9 - 2 * b)]


@pytest.mark.parametrize("alpha, beta", ORACLE_PAIRS)
def test_census_matches_adjoining_every_word(alpha, beta):
    assert count_codes_census(alpha, beta) == census_by_adjoining_words(alpha, beta)


CRT_PAIRS = [(1, 1), (1, 3), (3, 1), (3, 3), (1, 5), (5, 1), (3, 5), (5, 3), (7, 1), (7, 3), (9, 1)]


@pytest.mark.parametrize("alpha, beta", CRT_PAIRS)
def test_census_matches_the_crt_hypothesis(alpha, beta):
    # A hypothesis recorded as data, for odd lengths; the stated formula
    # 2^C2(alpha) * 3^C2(beta) counts a shared factor as 6, not 2q + 4.
    assert count_codes_census(alpha, beta) == crt_census(alpha, beta)


class TestCbDimensions:
    def test_two_readings_differ_on_worked_example(self):
        code = closure_of_spec(WORKED)
        assert type_from_enumeration(code).k0 == 1
        assert cb_dimension(code) == 3


class TestPuncturedSizeIdentities:
    def test_cx_cy_sizes_from_type_parameters(self):
        # |C_X| = 2^(k0+k2'') and |C_Y| = 2^(k1-k0') * 4^k2
        for alpha, beta in ((1, 1), (2, 3), (3, 3)):
            seen = set()
            for spec in iter_valid_specs(alpha, beta):
                code = closure_of_spec(spec)
                if code.basis in seen:
                    continue
                seen.add(code.basis)
                t = type_from_enumeration(code)
                assert len(puncture_x(code)) == 1 << (t.k0 + t.k2pp), spec
                assert len(puncture_y(code)) == (1 << (t.k1 - t.k0p)) * (
                    1 << (2 * t.k2)
                ), spec


class TestCbGenerators:
    def test_case1_cb_equals_three_generator_closure(self):
        from z2ucodes.gf2poly import ZERO
        from z2ucodes.ringr import AmbientElement, RP_U, RPoly, reduce_mod_xn_minus_1
        from z2ucodes.codewords import enumerate_closure

        for alpha, beta in ((2, 3), (3, 3)):
            for spec in iter_valid_specs(alpha, beta, cases=(1,)):
                code = closure_of_spec(spec)
                lh = reduce_mod_xn_minus_1(spec.l * spec.h(), alpha)
                gens = [
                    AmbientElement(spec.a, RPoly(), alpha, beta),
                    AmbientElement(lh, RP_U, alpha, beta),
                    AmbientElement(ZERO, RPoly(ZERO, spec.g), alpha, beta),
                ]
                assert enumerate_closure(gens, alpha, beta) == subcode_cb(code), spec
