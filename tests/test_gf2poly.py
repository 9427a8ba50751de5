import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2ucodes.gf2poly import (
    MAX_EXPONENT,
    PolyParseError,
    cyclotomic_class_count,
    divisors_of_xn_minus_1,
    factor,
    parse_poly,
    poly_divmod,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_pow,
    poly_text,
    reciprocal,
    x_pow_n_minus_1,
    xn_minus_1_mod,
)

from referee import MINUS_INF, ONE, ZERO, BinPoly, expand, is_irreducible


def P(text):
    return parse_poly(text)


class TestDivmod:
    def test_worked_example(self):
        q, r = poly_divmod(P("1+x+x^3"), P("1+x"))
        assert q == P("x+x^2")
        assert r == 1
        assert poly_mul(q, P("1+x")) ^ r == P("1+x+x^3")

    def test_identity_divisor(self):
        for p in (0, 1, 5, 0b1101):
            assert poly_divmod(p, 1) == (p, 0)

    def test_small_dividend(self):
        assert poly_divmod(P("1+x"), P("1+x^2")) == (0, P("1+x"))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(P("1+x"), 0)

    def test_round_trip_random(self):
        rng = random.Random(101)
        for _ in range(500):
            a = rng.getrandbits(24)
            b = rng.getrandbits(12) | 1
            q, r = poly_divmod(a, b)
            assert poly_mul(q, b) ^ r == a
            assert r.bit_length() < b.bit_length()


class TestGcd:
    def test_worked_examples(self):
        assert poly_gcd(P("1+x^2"), P("1+x^3")) == P("1+x")
        assert poly_gcd(P("1+x"), P("1+x+x^2")) == 1

    def test_gcd_with_zero(self):
        p = P("1+x+x^3")
        assert poly_gcd(p, 0) == p
        assert poly_gcd(0, p) == p

    def test_gcd_of_zeros_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(0, 0)

    def test_divides_both_and_euclid_step(self):
        rng = random.Random(7)
        for _ in range(300):
            a = rng.getrandbits(16)
            b = rng.getrandbits(16) | 1
            g = poly_gcd(a, b)
            assert BinPoly(g).divides(BinPoly(a)) and BinPoly(g).divides(BinPoly(b))
            assert g == poly_gcd(b, poly_mod(a, b))


class TestReciprocal:
    def test_worked_examples(self):
        assert reciprocal(P("1+x+x^3")) == P("1+x^2+x^3")
        assert reciprocal(P("1+x")) == P("1+x")
        assert reciprocal(1) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            reciprocal(0)

    def test_involution_on_nonzero_constant_term(self):
        rng = random.Random(5)
        for _ in range(200):
            p = rng.getrandbits(20) | 1
            assert reciprocal(reciprocal(p)) == p


class TestFactor:
    def test_x7_plus_1(self):
        f = factor(x_pow_n_minus_1(7))
        assert expand(f) == x_pow_n_minus_1(7)
        assert sorted(poly_text(p) for p, _ in f) == ["1+x", "1+x+x^3", "1+x^2+x^3"]
        assert all(m == 1 for _, m in f)

    def test_x6_plus_1(self):
        f = factor(x_pow_n_minus_1(6))
        assert {(poly_text(p), m) for p, m in f} == {("1+x", 2), ("1+x+x^2", 2)}

    def test_irreducible_input(self):
        f = factor(P("1+x"))
        assert f.factors == ((P("1+x"), 1),)

    def test_constant_rejected(self):
        for p in (1, 0):
            with pytest.raises(ValueError, match="^factor requires degree >= 1$"):
                factor(p)

    def test_recombines_and_factors_irreducible(self):
        rng = random.Random(42)
        for _ in range(60):
            p = rng.getrandbits(14) | (1 << 14)
            f = factor(p)
            assert expand(f) == p
            for q, _ in f:
                assert is_irreducible(q)


class TestCyclotomic:
    def test_worked_examples(self):
        assert cyclotomic_class_count(7) == 3
        assert cyclotomic_class_count(1) == 1
        assert cyclotomic_class_count(3) == 2

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            cyclotomic_class_count(0)

    def test_matches_irreducible_factor_count_for_odd(self):
        for t in (1, 3, 5, 7, 9, 11, 13, 15):
            if t == 1:
                assert len(factor(x_pow_n_minus_1(1))) == cyclotomic_class_count(1)
                continue
            assert len(factor(x_pow_n_minus_1(t))) == cyclotomic_class_count(t)


class TestDivisors:
    def test_n3(self):
        assert {poly_text(d) for d in divisors_of_xn_minus_1(3)} == {
            "1",
            "1+x",
            "1+x+x^2",
            "1+x^3",
        }

    def test_n1(self):
        assert {poly_text(d) for d in divisors_of_xn_minus_1(1)} == {"1", "1+x"}

    def test_n7_count(self):
        assert len(divisors_of_xn_minus_1(7)) == 8

    def test_all_divide(self):
        for n in (2, 4, 6, 9):
            target = x_pow_n_minus_1(n)
            divisors = divisors_of_xn_minus_1(n)
            assert 1 in divisors and target in divisors
            for d in divisors:
                assert BinPoly(d).divides(BinPoly(target))
            assert len(set(divisors)) == len(divisors)


class TestXnMinus1Mod:
    @pytest.mark.parametrize("n, remainder", [(10**12, "1+x"), (3 * 10**11, "0")])
    def test_known_answer_at_huge_n(self, n, remainder):
        # x^3 = 1 mod 1+x+x^2, so x^n-1 = x^(n mod 3)-1: zero exactly when 3 | n.
        assert xn_minus_1_mod(n, P("1+x+x^2")) == P(remainder)

    def test_zero_modulus_rejected(self):
        with pytest.raises(ZeroDivisionError):
            xn_minus_1_mod(5, 0)


# n past the single-power prefix, for moduli of up to 80 bits, exercises
# the squaring loop as well as the first reduction.
@settings(deadline=None, max_examples=300)
@given(st.integers(1, 3000), st.integers(1, (1 << 80) - 1))
def test_xn_minus_1_mod_matches_the_built_polynomial(n, m):
    assert xn_minus_1_mod(n, m) == (BinPoly(x_pow_n_minus_1(n)) % BinPoly(m)).bits


class TestTextGrammar:
    def test_round_trip(self):
        for text in ("0", "1", "x", "1+x+x^3", "x^2+x^5"):
            assert poly_text(parse_poly(text)) == text

    def test_whitespace_ignored(self):
        assert parse_poly(" 1 + x + x^3 ") == P("1+x+x^3")

    def test_bad_terms(self):
        # Superscript, Arabic-Indic and fullwidth digits pass str.isdigit.
        for text in ("", "y", "x^", "1+", "X", "x^\u00b2", "x^\u0663", "x^\uff10", "x^" + "1" * 5000):
            with pytest.raises(PolyParseError):
                parse_poly(text)

    @pytest.mark.parametrize(
        "exp",
        ["\u00b2", "\u0663", "\uff10", "1" * 5000],
        ids=["superscript", "arabic-indic", "fullwidth", "5000-digits"],
    )
    def test_bad_exponent_names_its_column(self, exp):
        with pytest.raises(PolyParseError, match="^column 5: bad exponent") as info:
            parse_poly("1+x^" + exp)
        assert info.value.column == 5


def test_exponent_above_the_limit_names_its_column():
    # The limit is refused first, so the huge exponent below is never built.
    assert parse_poly(f"x^{MAX_EXPONENT}").bit_length() - 1 == MAX_EXPONENT
    for exp in (MAX_EXPONENT + 1, 99999999999):
        message = f"^column 5: exponent exceeds the limit {MAX_EXPONENT}$"
        with pytest.raises(PolyParseError, match=message) as info:
            parse_poly(f"1+x^{exp}")
        assert info.value.column == 5


def _str_by_shifts(bits):
    """The text of a polynomial, one shift per coefficient."""
    if bits == 0:
        return "0"
    terms = []
    for i in range(bits.bit_length()):
        if (bits >> i) & 1:
            terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
    return "+".join(terms)


class TestStr:
    def test_matches_shift_formula(self):
        rng = random.Random(5)
        for _ in range(2000):
            bits = rng.getrandbits(rng.randint(0, 200))
            assert poly_text(bits) == _str_by_shifts(bits)

    def test_high_degree_monomial_is_fast(self):
        start = time.perf_counter()
        assert poly_text(1 << 1_000_000) == "x^1000000"
        assert time.perf_counter() - start < 1.0


class TestDegreeMarker:
    def test_zero_degree_is_marker(self):
        # The referee's zero polynomial has degree -inf; the package's
        # bit_length() - 1 reads -1, and its callers guard zero.
        assert ZERO.degree is MINUS_INF
        assert MINUS_INF == MINUS_INF
        assert MINUS_INF < 0
        assert MINUS_INF < -100
        assert not (MINUS_INF > 5)
        assert ONE.degree == 0


# Cross-checks of the int arithmetic against the referee's BinPoly.
polys = st.integers(0, (1 << 70) - 1)
nonzero = st.integers(1, (1 << 40) - 1)


@settings(deadline=None, max_examples=50)
@given(polys, polys)
def test_mul_matches_the_referee(a, b):
    assert poly_mul(a, b) == (BinPoly(a) * BinPoly(b)).bits


@settings(deadline=None, max_examples=50)
@given(polys, nonzero)
def test_divmod_matches_the_referee(a, b):
    q, r = divmod(BinPoly(a), BinPoly(b))
    assert poly_divmod(a, b) == (q.bits, r.bits)
    assert poly_mod(a, b) == r.bits


@settings(deadline=None, max_examples=50)
@given(polys, polys)
def test_gcd_matches_euclid_on_the_referee(a, b):
    if not a and not b:
        return
    x, y = BinPoly(a), BinPoly(b)
    while not y.is_zero():
        x, y = y, x % y
    assert poly_gcd(a, b) == x.bits


@settings(deadline=None, max_examples=50)
@given(st.integers(0, (1 << 12) - 1), st.integers(0, 12))
def test_pow_matches_the_referee(p, e):
    assert poly_pow(p, e) == (BinPoly(p) ** e).bits


@settings(deadline=None, max_examples=50)
@given(st.integers(1, (1 << 70) - 1))
def test_reciprocal_matches_reversed_coefficients(p):
    deg = BinPoly(p).degree
    expected = sum(BinPoly(p).coeff(i) << (deg - i) for i in range(deg + 1))
    assert reciprocal(p) == expected


@settings(deadline=None, max_examples=50)
@given(polys)
def test_text_matches_the_referee_and_parses_back(p):
    assert poly_text(p) == str(BinPoly(p))
    assert parse_poly(poly_text(p)) == p
