import random
import time

import pytest

from z2ucodes.gf2poly import (
    MINUS_INF,
    ONE,
    ZERO,
    BinPoly,
    PolyParseError,
    cyclotomic_class_count,
    divisors_of_xn_minus_1,
    factor,
    is_irreducible,
    parse_poly,
    poly_divmod,
    poly_gcd,
    reciprocal,
    x_pow_n_minus_1,
)


def P(text):
    return parse_poly(text)


class TestDivmod:
    def test_worked_example(self):
        q, r = poly_divmod(P("1+x+x^3"), P("1+x"))
        assert q == P("x+x^2")
        assert r == ONE
        assert q * P("1+x") + r == P("1+x+x^3")

    def test_identity_divisor(self):
        for bits in (0, 1, 5, 0b1101):
            p = BinPoly(bits)
            assert poly_divmod(p, ONE) == (p, ZERO)

    def test_small_dividend(self):
        assert poly_divmod(P("1+x"), P("1+x^2")) == (ZERO, P("1+x"))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(P("1+x"), ZERO)

    def test_round_trip_random(self):
        rng = random.Random(101)
        for _ in range(500):
            a = BinPoly(rng.getrandbits(24))
            b = BinPoly(rng.getrandbits(12) | 1)
            q, r = poly_divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree


class TestGcd:
    def test_worked_examples(self):
        assert poly_gcd(P("1+x^2"), P("1+x^3")) == P("1+x")
        assert poly_gcd(P("1+x"), P("1+x+x^2")) == ONE

    def test_gcd_with_zero(self):
        p = P("1+x+x^3")
        assert poly_gcd(p, ZERO) == p
        assert poly_gcd(ZERO, p) == p

    def test_gcd_of_zeros_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(ZERO, ZERO)

    def test_divides_both_and_euclid_step(self):
        rng = random.Random(7)
        for _ in range(300):
            a = BinPoly(rng.getrandbits(16))
            b = BinPoly(rng.getrandbits(16) | 1)
            g = poly_gcd(a, b)
            assert g.divides(a) and g.divides(b)
            assert g == poly_gcd(b, a % b)


class TestReciprocal:
    def test_worked_examples(self):
        assert reciprocal(P("1+x+x^3")) == P("1+x^2+x^3")
        assert reciprocal(P("1+x")) == P("1+x")
        assert reciprocal(ONE) == ONE

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            reciprocal(ZERO)

    def test_involution_on_nonzero_constant_term(self):
        rng = random.Random(5)
        for _ in range(200):
            p = BinPoly(rng.getrandbits(20) | 1)
            assert reciprocal(reciprocal(p)) == p


class TestFactor:
    def test_x7_plus_1(self):
        f = factor(x_pow_n_minus_1(7))
        assert f.expand() == x_pow_n_minus_1(7)
        assert sorted(str(p) for p, _ in f) == ["1+x", "1+x+x^3", "1+x^2+x^3"]
        assert all(m == 1 for _, m in f)

    def test_x6_plus_1(self):
        f = factor(x_pow_n_minus_1(6))
        assert {(str(p), m) for p, m in f} == {("1+x", 2), ("1+x+x^2", 2)}

    def test_irreducible_input(self):
        f = factor(P("1+x"))
        assert f.factors == ((P("1+x"), 1),)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            factor(ONE)
        with pytest.raises(ValueError):
            factor(ZERO)

    def test_recombines_and_factors_irreducible(self):
        rng = random.Random(42)
        for _ in range(60):
            p = BinPoly(rng.getrandbits(14) | (1 << 14))
            f = factor(p)
            assert f.expand() == p
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
        assert {str(d) for d in divisors_of_xn_minus_1(3)} == {
            "1",
            "1+x",
            "1+x+x^2",
            "1+x^3",
        }

    def test_n1(self):
        assert {str(d) for d in divisors_of_xn_minus_1(1)} == {"1", "1+x"}

    def test_n7_count(self):
        assert len(divisors_of_xn_minus_1(7)) == 8

    def test_all_divide(self):
        for n in (2, 4, 6, 9):
            target = x_pow_n_minus_1(n)
            divisors = divisors_of_xn_minus_1(n)
            assert ONE in divisors and target in divisors
            for d in divisors:
                assert d.divides(target)
            assert len(set(divisors)) == len(divisors)


class TestTextGrammar:
    def test_round_trip(self):
        for text in ("0", "1", "x", "1+x+x^3", "x^2+x^5"):
            assert str(parse_poly(text)) == text

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
            assert str(BinPoly(bits)) == _str_by_shifts(bits)

    def test_high_degree_monomial_is_fast(self):
        start = time.perf_counter()
        assert str(BinPoly(1 << 1_000_000)) == "x^1000000"
        assert time.perf_counter() - start < 1.0


class TestDegreeMarker:
    def test_zero_degree_is_marker(self):
        assert ZERO.degree is MINUS_INF
        assert MINUS_INF == MINUS_INF
        assert MINUS_INF < 0
        assert MINUS_INF < -100
        assert not (MINUS_INF > 5)
        assert ONE.degree == 0
