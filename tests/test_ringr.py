import itertools
import random

import pytest

from z2ucodes.gf2poly import BinPoly, parse_poly
from z2ucodes.ringr import (
    RELEMS,
    R_ONE,
    R_ONE_U,
    R_U,
    R_ZERO,
    AmbientElement,
    RElem,
    RPoly,
    bar_reduce,
    mu_map,
    reduce_mod_xn_minus_1,
    rpoly_mul_mod,
    rpoly_mul_mod_cyclic,
)


def RP(p, q="0"):
    return RPoly(parse_poly(p), parse_poly(q))


class TestRElem:
    def test_only_four_values(self):
        assert len({RElem(p, q) for p in (0, 1) for q in (0, 1)}) == 4

    def test_nilpotent_u(self):
        assert R_U * R_U is R_ZERO

    def test_unit_one_plus_u(self):
        assert R_ONE_U * R_ONE_U is R_ONE

    def test_identity(self):
        for e in RELEMS:
            assert R_ONE * e is e

    def test_full_multiplication_table(self):
        # (p1+uq1)(p2+uq2) = p1p2 + u(p1q2+p2q1)
        for a, b in itertools.product(RELEMS, repeat=2):
            got = a * b
            assert got.p == (a.p & b.p)
            assert got.q == ((a.p & b.q) ^ (b.p & a.q))


class TestRPolyMulMod:
    def test_wraparound_constant(self):
        for beta in (1, 2, 3, 4, 7):
            x = RPoly(BinPoly(2))
            top = RPoly(BinPoly(1 << (beta - 1)))
            assert rpoly_mul_mod(x, top, beta) == RPoly(BinPoly(1), BinPoly(1))

    def test_identity(self):
        rng = random.Random(2)
        for _ in range(100):
            beta = rng.randint(1, 6)
            b = RPoly(BinPoly(rng.getrandbits(beta)), BinPoly(rng.getrandbits(beta)))
            assert rpoly_mul_mod(RPoly(BinPoly(1)), b, beta) == b

    def test_worked_example_beta3(self):
        got = rpoly_mul_mod(RP("x^2", "x"), RP("x^2"), 3)
        assert got == RP("x", "1+x")

    def test_beta_zero_rejected(self):
        with pytest.raises(ValueError):
            rpoly_mul_mod(RP("1"), RP("1"), 0)

    def test_commutative_associative_distributive(self):
        rng = random.Random(9)
        for _ in range(200):
            beta = rng.randint(1, 5)

            def rnd():
                return RPoly(BinPoly(rng.getrandbits(beta)), BinPoly(rng.getrandbits(beta)))

            a, b, c = rnd(), rnd(), rnd()
            assert rpoly_mul_mod(a, b, beta) == rpoly_mul_mod(b, a, beta)
            assert rpoly_mul_mod(rpoly_mul_mod(a, b, beta), c, beta) == rpoly_mul_mod(
                a, rpoly_mul_mod(b, c, beta), beta
            )
            assert rpoly_mul_mod(a, b + c, beta) == rpoly_mul_mod(a, b, beta) + rpoly_mul_mod(
                a, c, beta
            )

    def test_beta_fold_applications_of_x_give_unit(self):
        # multiplying by x beta times equals scaling by 1+u
        rng = random.Random(11)
        for _ in range(100):
            beta = rng.randint(1, 6)
            b = RPoly(BinPoly(rng.getrandbits(beta)), BinPoly(rng.getrandbits(beta)))
            acc = b
            for _ in range(beta):
                acc = rpoly_mul_mod(RPoly(BinPoly(2)), acc, beta)
            assert acc == b * RPoly(BinPoly(1), BinPoly(1))


class TestBarReduce:
    def test_definition(self):
        assert bar_reduce(RP("1+x", "x^2")) == parse_poly("1+x")
        assert bar_reduce(RP("0", "x^2")) == parse_poly("0")
        assert bar_reduce(RP("1+x", "1+x")) == parse_poly("1+x")

    def test_ring_homomorphism(self):
        rng = random.Random(13)
        for _ in range(200):
            a = RPoly(BinPoly(rng.getrandbits(5)), BinPoly(rng.getrandbits(5)))
            b = RPoly(BinPoly(rng.getrandbits(5)), BinPoly(rng.getrandbits(5)))
            assert bar_reduce(a * b) == bar_reduce(a) * bar_reduce(b)
            assert bar_reduce(a + b) == bar_reduce(a) + bar_reduce(b)


class TestMuMap:
    def test_worked_examples(self):
        a = parse_poly("1")
        assert mu_map(a, RP("x"), 1, 3)[1] == RP("x", "x")
        assert mu_map(a, RP("x^2"), 1, 3)[1] == RP("x^2")
        assert mu_map(a, RP("1"), 1, 3)[1] == RP("1")

    def test_even_beta_rejected(self):
        with pytest.raises(ValueError):
            mu_map(parse_poly("1"), RP("x"), 1, 2)

    @pytest.mark.parametrize("beta", [1, 3])
    def test_ring_isomorphism_exhaustive(self, beta):
        elems = [
            RPoly(BinPoly(p), BinPoly(q))
            for p in range(1 << beta)
            for q in range(1 << beta)
        ]
        images = {}
        for b in elems:
            _, m = mu_map(parse_poly("1"), b, 1, beta)
            images[(b.p.bits, b.q.bits)] = m
        assert len({(m.p.bits, m.q.bits) for m in images.values()}) == len(elems)
        rng = random.Random(17)
        pairs = (
            list(itertools.product(elems, repeat=2))
            if beta == 1
            else [(rng.choice(elems), rng.choice(elems)) for _ in range(500)]
        )
        for b1, b2 in pairs:
            prod = rpoly_mul_mod_cyclic(b1, b2, beta)
            lhs = images[(prod.p.bits, prod.q.bits)]
            rhs = rpoly_mul_mod(images[(b1.p.bits, b1.q.bits)], images[(b2.p.bits, b2.q.bits)], beta)
            assert lhs == rhs
            s = b1 + b2
            assert images[(s.p.bits, s.q.bits)] == images[(b1.p.bits, b1.q.bits)] + images[
                (b2.p.bits, b2.q.bits)
            ]


class TestAmbient:
    def test_eager_reduction(self):
        amb = AmbientElement(parse_poly("x^3"), RP("x^4"), 2, 3)
        assert amb.first == parse_poly("x")
        assert amb.second == RP("x", "x")

    def test_addition_and_mismatch(self):
        a = AmbientElement(parse_poly("1"), RP("x"), 2, 3)
        b = AmbientElement(parse_poly("x"), RP("x"), 2, 3)
        assert (a + b).first == parse_poly("1+x")
        assert (a + b).second.is_zero()
        with pytest.raises(ValueError):
            a + AmbientElement(parse_poly("1"), RP("1"), 2, 2)


class TestGrammar:
    def test_str_table(self):
        # (p, q) -> the text of p(x) + u*q(x)
        table = [
            ("0", "0", "0"),
            ("1", "0", "1"),
            ("0", "1", "u"),
            ("1", "1", "(1+u)"),
            ("1+x^2", "1+x", "(1+u)+u*x+x^2"),
            ("0", "x^3", "u*x^3"),
            ("1+x", "x", "1+(1+u)*x"),
        ]
        for p, q, text in table:
            assert str(RP(p, q)) == text

    def test_cyclic_reduce(self):
        assert reduce_mod_xn_minus_1(parse_poly("x^3"), 2) == parse_poly("x")
        assert reduce_mod_xn_minus_1(parse_poly("1+x^4"), 2) == parse_poly("0")
