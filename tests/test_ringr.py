import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2ucodes.gf2poly import parse_poly, poly_mod, poly_mul, x_pow_n_minus_1
from z2ucodes.codewords import ambient_word
from z2ucodes.ringr import mu_map, reduce_rpoly, rpoly_mul_mod

import referee
from referee import RELEMS, R_ONE, R_ONE_U, R_U, R_ZERO, BinPoly, RElem, RPoly, rpoly
from referee import rpoly_mul_mod_cyclic


def RP(p, q="0"):
    """The (p, q) pair of p(x) + u*q(x), from text."""
    return parse_poly(p), parse_poly(q)


def add(a, b):
    return a[0] ^ b[0], a[1] ^ b[1]


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
            x = (2, 0)
            top = (1 << (beta - 1), 0)
            assert rpoly_mul_mod(x, top, beta) == (1, 1)

    def test_identity(self):
        rng = random.Random(2)
        for _ in range(100):
            beta = rng.randint(1, 6)
            b = (rng.getrandbits(beta), rng.getrandbits(beta))
            assert rpoly_mul_mod((1, 0), b, beta) == b

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
                return (rng.getrandbits(beta), rng.getrandbits(beta))

            a, b, c = rnd(), rnd(), rnd()
            assert rpoly_mul_mod(a, b, beta) == rpoly_mul_mod(b, a, beta)
            assert rpoly_mul_mod(rpoly_mul_mod(a, b, beta), c, beta) == rpoly_mul_mod(
                a, rpoly_mul_mod(b, c, beta), beta
            )
            assert rpoly_mul_mod(a, add(b, c), beta) == add(
                rpoly_mul_mod(a, b, beta), rpoly_mul_mod(a, c, beta)
            )

    def test_beta_fold_applications_of_x_give_unit(self):
        # multiplying by x beta times equals scaling by 1+u
        rng = random.Random(11)
        for _ in range(100):
            beta = rng.randint(1, 6)
            b = (rng.getrandbits(beta), rng.getrandbits(beta))
            acc = b
            for _ in range(beta):
                acc = rpoly_mul_mod((2, 0), acc, beta)
            assert rpoly(acc) == rpoly(b) * RPoly(BinPoly(1), BinPoly(1))


# Cross-checks of the (p, q) pair arithmetic against the referee's RPoly.
@st.composite
def rpoly_pairs(draw, width):
    """beta and two (p, q) pairs with p and q below x^(width * beta)."""
    beta = draw(st.integers(1, 7))
    part = st.integers(0, (1 << (width * beta)) - 1)
    return beta, (draw(part), draw(part)), (draw(part), draw(part))


@settings(deadline=None, max_examples=50)
@given(rpoly_pairs(1))
def test_rpoly_mul_mod_matches_the_referee(inputs):
    beta, a, b = inputs
    assert rpoly_mul_mod(a, b, beta) == referee.rpoly_mul_mod(rpoly(a), rpoly(b), beta).pair()


@settings(deadline=None, max_examples=50)
@given(rpoly_pairs(3))
def test_reduce_rpoly_matches_the_referee(inputs):
    # Reducing a product equals reducing its factors first, in the referee.
    beta, a, b = inputs
    product = (rpoly(a) * rpoly(b)).pair()
    assert reduce_rpoly(product, beta) == referee.rpoly_mul_mod(rpoly(a), rpoly(b), beta).pair()


@settings(deadline=None, max_examples=50)
@given(rpoly_pairs(2), st.integers(0, (1 << 12) - 1), st.integers(1, 6))
def test_mu_map_matches_the_referee(inputs, a, alpha):
    # mu multiplies the coefficient at x^k by (1+u)^k, after folding modulo x^beta - 1.
    beta, b, _ = inputs
    beta |= 1
    b_obj = rpoly_mul_mod_cyclic(rpoly(b), RPoly(BinPoly(1)), beta)
    expected, scale = RPoly(), RPoly(BinPoly(1))
    for k in range(beta):
        term = b_obj.coeff(k)
        expected = expected + RPoly(BinPoly(term.p << k), BinPoly(term.q << k)) * scale
        scale = scale * RPoly(BinPoly(1), BinPoly(1))
    first = (BinPoly(a) % BinPoly(x_pow_n_minus_1(alpha))).bits
    assert mu_map(a, b, alpha, beta) == (first, expected.pair())


class TestBarReduce:
    def test_definition(self):
        # Reduction modulo u keeps the p part of an R[x] element.
        assert RP("1+x", "x^2")[0] == parse_poly("1+x")
        assert RP("0", "x^2")[0] == parse_poly("0")
        assert RP("1+x", "1+x")[0] == parse_poly("1+x")

    def test_ring_homomorphism(self):
        # The p part of a product in R[x]/(x^beta - 1 - u) is the product
        # of the p parts in F2[x]/(x^beta - 1).
        rng = random.Random(13)
        for _ in range(200):
            beta = rng.randint(1, 5)
            a = (rng.getrandbits(5), rng.getrandbits(5))
            b = (rng.getrandbits(5), rng.getrandbits(5))
            xb = x_pow_n_minus_1(beta)
            assert rpoly_mul_mod(a, b, beta)[0] == poly_mod(poly_mul(a[0], b[0]), xb)
            assert add(a, b)[0] == a[0] ^ b[0]


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
        elems = [(p, q) for p in range(1 << beta) for q in range(1 << beta)]
        images = {}
        for b in elems:
            _, m = mu_map(parse_poly("1"), b, 1, beta)
            images[b] = m
        assert len(set(images.values())) == len(elems)
        rng = random.Random(17)
        pairs = (
            list(itertools.product(elems, repeat=2))
            if beta == 1
            else [(rng.choice(elems), rng.choice(elems)) for _ in range(500)]
        )
        for b1, b2 in pairs:
            prod = rpoly_mul_mod_cyclic(rpoly(b1), rpoly(b2), beta).pair()
            lhs = images[prod]
            rhs = rpoly_mul_mod(images[b1], images[b2], beta)
            assert lhs == rhs
            assert images[add(b1, b2)] == add(images[b1], images[b2])


class TestAmbient:
    def test_eager_reduction(self):
        # x^3 = x mod x^2 - 1.  Mod x^3 - 1 - u, x^4 = x*(1+u) and
        # u*x^3 = u*(1+u) = u, so x^4 + u*x^3 = x + u*(1+x).
        word = ambient_word(parse_poly("x^3"), RP("x^4", "x^3"), 2, 3)
        assert word == ambient_word(parse_poly("x"), RP("x", "1+x"), 2, 3)
        # bits [0, 2): x; [2, 5): p = x; [5, 8): q = 1+x
        assert word == 0b011_010_10


class TestGrammar:
    def test_cyclic_reduce(self):
        # Reduction modulo x^n - 1 is the one modular reduction, poly_mod.
        assert poly_mod(parse_poly("x^3"), x_pow_n_minus_1(2)) == parse_poly("x")
        assert poly_mod(parse_poly("1+x^4"), x_pow_n_minus_1(2)) == parse_poly("0")
