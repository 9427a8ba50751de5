import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from z2ucodes import codewords
from z2ucodes.gf2poly import parse_poly
from z2ucodes.codewords import (
    CodeSet,
    CodeSpec,
    closure_of_spec,
    iter_valid_specs,
)
from z2ucodes.gray import (
    bit_reverse,
    format_binary_code,
    gray_dimension_formula,
    gray_block_packed,
    gray_image,
    gray_interleaved_packed,
    is_double_cyclic,
    lee_weight_packed,
    min_distance,
    self_dual_transfer,
)

from referee import R_ONE, R_ONE_U, R_U, R_ZERO, Codeword, gray_map, gray_symbol, lee_weight
from referee import gray_interleaved_by_bits, min_distance_scan, word_array


def P(text):
    return parse_poly(text)


WORKED = CodeSpec(2, 3, 1, P("1+x^2"), P("1+x"), P("1+x"))


class TestSymbols:
    def test_table(self):
        assert gray_symbol(R_ZERO) == (0, 0)
        assert gray_symbol(R_ONE) == (0, 1)
        assert gray_symbol(R_U) == (1, 1)
        assert gray_symbol(R_ONE_U) == (1, 0)


class TestGrayMap:
    def test_worked_examples(self):
        c = Codeword((1,), (R_ONE_U, R_U))
        assert gray_map(c, "interleaved") == (1, 1, 0, 1, 1)
        assert gray_map(c, "block") == (1, 1, 1, 0, 1)
        z = Codeword.zero(1, 2)
        for layout in ("interleaved", "block"):
            assert gray_map(z, layout) == (0,) * 5

    def test_layouts_are_permutations_of_each_other(self):
        rng = random.Random(31)
        for _ in range(200):
            alpha, beta = rng.randint(1, 4), rng.randint(1, 4)
            c = Codeword.from_packed(rng.getrandbits(alpha + 2 * beta), alpha, beta)
            a = sorted(gray_map(c, "interleaved"))
            b = sorted(gray_map(c, "block"))
            assert a == b

    def test_unknown_layout(self):
        with pytest.raises(ValueError):
            gray_map(Codeword.zero(1, 1), "diagonal")


class TestLeeWeight:
    def test_worked_examples(self):
        assert lee_weight(Codeword((), (R_U, R_U, R_U))) == 6
        assert lee_weight(Codeword.zero(2, 3)) == 0
        assert lee_weight(Codeword((1,), (R_ONE_U,))) == 2

    def test_symbol_weights(self):
        weights = {R_ZERO: 0, R_ONE: 1, R_U: 2, R_ONE_U: 1}
        for e, w in weights.items():
            assert lee_weight(Codeword((), (e,))) == w

    @pytest.mark.parametrize("alpha,beta", [(1, 1), (2, 2)])
    def test_isometry_exhaustive(self, alpha, beta):
        n = alpha + 2 * beta
        words = [Codeword.from_packed(w, alpha, beta) for w in range(1 << n)]
        for c1 in words:
            for c2 in words:
                dl = lee_weight(c1 + c2)
                for layout in ("interleaved", "block"):
                    g1, g2 = gray_map(c1, layout), gray_map(c2, layout)
                    assert dl == sum(b1 ^ b2 for b1, b2 in zip(g1, g2))


class TestGrayMapPacked:
    """The packed Gray maps against the referee's `gray_map`."""

    @staticmethod
    def _check(words, alpha, beta):
        n = alpha + 2 * beta
        layouts = {"interleaved": gray_interleaved_packed, "block": gray_block_packed}
        for layout, to_image in layouts.items():
            for w in words:
                image = to_image(w, alpha, beta)
                bits = tuple((image >> i) & 1 for i in range(n))
                assert bits == gray_map(Codeword.from_packed(w, alpha, beta), layout), (w, layout)

    @pytest.mark.parametrize("alpha,beta", [(1, 1), (2, 2), (3, 2)])
    def test_every_word(self, alpha, beta):
        self._check(range(1 << (alpha + 2 * beta)), alpha, beta)

    def test_seeded_words_at_7_7(self):
        rng = random.Random(62)
        self._check([rng.getrandbits(21) for _ in range(2_000)], 7, 7)


@st.composite
def interleaved_inputs(draw):
    """A word of alpha + 2*beta bits, alpha in 0..10 and beta in 0..40:
    words past 63 bits, and beta = 0 with no R block at all."""
    alpha = draw(st.integers(0, 10))
    beta = draw(st.integers(0, 40))
    return draw(st.integers(0, (1 << (alpha + 2 * beta)) - 1)), alpha, beta


@settings(deadline=None, max_examples=300)
@given(interleaved_inputs())
@example((0, 0, 0))
@example(((1 << 90) - 1, 10, 40))
@example((0x9E3779B97F4A7C15, 0, 32))
def test_interleaved_image_matches_the_bitwise_referee(case):
    w, alpha, beta = case
    assert gray_interleaved_packed(w, alpha, beta) == gray_interleaved_by_bits(w, alpha, beta)


def test_interleaved_image_of_int64_arrays_matches_the_bitwise_referee():
    rng = random.Random(30)
    for alpha, beta in [(0, 1), (3, 3), (1, 31), (11, 26)]:
        words = [rng.getrandbits(alpha + 2 * beta) for _ in range(200)]
        images = gray_interleaved_packed(np.array(words, dtype=np.int64), alpha, beta)
        assert images.tolist() == [gray_interleaved_by_bits(w, alpha, beta) for w in words]


class TestLeeWeightPacked:
    """The packed Lee weight against the referee's `lee_weight`."""

    @staticmethod
    def _check(words, alpha, beta):
        expected = [lee_weight(Codeword.from_packed(w, alpha, beta)) for w in words]
        assert [lee_weight_packed(w, alpha, beta) for w in words] == expected
        arr = [lee_weight_packed(w, alpha, beta) for w in np.array(words, dtype=np.int64).tolist()]
        assert arr == expected

    @pytest.mark.parametrize("alpha,beta", [(1, 1), (2, 2), (3, 2)])
    def test_every_word(self, alpha, beta):
        self._check(list(range(1 << (alpha + 2 * beta))), alpha, beta)

    def test_seeded_words_at_7_7(self):
        rng = random.Random(61)
        self._check([rng.getrandbits(21) for _ in range(10_000)], 7, 7)


class TestGrayImage:
    def test_worked_example(self):
        code = closure_of_spec(WORKED)
        img = gray_image(code, "block")
        assert img.n == 8
        assert img.rank == 5
        assert len(img) == len(code)

    def test_injective_on_sweep(self):
        for spec in list(iter_valid_specs(2, 3))[::7]:
            code = closure_of_spec(spec)
            for layout in ("interleaved", "block"):
                assert len(gray_image(code, layout)) == len(code)

    def test_unknown_layout_rejected(self):
        with pytest.raises(ValueError):
            gray_image(CodeSet.from_basis(1, 1, []), "diagonal")

    def test_image_linear_always(self):
        # phi is linear per symbol here, so the image of a submodule is the
        # linear code spanned by the mapped basis: it holds every mapped word.
        for spec in list(iter_valid_specs(3, 3))[::11]:
            code = closure_of_spec(spec)
            img = gray_image(code, "interleaved")
            words = gray_interleaved_packed(word_array(code), 3, 3)
            assert all(img.contains_packed(w) for w in words)


@st.composite
def systematic_codes(draw):
    """A code of 32 to 40 bits and rank 13 to 16: basis vector i is bit
    i plus drawn bits above the rank."""
    alpha = draw(st.integers(0, 16))
    beta = draw(st.integers((33 - alpha) // 2, (40 - alpha) // 2))
    k = draw(st.integers(13, 16))
    tail = st.integers(0, (1 << (alpha + 2 * beta - k)) - 1)
    tails = draw(st.lists(tail, min_size=k, max_size=k))
    rows = [(1 << i) | (t << k) for i, t in enumerate(tails)]
    return CodeSet.from_basis(alpha, beta, rows)


def direct_sum(c1: CodeSet, c2: CodeSet) -> CodeSet:
    """C1 + C2 on disjoint coordinates: each block of C2 placed after the
    same block of C1."""
    alpha, beta = c1.alpha + c2.alpha, c1.beta + c2.beta

    def place(w, code, da, db):
        a = w & ((1 << code.alpha) - 1)
        p = (w >> code.alpha) & ((1 << code.beta) - 1)
        q = w >> (code.alpha + code.beta)
        return (a << da) | (p << (alpha + db)) | (q << (alpha + beta + db))

    rows = [place(w, c1, 0, 0) for w in c1.basis]
    rows += [place(w, c2, c1.alpha, c1.beta) for w in c2.basis]
    return CodeSet.from_basis(alpha, beta, rows)


class TestMinDistance:
    def test_worked_example(self):
        assert min_distance(closure_of_spec(WORKED)) == 2

    def test_full_ambient(self):
        full = CodeSet.from_basis(1, 1, [1, 2, 4])
        assert min_distance(full) == 1

    def test_repetition_style(self):
        spec = CodeSpec(3, 1, 2, P("1+x+x^2"), 0, P("1+x"))
        code = closure_of_spec(spec)
        assert min_distance(code) == 3

    def test_trivial_rejected(self):
        with pytest.raises(ValueError):
            min_distance(CodeSet.from_basis(1, 1, []))

    @pytest.mark.parametrize("alpha, beta", [(3, 3), (2, 6), (7, 3), (3, 7)])
    def test_matches_the_scan_on_every_code(self, alpha, beta):
        seen = set()
        for spec in iter_valid_specs(alpha, beta):
            code = closure_of_spec(spec)
            if code.rank and code.basis not in seen:
                seen.add(code.basis)
                assert min_distance(code) == min_distance_scan(code), spec

    def test_full_code_builds_no_word_set(self, monkeypatch):
        full = closure_of_spec(CodeSpec(7, 7, 1, 1, 0, 1))

        def refuse(*args, **kwargs):
            raise AssertionError("the distance should come from the basis alone")

        monkeypatch.setattr(codewords, "span_array", refuse)
        monkeypatch.setattr(codewords, "xor_table", refuse)
        monkeypatch.setattr(CodeSet, "packed", refuse)
        assert min_distance(full) == 1

    @settings(deadline=None, max_examples=40)
    @given(systematic_codes(), systematic_codes())
    def test_direct_sum_past_the_scan(self, c1, c2):
        # Lee weights add over disjoint coordinates, so the lightest word
        # of C1 + C2 is the lighter of the two pieces' lightest words.
        total = direct_sum(c1, c2)
        assert total.rank > 24 and total.n > 63
        assert min_distance(total) == min(min_distance_scan(c1), min_distance_scan(c2))


class TestDoubleCyclic:
    def test_extremes(self):
        from z2ucodes.codewords import BinaryCode

        zero = BinaryCode.from_basis(8, 0, [])
        assert is_double_cyclic(zero, 2, 6)
        full = BinaryCode.from_basis(8, 0, [1 << i for i in range(8)])
        assert is_double_cyclic(full, 2, 6)

    def test_block_layout_images_odd_beta(self):
        for spec in list(iter_valid_specs(2, 3))[::5]:
            code = closure_of_spec(spec)
            img = gray_image(code, "block")
            assert is_double_cyclic(img, 2, 6), spec

    def test_block_layout_images_even_beta(self):
        for spec in list(iter_valid_specs(1, 2))[::3]:
            code = closure_of_spec(spec)
            img = gray_image(code, "block")
            assert is_double_cyclic(img, 1, 4), spec

    def test_length_mismatch(self):
        from z2ucodes.codewords import BinaryCode

        with pytest.raises(ValueError):
            is_double_cyclic(BinaryCode.from_basis(8, 0, []), 2, 4)

    def test_image_of_shift_is_double_shift(self):
        rng = random.Random(33)
        from z2ucodes.gray import gray_block_packed

        for _ in range(300):
            alpha, beta = rng.randint(1, 5), rng.randint(1, 5)
            w = rng.getrandbits(alpha + 2 * beta)
            from z2ucodes.codewords import shift_packed

            lhs = gray_block_packed(shift_packed(w, alpha, beta), alpha, beta)
            g = gray_block_packed(w, alpha, beta)
            amask = (1 << alpha) - 1
            ymask = (1 << (2 * beta)) - 1
            a, y = g & amask, g >> alpha
            a = ((a << 1) | (a >> (alpha - 1))) & amask
            y = ((y << 1) | (y >> (2 * beta - 1))) & ymask
            assert lhs == (a | (y << alpha))


class TestDimensionFormula:
    def test_worked_example(self):
        assert gray_dimension_formula(WORKED) == 5

    def test_full_space(self):
        spec = CodeSpec(2, 3, 1, P("1"), 0, P("1"))
        assert gray_dimension_formula(spec) == 8

    def test_case2_reading(self):
        spec = CodeSpec(2, 3, 2, P("1+x"), 0, P("1+x"))
        assert gray_dimension_formula(spec) == 2 + 6 - 1 - (1 + 3)

    def test_matches_rank_on_separable_sweep(self):
        for alpha, beta in ((2, 3), (3, 3), (3, 1)):
            for spec in iter_valid_specs(alpha, beta):
                if not spec.is_separable():
                    continue
                assert gray_dimension_formula(spec) == closure_of_spec(spec).rank, spec


class TestSelfDualTransfer:
    def test_separable_code(self):
        spec = CodeSpec(2, 3, 1, P("1+x"), 0, P("1+x"))
        rep = self_dual_transfer(closure_of_spec(spec))
        assert rep.image_dual_equal == {"interleaved": True, "block": True}
        assert not rep.code_self_dual

    def test_zero_code(self):
        rep = self_dual_transfer(CodeSet.from_basis(1, 1, []))
        assert all(rep.image_dual_equal.values())

    def test_self_dual_example(self):
        spec = CodeSpec(2, 1, 2, P("1+x"), 0, P("1"))
        rep = self_dual_transfer(closure_of_spec(spec))
        assert rep.code_self_dual
        assert rep.ok()
        assert rep.image_self_dual == {"interleaved": True, "block": True}


class TestExport:
    def test_bit_reverse(self):
        assert bit_reverse(0b001, 3) == 0b100
        assert bit_reverse(0b110, 3) == 0b011

    def test_golden_format(self):
        code = closure_of_spec(WORKED)
        out = format_binary_code(gray_image(code, "block"), "block")
        lines = out.splitlines()
        assert lines[0] == "n=8 k=5 d=2 layout=block"
        assert len(lines) == 1 + 32
        assert lines[1] == "00"
        assert lines[1:] == sorted(lines[1:])
