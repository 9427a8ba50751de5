"""Cross-checks of the basis-only operations against word-level results.

Every reference below is computed in the test from a word array with
numpy, independently of the basis arithmetic the library uses: the
materialized ``packed()`` words of fixed codes as an array, or a
Python-set span of drawn vectors.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2ucodes.gf2poly import parse_poly
from z2ucodes.codewords import (
    CodeSet,
    CodeSpec,
    closure_of_spec,
    is_constacyclic,
    iter_valid_specs,
    shift_packed,
    span_array,
)
from z2ucodes.gray import (
    LAYOUTS,
    gray_block_packed,
    gray_image,
    gray_interleaved_packed,
    is_double_cyclic,
)
from z2ucodes.structure import puncture_x, puncture_y, subcode_cb, type_from_enumeration

from referee import word_array


def _sweep_codes():
    codes = {}
    for pair in [(1, 2), (2, 3), (3, 3)]:
        for spec in iter_valid_specs(*pair):
            code = closure_of_spec(spec)
            codes.setdefault((pair, code.basis), code)
    return list(codes.values())


def _random_codes():
    rng = random.Random(91)
    codes = []
    for _ in range(150):
        beta = rng.randint(1, 4)
        alpha = rng.randint(0, 4)
        nbits = alpha + 2 * beta
        vectors = [rng.getrandbits(nbits) for _ in range(rng.randint(0, 6))]
        codes.append(CodeSet.from_basis(alpha, beta, vectors))
    return codes


SWEEP = _sweep_codes()
RANDOM = _random_codes()
ALL = SWEEP + RANDOM


def _log2(count: int) -> int:
    assert count > 0 and count & (count - 1) == 0
    return count.bit_length() - 1


def _double_shift_words(arr, alpha, two_beta):
    amask = (1 << alpha) - 1
    ymask = (1 << two_beta) - 1
    a = arr & amask
    y = arr >> alpha
    if alpha:
        a = ((a << 1) | (a >> (alpha - 1))) & amask
    if two_beta:
        y = ((y << 1) | (y >> (two_beta - 1))) & ymask
    return a | (y << alpha)


def _closed_under(arr, image):
    return bool(np.array_equal(np.sort(image), arr))


def _gray_words(arr, alpha, beta, layout):
    to_image = gray_block_packed if layout == "block" else gray_interleaved_packed
    return np.sort(to_image(arr, alpha, beta))


def _cb_words(arr, alpha, beta):
    pmask = ((1 << beta) - 1) << alpha
    return arr[(arr & pmask) == 0]


def _type_from_words(arr, alpha, beta):
    """(k0, k1, k2, k0', k0'', k2', k2'') counted on the words."""
    amask = (1 << alpha) - 1
    pmask = ((1 << beta) - 1) << alpha
    ymask = ((1 << (2 * beta)) - 1) << alpha
    cb = _cb_words(arr, alpha, beta)
    yonly = arr[(arr & amask) == 0]
    k2 = _log2(len(arr)) - _log2(len(cb))
    k0 = _log2(len(np.unique(cb & amask)))
    k0p = _log2(len(arr[(arr & ymask) == 0]))
    k2p = _log2(len(yonly)) - _log2(len(yonly[(yonly & pmask) == 0]))
    return (k0, _log2(len(arr)) - 2 * k2, k2, k0p, k0 - k0p, k2p, k2 - k2p)


def _constacyclic_by_words(arr, alpha, beta):
    return _closed_under(arr, shift_packed(arr, alpha, beta))


def test_case_counts():
    assert len(SWEEP) > 100
    assert any(not is_constacyclic(code) for code in RANDOM)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_gray_image_matches_word_images(layout):
    for code in ALL:
        img = gray_image(code, layout)
        assert (img.alpha, img.beta) == (code.n, 0)
        words = _gray_words(word_array(code), code.alpha, code.beta, layout)
        assert np.array_equal(img.packed(), words), (code, code.basis)


def test_punctures_match_word_projections():
    for code in ALL:
        arr = word_array(code)
        if code.alpha:
            cx = puncture_x(code)
            assert (cx.alpha, cx.beta) == (code.alpha, 0)
            assert np.array_equal(cx.packed(), np.unique(arr & ((1 << code.alpha) - 1)))
        cy = puncture_y(code)
        assert (cy.alpha, cy.beta) == (0, code.beta)
        assert np.array_equal(cy.packed(), np.unique(arr >> code.alpha)), code.basis


def test_subcode_cb_matches_word_filter():
    for code in ALL:
        cb = subcode_cb(code)
        assert (cb.alpha, cb.beta) == (code.alpha, code.beta)
        words = _cb_words(word_array(code), code.alpha, code.beta)
        assert np.array_equal(cb.packed(), words), code.basis


def test_type_from_enumeration_matches_word_counts():
    for code in ALL:
        t = type_from_enumeration(code)
        assert (t.alpha, t.beta) == (code.alpha, code.beta)
        counted = _type_from_words(word_array(code), code.alpha, code.beta)
        assert (t.k0, t.k1, t.k2, t.k0p, t.k0pp, t.k2p, t.k2pp) == counted, code.basis


def test_is_constacyclic_matches_word_shift():
    for code in ALL:
        expected = _constacyclic_by_words(word_array(code), code.alpha, code.beta)
        assert is_constacyclic(code) == expected, code.basis


@st.composite
def _drawn_vectors(draw):
    alpha = draw(st.integers(0, 4))
    beta = draw(st.integers(1, 4))
    n = alpha + 2 * beta
    return alpha, beta, draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))


@settings(deadline=None)
@given(_drawn_vectors())
def test_basis_operations_match_a_set_span(drawn):
    alpha, beta, vectors = drawn
    span = {0}
    for v in vectors:
        span |= {w ^ v for w in span}
    arr = np.array(sorted(span), dtype=np.int64)
    code = CodeSet.from_basis(alpha, beta, vectors)
    assert np.array_equal(span_array(code.basis, code.n), arr)
    for layout in LAYOUTS:
        assert np.array_equal(gray_image(code, layout).packed(), _gray_words(arr, alpha, beta, layout))
    if alpha:
        assert np.array_equal(puncture_x(code).packed(), np.unique(arr & ((1 << alpha) - 1)))
    assert np.array_equal(puncture_y(code).packed(), np.unique(arr >> alpha))
    assert np.array_equal(subcode_cb(code).packed(), _cb_words(arr, alpha, beta))
    t = type_from_enumeration(code)
    assert (t.k0, t.k1, t.k2, t.k0p, t.k0pp, t.k2p, t.k2pp) == _type_from_words(arr, alpha, beta)
    assert is_constacyclic(code) == _constacyclic_by_words(arr, alpha, beta)


def test_is_double_cyclic_matches_word_shift():
    verdicts = set()
    for code in ALL:
        for layout in LAYOUTS:
            img = gray_image(code, layout)
            arr = word_array(img)
            expected = _closed_under(arr, _double_shift_words(arr, code.alpha, 2 * code.beta))
            assert is_double_cyclic(img, code.alpha, 2 * code.beta) == expected, code.basis
            verdicts.add(expected)
    assert verdicts == {True, False}


def _double_cyclic_both_ways(bcode, alpha, two_beta):
    arr = word_array(bcode)
    by_words = _closed_under(arr, _double_shift_words(arr, alpha, two_beta))
    return is_double_cyclic(bcode, alpha, two_beta), by_words


def test_double_cyclic_false_single_word():
    # The word 1 shifts to 2 inside the first block, which is not in {0, 1}.
    assert _double_cyclic_both_ways(CodeSet.from_basis(8, 0, [1]), 2, 6) == (False, False)


def test_double_cyclic_false_interleaved_image():
    spec = CodeSpec(1, 2, 1, parse_poly("1"), 0, parse_poly("1+x^2"))
    img = gray_image(closure_of_spec(spec), "interleaved")
    assert _double_cyclic_both_ways(img, 1, 4) == (False, False)
    block = gray_image(closure_of_spec(spec), "block")
    assert _double_cyclic_both_ways(block, 1, 4) == (True, True)
