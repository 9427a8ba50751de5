"""Cross-checks of the basis-only operations against word-level results.

Every reference below is computed in the test from the materialized word
array ``packed()`` with numpy, independently of the basis arithmetic the
library uses.
"""

import random

import numpy as np
import pytest

from z2ucodes.gf2poly import ZERO, parse_poly
from z2ucodes.codewords import (
    CodeSet,
    CodeSpec,
    closure_of_spec,
    is_constacyclic,
    iter_valid_specs,
    shift_packed,
)
from z2ucodes.gray import (
    LAYOUTS,
    gray_block_packed,
    gray_image,
    gray_interleaved_packed,
    is_double_cyclic,
)
from z2ucodes.structure import puncture_x, puncture_y, subcode_cb, type_from_enumeration


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


def test_case_counts():
    assert len(SWEEP) > 100
    assert any(not is_constacyclic(code) for code in RANDOM)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_gray_image_matches_word_images(layout):
    to_image = gray_block_packed if layout == "block" else gray_interleaved_packed
    for code in ALL:
        img = gray_image(code, layout)
        words = np.sort(to_image(code.packed(), code.alpha, code.beta))
        assert (img.alpha, img.beta) == (code.n, 0)
        assert np.array_equal(img.packed(), words), (code, code.basis)


def test_punctures_match_word_projections():
    for code in ALL:
        arr = code.packed()
        if code.alpha:
            cx = puncture_x(code)
            assert (cx.alpha, cx.beta) == (code.alpha, 0)
            assert np.array_equal(cx.packed(), np.unique(arr & ((1 << code.alpha) - 1)))
        cy = puncture_y(code)
        assert (cy.alpha, cy.beta) == (0, code.beta)
        assert np.array_equal(cy.packed(), np.unique(arr >> code.alpha)), code.basis


def test_subcode_cb_matches_word_filter():
    for code in ALL:
        arr = code.packed()
        pmask = ((1 << code.beta) - 1) << code.alpha
        cb = subcode_cb(code)
        assert (cb.alpha, cb.beta) == (code.alpha, code.beta)
        assert np.array_equal(cb.packed(), arr[(arr & pmask) == 0]), code.basis


def test_type_from_enumeration_matches_word_counts():
    for code in ALL:
        arr = code.packed()
        alpha, beta = code.alpha, code.beta
        amask = (1 << alpha) - 1
        pmask = ((1 << beta) - 1) << alpha
        ymask = ((1 << (2 * beta)) - 1) << alpha
        cb = arr[(arr & pmask) == 0]
        yonly = arr[(arr & amask) == 0]
        k2 = _log2(len(arr)) - _log2(len(cb))
        k0 = _log2(len(np.unique(cb & amask)))
        k0p = _log2(len(arr[(arr & ymask) == 0]))
        k2p = _log2(len(yonly)) - _log2(len(yonly[(yonly & pmask) == 0]))
        t = type_from_enumeration(code)
        assert (t.alpha, t.beta) == (alpha, beta)
        assert (t.k0, t.k1, t.k2) == (k0, _log2(len(arr)) - 2 * k2, k2), code.basis
        assert (t.k0p, t.k0pp, t.k2p, t.k2pp) == (k0p, k0 - k0p, k2p, k2 - k2p), code.basis


def test_is_constacyclic_matches_word_shift():
    for code in ALL:
        arr = code.packed()
        expected = _closed_under(arr, shift_packed(arr, code.alpha, code.beta))
        assert is_constacyclic(code) == expected, code.basis


def test_is_double_cyclic_matches_word_shift():
    verdicts = set()
    for code in ALL:
        for layout in LAYOUTS:
            img = gray_image(code, layout)
            arr = img.packed()
            expected = _closed_under(arr, _double_shift_words(arr, code.alpha, 2 * code.beta))
            assert is_double_cyclic(img, code.alpha, 2 * code.beta) == expected, code.basis
            verdicts.add(expected)
    assert verdicts == {True, False}


def _double_cyclic_both_ways(bcode, alpha, two_beta):
    arr = bcode.packed()
    by_words = _closed_under(arr, _double_shift_words(arr, alpha, two_beta))
    return is_double_cyclic(bcode, alpha, two_beta), by_words


def test_double_cyclic_false_single_word():
    # The word 1 shifts to 2 inside the first block, which is not in {0, 1}.
    assert _double_cyclic_both_ways(CodeSet.from_basis(8, 0, [1]), 2, 6) == (False, False)


def test_double_cyclic_false_interleaved_image():
    spec = CodeSpec(1, 2, 1, parse_poly("1"), ZERO, parse_poly("1+x^2"))
    img = gray_image(closure_of_spec(spec), "interleaved")
    assert _double_cyclic_both_ways(img, 1, 4) == (False, False)
    block = gray_image(closure_of_spec(spec), "block")
    assert _double_cyclic_both_ways(block, 1, 4) == (True, True)
