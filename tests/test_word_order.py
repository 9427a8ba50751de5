"""Word arrays come out ascending from the RREF basis, without a sort.

The references below are computed with ``np.unique`` on an XOR table of
the drawn vectors, so they depend neither on the basis being reduced nor
on the order in which ``span_array`` lists the span.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2ucodes.codewords import (
    CodeSet,
    CodeSpec,
    closure_of_spec,
    span_array,
    word_texts,
    xor_table,
)
from z2ucodes.duality import dual_bruteforce
from z2ucodes.gray import lee_weight_packed, min_distance

import referee


@st.composite
def drawn_codes(draw):
    """(alpha, beta, vectors) with 1 <= alpha + 2*beta <= 20, alpha or beta may be 0."""
    alpha = draw(st.integers(0, 8))
    beta = draw(st.integers(0 if alpha else 1, min(6, (20 - alpha) // 2)))
    n = alpha + 2 * beta
    return alpha, beta, draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))


def _not_in(code: CodeSet, rng: random.Random) -> int:
    while True:
        w = rng.getrandbits(code.n)
        if not code.contains_packed(w):
            return w


@pytest.mark.parametrize(
    "basis",
    [(0b11, 0b01), (0b01, 0b10), (0b10, 0b10), (0b10, 0), (0,), (0b110, 0b011)],
)
def test_span_array_rejects_a_basis_not_in_rref(basis):
    with pytest.raises(ValueError, match="row echelon"):
        span_array(basis, 3)
    with pytest.raises(ValueError, match="row echelon"):
        CodeSet(3, 0, basis).packed()


def test_words_wider_than_the_code_are_refused():
    with pytest.raises(ValueError, match="wider than 3 bits"):
        CodeSet(3, 0, (0b10000,)).packed()
    with pytest.raises(ValueError, match="wider than 4 bits"):
        CodeSet.from_packed_words(2, 1, [0, 1 << 10])


def test_span_array_of_a_hand_built_rref_basis():
    code = CodeSet(3, 0, (0b101, 0b010))
    assert code.packed() == [0b000, 0b010, 0b101, 0b111]
    assert span_array((), 3) == [0]


@settings(deadline=None, max_examples=200)
@given(drawn_codes(), st.randoms(use_true_random=False))
def test_span_array_is_strictly_ascending_and_exact(drawn, rng):
    alpha, beta, vectors = drawn
    code = CodeSet.from_basis(alpha, beta, vectors)
    arr = np.array(span_array(code.basis, code.n), dtype=np.int64)
    assert bool((arr[1:] > arr[:-1]).all())
    assert np.array_equal(arr, np.unique(xor_table(vectors)))

    words = arr.tolist() * 2
    rng.shuffle(words)
    assert CodeSet.from_packed_words(alpha, beta, words).basis == code.basis
    assert CodeSet.from_packed_words(alpha, beta, arr).basis == code.basis

    if 2 <= code.rank < code.n:
        # Dropping the largest word and adding a non-member keeps the size
        # a power of two, but 2^rank - 1 of its words form no subgroup.
        bad = np.sort(np.append(arr[:-1], _not_in(code, rng)))
        with pytest.raises(ValueError, match="^not closed under addition$"):
            CodeSet.from_packed_words(alpha, beta, bad)


@settings(deadline=None, max_examples=200)
@given(drawn_codes())
def test_min_distance_matches_lee_weights_of_the_span(drawn):
    alpha, beta, vectors = drawn
    code = CodeSet.from_basis(alpha, beta, vectors)
    if len(code) < 2:
        return
    words = np.unique(xor_table(code.basis))
    weights = [lee_weight_packed(w, alpha, beta) for w in words[words != 0].tolist()]
    assert min_distance(code) == min(weights)


def test_full_code_scans_take_the_ascending_path(monkeypatch):
    full = closure_of_spec(CodeSpec(7, 7, 1, 1, 0, 1))
    assert full.rank == 21

    def refuse(*args, **kwargs):
        raise AssertionError("word arrays should need no sort")

    monkeypatch.setattr(np, "sort", refuse)
    monkeypatch.setattr(np, "unique", refuse)
    dual = dual_bruteforce(full)
    assert dual.rank == 0
    assert dual_bruteforce(dual) == full
    assert min_distance(full) == 1


@settings(deadline=None, max_examples=100)
@given(drawn_codes(), st.randoms(use_true_random=False))
def test_word_texts_match_the_symbol_referee(drawn, rng):
    # Random words in random order, with repeats; alpha or beta may be 0.
    alpha, beta, vectors = drawn
    n = alpha + 2 * beta
    words = vectors + [rng.getrandbits(n) for _ in range(rng.randrange(40))]
    words += words[: rng.randrange(len(words) + 1)]
    rng.shuffle(words)
    assert word_texts(words, alpha, beta) == referee.word_texts(words, alpha, beta)


@pytest.mark.parametrize("alpha, beta", [(0, 1), (0, 3), (1, 0), (5, 0), (2, 2)])
def test_word_texts_of_the_whole_ambient(alpha, beta):
    words = list(range(1 << (alpha + 2 * beta)))[::-1]
    texts = word_texts(words, alpha, beta)
    assert texts == referee.word_texts(words, alpha, beta)
    assert texts[0] == "0" * alpha + "|" + ",".join(["0"] * beta)
    assert texts[-1] == "1" * alpha + "|" + ",".join(["1+u"] * beta)
