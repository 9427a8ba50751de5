"""The closure oracle against an explicit word-set fixed point.

The reference below grows a set of words under XOR, the shift and
u-multiplication until nothing new appears; it keeps no basis and never
reduces a word, so it shares nothing with ``closure_basis`` but the two
linear maps.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from z2ucodes.codewords import closure_basis, shift_packed, umul_packed


def closed_word_set(gens, alpha, beta):
    """Smallest set of words containing 0 and gens that is closed under
    XOR, shift_packed and umul_packed."""
    words = {0}
    todo = list(gens)
    while todo:
        w = todo.pop()
        if w in words:
            continue
        # words is an XOR group, so adding w adds the coset w + words.
        coset = {w ^ x for x in words}
        words |= coset
        for x in coset:
            todo += [shift_packed(x, alpha, beta), umul_packed(x, alpha, beta)]
    return words


def spanned_words(vectors):
    words = {0}
    for v in vectors:
        words |= {v ^ x for x in words}
    return words


@st.composite
def generator_lists(draw):
    """(alpha, beta, 1-3 generators) with 1 <= alpha + 2*beta <= 10."""
    alpha = draw(st.integers(0, 10))
    beta = draw(st.integers(0 if alpha else 1, (10 - alpha) // 2))
    n = alpha + 2 * beta
    return alpha, beta, draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3))


@settings(deadline=None, max_examples=300)
@given(generator_lists())
@example((0, 5, [0b1000000001]))
@example((10, 0, [0b1010000001]))
@example((3, 3, [0, 0]))
def test_closure_spans_the_word_set_fixed_point(drawn):
    alpha, beta, gens = drawn
    basis = closure_basis(gens, alpha, beta)
    assert spanned_words(basis) == closed_word_set(gens, alpha, beta)
    # Canonical fully reduced RREF: nonzero rows with strictly descending
    # leading bits, and no row has a bit at another row's leading bit.
    leads = [1 << (b.bit_length() - 1) for b in basis if b]
    assert len(leads) == len(basis)
    assert leads == sorted(set(leads), reverse=True)
    assert all(b & sum(leads) == lead for b, lead in zip(basis, leads))
