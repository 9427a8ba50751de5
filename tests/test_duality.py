import functools
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from z2ucodes.gf2poly import (
    divisors_of_xn_minus_1,
    parse_poly,
    poly_mod,
    poly_mul,
    reciprocal,
    x_pow_n_minus_1,
)
from z2ucodes import codewords, duality
from z2ucodes.codewords import (
    CodeSet,
    CodeSpec,
    closure_of_spec,
    enumerate_closure,
    is_constacyclic,
    iter_valid_specs,
    l_base,
    validate_spec,
)
from z2ucodes.gray import LAYOUTS, gray_image
from z2ucodes.duality import (
    DualDegrees,
    _orthogonality_rows,
    build_dual_report,
    check_dual_constacyclic,
    dual_bruteforce,
    dual_degree_formulas,
    eta_pair,
    gray_route_dual,
    recover_spec,
    separable_dual,
)

import referee
from referee import (
    R_ONE,
    R_U,
    R_ZERO,
    Codeword,
    _runs,
    _syndrome_table,
    _write_runs,
    dual_scan,
    inner_product,
    recover_by_candidate_loop,
    shift,
    words,
)


def P(text):
    return parse_poly(text)


WORKED = CodeSpec(2, 3, 1, P("1+x^2"), P("1+x"), P("1+x"))


class TestInnerProduct:
    def test_worked_examples(self):
        assert inner_product(Codeword((1,), (R_ZERO,)), Codeword((1,), (R_ZERO,))) is R_U
        assert inner_product(Codeword((1,), (R_ONE,)), Codeword((1,), (R_U,))) is R_ZERO
        z = Codeword.zero(2, 3)
        for w in words(closure_of_spec(WORKED))[:8]:
            assert inner_product(z, w) is R_ZERO

    def test_symmetry(self):
        rng = random.Random(21)
        for _ in range(200):
            alpha, beta = rng.randint(1, 4), rng.randint(1, 4)
            c1 = Codeword.from_packed(rng.getrandbits(alpha + 2 * beta), alpha, beta)
            c2 = Codeword.from_packed(rng.getrandbits(alpha + 2 * beta), alpha, beta)
            assert inner_product(c1, c2) is inner_product(c2, c1)

    def test_orthogonality_preserved_by_shift(self):
        rng = random.Random(22)
        checked = 0
        while checked < 100:
            alpha, beta = rng.randint(1, 3), rng.randint(1, 3)
            c1 = Codeword.from_packed(rng.getrandbits(alpha + 2 * beta), alpha, beta)
            c2 = Codeword.from_packed(rng.getrandbits(alpha + 2 * beta), alpha, beta)
            if inner_product(c1, c2) is not R_ZERO:
                continue
            assert inner_product(shift(c1), shift(c2)) is R_ZERO
            checked += 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(Codeword.zero(1, 1), Codeword.zero(1, 2))


class TestDualBruteforce:
    def test_worked_example_size(self):
        code = closure_of_spec(WORKED)
        dual = dual_bruteforce(code)
        assert len(dual) == 8
        assert len(code) * len(dual) == 1 << 8

    def test_dual_of_extremes(self):
        zero = CodeSet.from_basis(2, 3, [])
        full = dual_bruteforce(zero)
        assert len(full) == 256
        assert len(dual_bruteforce(full)) == 1

    def test_double_dual(self):
        for spec in iter_valid_specs(2, 3):
            code = closure_of_spec(spec)
            assert dual_bruteforce(dual_bruteforce(code)) == code

    def test_orthogonality_is_exhaustive(self):
        code = closure_of_spec(WORKED)
        dual = dual_bruteforce(code)
        for wd in words(dual):
            for wc in words(code):
                assert inner_product(wd, wc) is R_ZERO

    def test_linear_dual_agrees_with_scan(self):
        for alpha, beta in ((1, 1), (2, 2), (2, 3), (3, 3)):
            seen = set()
            for spec in iter_valid_specs(alpha, beta):
                code = closure_of_spec(spec)
                if code.basis in seen:
                    continue
                seen.add(code.basis)
                assert dual_bruteforce(code) == dual_scan(code)

    def test_scan_matches_word_by_word_scan(self):
        for alpha, beta in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (1, 4)):
            seen = set()
            for spec in iter_valid_specs(alpha, beta):
                code = closure_of_spec(spec)
                if code.basis in seen:
                    continue
                seen.add(code.basis)
                expected = _dual_by_word_scan(code)
                assert dual_scan(code).packed() == expected, spec
                assert dual_bruteforce(code).packed() == expected, spec

    @pytest.mark.parametrize(
        "code",
        [
            pytest.param(CodeSet.from_basis(2, 3, []), id="zero"),
            pytest.param(CodeSet.from_basis(2, 3, [1 << i for i in range(8)]), id="full"),
            # 14 orthogonality masks (two per basis vector) on 9 bits
            pytest.param(
                closure_of_spec(CodeSpec(3, 3, 1, P("1+x"), 0, P("1+x"))), id="rank-7"
            ),
            pytest.param(CodeSet.from_basis(3, 0, [0b111]), id="binary-repetition"),
            pytest.param(CodeSet.from_basis(5, 0, [0b00011, 0b01100, 0b10101]), id="binary-5"),
        ]
        + [
            pytest.param(gray_image(closure_of_spec(WORKED), layout), id=f"gray-{layout}")
            for layout in LAYOUTS
        ],
    )
    def test_edge_codes_match_word_by_word_scan(self, code):
        expected = _dual_by_word_scan(code)
        assert dual_scan(code).packed() == expected
        assert dual_bruteforce(code).packed() == expected

    def test_dual_constacyclic(self):
        for spec in list(iter_valid_specs(2, 3))[::5]:
            assert check_dual_constacyclic(closure_of_spec(spec))


def _dual_by_word_scan(code):
    """The dual by a plain scan: every ambient word, in ascending order,
    against every basis vector, with the referee's inner product
    u * sum(a_i d_i) + sum(b_j e_j) written out over R."""
    gens = [Codeword.from_packed(int(v), code.alpha, code.beta) for v in code.basis]
    return [
        w
        for w in range(1 << (code.alpha + 2 * code.beta))
        if all(
            inner_product(Codeword.from_packed(w, code.alpha, code.beta), d) is R_ZERO
            for d in gens
        )
    ]


def _half_tables(code):
    """The high and low half syndrome tables of the dual scan, and the
    low half's width."""
    rows = _orthogonality_rows(code)
    low = code.n // 2
    return _syndrome_table(rows, low, code.n - low), _syndrome_table(rows, 0, low), low


def _join_by_outer_comparison(s_hi, s_lo):
    """The former scan: one outer comparison of the two half tables, read
    in row-major order, so word hi|lo sits at flat index hi * len(s_lo) + lo."""
    return np.flatnonzero(s_hi[:, None] == s_lo[None, :])


@st.composite
def subgroups(draw):
    """A random GF(2) subgroup of Z2^alpha x R^beta words, n <= 14, beta >= 0."""
    beta = draw(st.integers(0, 7))
    alpha = draw(st.integers(0 if beta else 1, 14 - 2 * beta))
    n = alpha + 2 * beta
    vectors = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n + 2))
    return CodeSet.from_basis(alpha, beta, vectors)


@settings(deadline=None, max_examples=200)
@given(subgroups())
@example(CodeSet.from_basis(3, 5, []))  # zero code: the dual is the ambient space
@example(CodeSet.from_basis(3, 5, [1 << i for i in range(13)]))  # full code: dual {0}
@example(CodeSet.from_basis(14, 0, [0b11, 0b1100, 0b10101010101011]))  # binary, even n
@example(CodeSet.from_basis(13, 0, [0b1111111111111]))  # binary, odd n
@example(closure_of_spec(CodeSpec(1, 3, 1, P("1"), 0, P("1+x"))))  # odd n = 7
def test_join_matches_outer_comparison(code):
    s_hi, s_lo, low = _half_tables(code)
    words = _write_runs(*_runs(s_hi, s_lo), low)
    assert words.tolist() == _join_by_outer_comparison(s_hi, s_lo).tolist()


@settings(deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda low: st.tuples(
            st.just(low),
            st.lists(st.integers(0, 3), min_size=1, max_size=40),
            st.lists(st.integers(0, 3), min_size=1, max_size=1 << low),
        )
    )
)
def test_join_of_arbitrary_tables_matches_outer_comparison(drawn):
    # Tables with many repeated syndromes and lengths that are no powers of two.
    low, s_hi, s_lo = drawn
    s_hi, s_lo = np.array(s_hi, dtype=np.int64), np.array(s_lo, dtype=np.int64)
    flat = _join_by_outer_comparison(s_hi, s_lo)
    expected = [(i // len(s_lo)) << low | i % len(s_lo) for i in flat.tolist()]
    assert _write_runs(*_runs(s_hi, s_lo), low).tolist() == expected


@settings(deadline=None)
@given(
    st.lists(st.integers(0, (1 << 16) - 1), max_size=10),
    st.integers(0, 8),
    st.integers(0, 8),
)
def test_syndrome_table_entries_are_parities_against_the_rows(rows, shift, nbits):
    table = _syndrome_table(rows, shift, nbits)
    assert len(table) == 1 << nbits
    for h, syndrome in enumerate(table.tolist()):
        assert syndrome == sum(
            (((h << shift) & r).bit_count() & 1) << i for i, r in enumerate(rows)
        )


# Dual scans written out in blocks of 2^1, 2^2 and 2^3 positions: the
# (2,3) zero code's dual has runs of 16 words, each spanning several
# blocks; binary-5's dual has 4 words, fewer than one block of 8; the
# full code's dual is {0} (rank 0).
BLOCK_EXAMPLES = [
    pytest.param(CodeSet.from_basis(2, 3, []), id="zero"),
    pytest.param(CodeSet.from_basis(2, 3, [1 << i for i in range(8)]), id="full"),
    pytest.param(closure_of_spec(CodeSpec(3, 3, 1, P("1+x"), 0, P("1+x"))), id="rank-7"),
    pytest.param(CodeSet.from_basis(5, 0, [0b00011, 0b01100, 0b10101]), id="binary-5"),
    pytest.param(closure_of_spec(WORKED), id="worked"),
]


@pytest.mark.parametrize("block_bits", [1, 2, 3])
@pytest.mark.parametrize("code", BLOCK_EXAMPLES)
def test_blocks_match_word_by_word_scan(code, block_bits, monkeypatch):
    monkeypatch.setattr(referee, "_BLOCK_BITS", block_bits)
    dual = dual_scan(code)
    assert dual.packed() == _dual_by_word_scan(code)
    assert dual == dual_bruteforce(code)


def test_block_examples_reach_the_edges():
    codes = [p.values[0] for p in BLOCK_EXAMPLES]
    dual_ranks = sorted(dual_bruteforce(code).rank for code in codes)
    assert dual_ranks[0] == 0 and 0 < dual_ranks[1] < 3
    # Every nonempty run is a coset of the low halves with syndrome 0.
    longest_run = max(int((_half_tables(code)[1] == 0).sum()) for code in codes)
    assert longest_run > 1 << 3


@settings(deadline=None, max_examples=200)
@given(subgroups(), st.integers(1, 3))
def test_blocks_match_linear_dual(code, block_bits):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(referee, "_BLOCK_BITS", block_bits)
        assert dual_scan(code) == dual_bruteforce(code)


@pytest.mark.parametrize("alpha,beta", [(7, 7), (8, 8)])
def test_ambient_scan_holds_no_word_set(alpha, beta, monkeypatch):
    # The dual of the zero code is the whole ambient space: 2^21 words at
    # (7,7), 2^24 at (8,8), the default budget's ceiling.
    zero = CodeSet.from_basis(alpha, beta, [])

    def refuse(*args, **kwargs):
        raise AssertionError("the scan should hold no more than one block of words")

    monkeypatch.setattr(codewords, "span_array", refuse)
    monkeypatch.setattr(CodeSet, "packed", refuse)
    tracemalloc.start()
    try:
        dual = dual_scan(zero)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dual.basis == tuple(1 << i for i in reversed(range(zero.n)))
    assert dual == dual_bruteforce(zero)
    assert peak < 4 << 20


def test_scan_refuses_a_corrupt_block(monkeypatch):
    # The dual of span(e0..e4) is span(e5..e9): one word per high half,
    # so each call of `_write_runs` writes out exactly one block of 4 words.
    code = CodeSet.from_basis(10, 0, [1 << i for i in range(5)])
    write_runs, calls = referee._write_runs, []

    def corrupt_fifth_block(order, first, counts, low):
        words = write_runs(order, first, counts, low)
        calls.append(len(words))
        if len(calls) == 5:
            words[-1] ^= 1
        return words

    monkeypatch.setattr(referee, "_BLOCK_BITS", 2)
    monkeypatch.setattr(referee, "_write_runs", corrupt_fifth_block)
    with pytest.raises(ValueError, match=r"^not closed under addition$"):
        dual_scan(code)
    assert calls == [4] * 5


def test_scan_refuses_a_size_that_is_no_power_of_two(monkeypatch):
    # One low-half syndrome of the zero code changed from 0 to 1: each
    # high half then has 2^low - 1 partners.
    table = referee._syndrome_table

    def corrupt_low_table(rows, shift, nbits):
        syndromes = table(rows, shift, nbits)
        if shift == 0:
            syndromes[1] = 1
        return syndromes

    monkeypatch.setattr(referee, "_syndrome_table", corrupt_low_table)
    with pytest.raises(ValueError, match="size is not a power of two"):
        dual_scan(CodeSet.from_basis(2, 3, []))


@pytest.mark.parametrize(
    "alpha,beta", [(1, 1), (1, 3), (2, 3), (3, 3), (2, 6), (3, 5), (1, 4), (2, 4)]
)
def test_recovery_closes_the_candidates_of_the_candidate_loop(alpha, beta, monkeypatch):
    # Same answer as the loop, for every distinct dual and every order of
    # the cases.  Recovery reads at most one candidate per case off the
    # dual's basis, so it calls closure_basis at most once per case.  At
    # (1,4) and (2,4) a dual's d splits as f*g in more than one way, so
    # the order of the case-3 splits decides the answer.
    closures = {}

    def close(spec):
        if spec not in closures:
            closures[spec] = closure_of_spec(spec)
        return closures[spec]

    calls = []

    def counting_closure_basis(gens, a, b):
        calls.append(gens)
        return codewords.closure_basis(gens, a, b)

    duals = {}
    for spec in iter_valid_specs(alpha, beta):
        dual = dual_bruteforce(close(spec))
        duals.setdefault(dual.basis, dual)
    monkeypatch.setattr(duality, "closure_basis", counting_closure_basis)
    for dual in duals.values():
        for cases in itertools.permutations((1, 2, 3)):
            calls.clear()
            expected = recover_by_candidate_loop(dual, cases, close)
            assert recover_spec(dual, cases) == expected, (dual, cases)
            assert len(calls) <= len(cases), (dual, cases)


@functools.cache
def _valid_specs(alpha, beta):
    return list(iter_valid_specs(alpha, beta))


@settings(deadline=None, max_examples=15)
@given(st.sampled_from([(9, 9), (8, 4)]), st.permutations((1, 2, 3)), st.data())
def test_recovery_matches_the_referee_on_random_specs(pair, cases, data):
    spec = data.draw(st.sampled_from(_valid_specs(*pair)))
    code = enumerate_closure(spec.generators(), *pair)
    for target in (code, dual_bruteforce(code)):
        assert recover_spec(target, cases) == recover_by_candidate_loop(target, cases)


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 4), st.integers(1, 3), st.permutations((1, 2, 3)), st.data())
def test_recovery_of_a_span_matches_the_referee(alpha, beta, cases, data):
    # A span of random words is mostly no submodule, and then no spec
    # generates it: the closure check is what answers None for it.
    width = alpha + 2 * beta
    vectors = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=3))
    span = CodeSet.from_basis(alpha, beta, vectors)
    recovered = recover_spec(span, cases)
    assert recovered == recover_by_candidate_loop(span, cases)
    if not is_constacyclic(span):
        assert recovered is None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_recovery_at_21_21_generates_the_dual(seed):
    # A seeded case-3 spec's dual at (21,21), where the referee's sweep
    # is too slow for tier-1: the answer is checked by its own closure.
    rng = random.Random(seed)
    divisors = divisors_of_xn_minus_1(21)
    f = rng.choice([f for f in divisors if f != 1])
    g = rng.choice([g for g in divisors if not poly_mod(g, f)])
    a = rng.choice(divisors)
    base = l_base(3, a, g, 21)
    l = poly_mul(rng.getrandbits(a.bit_length() - base.bit_length()), base)
    spec = CodeSpec(21, 21, 3, a, l, g, f)
    assert validate_spec(spec) == []
    dual = dual_bruteforce(enumerate_closure(spec.generators(), 21, 21))
    recovered = recover_spec(dual, (3, 1, 2))
    assert recovered is not None
    assert validate_spec(recovered) == []
    assert enumerate_closure(recovered.generators(), 21, 21) == dual


class TestDegreeFormulas:
    def test_worked_case1(self):
        assert dual_degree_formulas(WORKED) == DualDegrees(1, 3)

    def test_separable_case1_consistency(self):
        # l = 0: deg abar = alpha - deg a, matching the separable dual.
        spec = CodeSpec(2, 3, 1, P("1+x"), 0, P("1+x"))
        degs = dual_degree_formulas(spec)
        assert degs.abar == 2 - 1
        sd = separable_dual(spec)
        assert sd.a.bit_length() - 1 == degs.abar

    def test_case2_separable(self):
        spec = CodeSpec(2, 3, 2, P("1+x"), 0, P("1+x"))
        degs = dual_degree_formulas(spec)
        # deg h - deg a + deg gcd(a, l) with gcd(a, 0) = a
        assert degs.gbar == 2 - 1 + 1 == 3 - 1

    def test_case3_formula_values(self):
        spec = CodeSpec(2, 2, 3, P("1+x^2"), 0, P("1+x^2"), P("1+x"))
        degs = dual_degree_formulas(spec)
        assert degs.fbar is not None

    def test_adjudication_against_bruteforce(self):
        # The stated degrees disagree with the recovered dual generators
        # for the worked example; the report records this, not hides it.
        report = build_dual_report(WORKED, dual_bruteforce(closure_of_spec(WORKED)))
        assert report.match in ("match", "mismatch", "not-applicable")
        assert report.match == "not-applicable"
        assert report.observed_case == 3
        assert len(report.dual) == 8
        d = report.to_dict()
        assert d["match"] == "not-applicable"


def _oracle_dual_doc(spec, dual, closures):
    """The dual report by an unfiltered exhaustive search.

    ``closures`` pairs every valid spec at the spec's lengths with its
    closed basis, in sweep order; the stated dual case is searched first,
    then the other cases in order 1, 2, 3.
    """
    stated = {1: 2, 2: 1, 3: 3}[spec.case]
    observed = None
    for case in [stated] + [c for c in (1, 2, 3) if c != stated]:
        found = [cand for cand, basis in closures if cand.case == case and basis == dual.basis]
        if found:
            observed = found[0]
            break
    predicted = dual_degree_formulas(spec)
    degrees = None
    match = "not-applicable"
    if observed is not None:
        fbar = observed.f.bit_length() - 1 if observed.f is not None else None
        degrees = {
            "abar": observed.a.bit_length() - 1,
            "gbar": observed.g.bit_length() - 1,
            "fbar": fbar,
        }
        if observed.case == stated:
            same = degrees["abar"] == predicted.abar and degrees["gbar"] == predicted.gbar
            if spec.case == 3:
                same = same and degrees["fbar"] == predicted.fbar
            match = "match" if same else "mismatch"
    return {
        "spec": spec.serialize().strip().splitlines(),
        "dual_size": len(dual),
        "stated_dual_case": stated,
        "predicted_degrees": {
            "abar": predicted.abar,
            "gbar": predicted.gbar,
            "fbar": predicted.fbar,
        },
        "observed_generators": (
            observed.serialize().strip().splitlines()
            if observed is not None
            else "no spec of the stated form found"
        ),
        "observed_case": observed.case if observed is not None else None,
        "observed_degrees": degrees,
        "match": match,
    }


@pytest.mark.parametrize(
    "alpha,beta", [(1, 1), (1, 3), (2, 3), (3, 3), (2, 6), (3, 5), (3, 7), (7, 3)]
)
def test_dual_report_matches_exhaustive_search(alpha, beta):
    specs = list(iter_valid_specs(alpha, beta))
    closures = [(cand, closure_of_spec(cand).basis) for cand in specs]
    fallbacks = 0
    for spec in specs:
        dual = dual_bruteforce(closure_of_spec(spec))
        doc = build_dual_report(spec, dual).to_dict()
        assert doc == _oracle_dual_doc(spec, dual, closures), spec
        fallbacks += doc["observed_case"] not in (None, doc["stated_dual_case"])
    # Some duals fail the stated form and are recovered in another case.
    assert fallbacks > 0


class TestSeparableDual:
    def test_worked_separable_example(self):
        spec = CodeSpec(2, 3, 1, P("1+x"), 0, P("1+x"))
        sd = separable_dual(spec)
        assert sd.case == 2
        assert sd.a == P("1+x")
        assert sd.g == P("1+x+x^2")
        assert closure_of_spec(sd) == dual_bruteforce(closure_of_spec(spec))

    def test_case2_zero_code_side(self):
        spec = CodeSpec(1, 3, 2, P("1+x"), 0, P("1+x^3"))
        sd = separable_dual(spec)
        assert sd.case == 1 and sd.g == P("1")
        assert closure_of_spec(sd) == dual_bruteforce(closure_of_spec(spec))

    def test_case3_beta2_exponents(self):
        # (x+1)^2 at beta=2 (e=1): dual exponent 4-2=2 gives (x+1)^2 back.
        spec = CodeSpec(1, 2, 3, P("1+x"), 0, P("1+x^2"), P("1"))
        sd = separable_dual(spec)
        assert poly_mul(sd.f, sd.g) == P("1+x^2")
        assert closure_of_spec(sd) == dual_bruteforce(closure_of_spec(spec))

    def test_requires_separable(self):
        with pytest.raises(ValueError):
            separable_dual(WORKED)

    def test_separable_sweep_small(self):
        for alpha, beta in ((1, 1), (2, 3), (3, 3)):
            for spec in iter_valid_specs(alpha, beta):
                if not spec.is_separable():
                    continue
                sd = separable_dual(spec)
                assert closure_of_spec(sd) == dual_bruteforce(closure_of_spec(spec)), spec


class TestEta:
    def test_zero_right_component(self):
        assert eta_pair((P("1+x"), P("x")), (0, 0), 2, 2) == 0

    def test_vanishing_instance(self):
        assert eta_pair((P("1+x"), 0), (P("1+x"), 0), 2, 2) == 0

    def test_bilinearity(self):
        rng = random.Random(23)
        alpha, beta = 2, 3
        for _ in range(300):
            def rnd():
                return (rng.getrandbits(alpha), rng.getrandbits(beta))
            c1, c2, c3 = rnd(), rnd(), rnd()
            s = (c1[0] ^ c2[0], c1[1] ^ c2[1])
            assert eta_pair(s, c3, alpha, beta) == eta_pair(c1, c3, alpha, beta) ^ eta_pair(
                c2, c3, alpha, beta
            )
            s2 = (c2[0] ^ c3[0], c2[1] ^ c3[1])
            assert eta_pair(c1, s2, alpha, beta) == eta_pair(c1, c2, alpha, beta) ^ eta_pair(
                c1, c3, alpha, beta
            )

    @pytest.mark.parametrize("alpha,beta", [(2, 2), (3, 3), (2, 3), (4, 2)])
    def test_vanishing_with_zero_second_components_implies_product(self, alpha, beta):
        # With both second components zero, eta = 0 forces
        # c11 * c21* = 0 mod x^alpha - 1; exhaustive at these sizes.
        xa = x_pow_n_minus_1(alpha)
        for c11 in range(1 << alpha):
            for c21 in range(1, 1 << alpha):
                if eta_pair((c11, 0), (c21, 0), alpha, beta) == 0:
                    assert poly_mod(poly_mul(c11, reciprocal(c21)), xa) == 0


class TestGrayRoute:
    def test_separable_matches_direct_dual(self):
        spec = CodeSpec(2, 3, 1, P("1+x"), 0, P("1+x"))
        route = gray_route_dual(spec)
        sd = separable_dual(spec)
        assert route.abar.exact and route.abar.value == sd.a
        assert route.second[0].exact and route.second[0].value == sd.g

    def test_inexact_division_is_flagged(self):
        route = gray_route_dual(WORKED)
        assert route.abar.exact
        assert not route.second[0].exact

    def test_lbar_family_base(self):
        spec = CodeSpec(2, 3, 1, P("1+x"), 0, P("1+x"))
        route = gray_route_dual(spec)
        assert route.lbar_family_base == P("1+x")
