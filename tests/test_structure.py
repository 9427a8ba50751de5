import itertools
import math
import random

import pytest

from z2ucodes.gf2poly import parse_poly, poly_mul
from z2ucodes.codewords import (
    CodeSet,
    CodeSpec,
    basis_insert,
    closure_basis,
    closure_of_spec,
    iter_valid_specs,
    reduce_against,
    shift_packed,
    umul_packed,
)
from z2ucodes import codewords, structure
from z2ucodes.structure import (
    cb_dimension,
    census_table,
    count_codes_census,
    count_codes_formula,
    cyclic_code_from_generator,
    puncture_x,
    puncture_y,
    subcode_cb,
    type_from_enumeration,
    type_from_formulas,
)

from referee import (
    cyclic_submodules,
    join_irreducibles,
    join_irreducibles_by_containment,
    primary_components_by_kernel,
)
from test_closure_chains import closed_word_set, spanned_words


def P(text):
    return parse_poly(text)


def ambient(alpha, beta):
    """The whole ambient as a fully reduced RREF basis: its n unit vectors,
    the space the census helpers walk for the whole-ambient referee."""
    return tuple(1 << i for i in reversed(range(alpha + 2 * beta)))


WORKED = CodeSpec(2, 3, 1, P("1+x^2"), P("1+x"), P("1+x"))


class TestPunctures:
    def test_worked_example(self):
        code = closure_of_spec(WORKED)
        cx = puncture_x(code)
        assert sorted(int(w) for w in cx.packed()) == [0, 0b11]
        assert cx == cyclic_code_from_generator(P("1+x"), 2)
        cy = puncture_y(code)
        assert len(cy) == 32

    def test_zero_code(self):
        zero = CodeSet.from_basis(2, 3, [])
        assert len(puncture_x(zero)) == 1
        assert len(puncture_y(zero)) == 1

    def test_second_only_code(self):
        spec = CodeSpec(2, 3, 2, P("1+x^2"), 0, P("1+x"))
        code = closure_of_spec(spec)
        assert len(puncture_x(code)) == 1

    def test_case2_cb_is_whole_code(self):
        spec = CodeSpec(2, 3, 2, P("1+x^2"), 0, P("1+x"))
        code = closure_of_spec(spec)
        assert subcode_cb(code) == code

    def test_full_ambient_cb(self):
        full = CodeSet.from_basis(1, 1, [1, 2, 4])
        cb = subcode_cb(full)
        assert len(cb) == 4  # Z2^alpha x {0,u}^beta


@pytest.mark.parametrize("n", range(1, 10))
def test_cyclic_code_matches_rotations_of_the_generator(n):
    # Reference: the span of the n rotations of gen mod x^n-1.
    mask = (1 << n) - 1
    for bits in range(1 << (n + 2)):
        word = bits
        while word >> n:
            word = (word & mask) ^ (word >> n)
        vectors = []
        for _ in range(n):
            vectors.append(word)
            word = ((word << 1) & mask) | (word >> (n - 1))
        expected = CodeSet.from_basis(n, 0, vectors)
        assert cyclic_code_from_generator(bits, n) == expected, bits


class TestTypes:
    def test_worked_example_formulas(self):
        t = type_from_formulas(WORKED)
        assert t.triple() == (1, 1, 2)
        assert (t.k0p, t.k0pp, t.k2p, t.k2pp) == (0, 1, 2, 0)

    def test_worked_example_enumeration_matches(self):
        assert type_from_enumeration(closure_of_spec(WORKED)) == type_from_formulas(WORKED)

    def test_case2_separable_splits(self):
        spec = CodeSpec(3, 3, 2, P("1+x"), 0, P("1+x"))
        t = type_from_formulas(spec)
        assert t.k0 == t.k0p == 3 - 1
        assert t.k0pp == 0 and t.k2 == 0
        assert t == type_from_enumeration(closure_of_spec(spec))

    def test_case3_f_equals_g(self):
        spec = CodeSpec(2, 3, 3, P("1+x^2"), 0, P("1+x"), P("1+x"))
        t = type_from_formulas(spec)
        assert t.k1 == 2 - 2  # alpha - deg a when f = g
        assert t.k2 == 3 - 1

    def test_zero_code_enumeration(self):
        zero = CodeSet.from_basis(2, 3, [])
        t = type_from_enumeration(zero)
        assert t.triple() == (0, 0, 0)

    def test_full_ambient_enumeration(self):
        alpha, beta = 2, 2
        vectors = [1 << i for i in range(alpha + 2 * beta)]
        t = type_from_enumeration(CodeSet.from_basis(alpha, beta, vectors))
        assert (t.k1, t.k2, t.k0) == (alpha, beta, alpha)

    def test_separable_sweep_formulas_match_enumeration(self):
        for alpha, beta in ((1, 1), (2, 3), (3, 3), (3, 1)):
            for spec in iter_valid_specs(alpha, beta):
                if not spec.is_separable():
                    continue
                stated = type_from_formulas(spec)
                measured = type_from_enumeration(closure_of_spec(spec))
                assert stated == measured, spec

    def test_size_identity(self):
        for spec in iter_valid_specs(2, 3):
            code = closure_of_spec(spec)
            t = type_from_enumeration(code)
            assert len(code) == t.size()


class TestCensus:
    def test_formula_values(self):
        assert count_codes_formula(1, 1) == 6
        assert count_codes_formula(7, 7) == 216
        assert count_codes_formula(1, 3) == 18

    def test_formula_rejects_even(self):
        with pytest.raises(ValueError):
            count_codes_formula(2, 1)
        with pytest.raises(ValueError):
            count_codes_formula(1, 2)

    def test_census_1_1_against_full_subset_enumeration(self):
        # Independent mini-oracle: try all 2^8 subsets of the ambient.
        alpha = beta = 1
        n = alpha + 2 * beta
        count = 0
        for mask in range(1 << (1 << n)):
            words = [w for w in range(1 << n) if (mask >> w) & 1]
            if not words or words[0] != 0:
                continue
            wordset = set(words)
            ok = all((a ^ b) in wordset for a, b in itertools.product(words, repeat=2))
            ok = ok and all(shift_packed(w, alpha, beta) in wordset for w in words)
            ok = ok and all(umul_packed(w, alpha, beta) in wordset for w in words)
            if ok:
                count += 1
        assert count == 8
        assert count_codes_census(1, 1) == 8

    def test_census_counts_at_acceptance_pairs(self):
        # The formula predicts 6/18/12; the census finds more submodules.
        assert count_codes_census(1, 1) == 8
        assert count_codes_census(1, 3) == 24
        assert count_codes_census(3, 1) == 16

    def test_census_matches_distinct_spec_codes(self):
        # Every submodule found by the census is reachable from a spec at
        # these sizes, so the two counts coincide.
        for alpha, beta in ((1, 1), (3, 1), (1, 3), *EVEN_LENGTH_CENSUS):
            seen = set()
            for spec in iter_valid_specs(alpha, beta):
                seen.add(closure_of_spec(spec).basis)
            assert len(seen) == count_codes_census(alpha, beta, 1 << 18)

    def test_table(self):
        rows = census_table([(1, 1), (2, 1)])
        assert rows[0]["formula"] == 6 and rows[0]["census"] == 8 and rows[0]["match"] is False
        assert rows[1]["formula"] is None and rows[1]["match"] is None


# Brute-force counts at lengths the stated formula does not cover (an
# even alpha or beta), recorded as data.  The census that joined every
# module with every cyclic submodule gave the same values.
EVEN_LENGTH_CENSUS = {
    (2, 4): 57, (4, 2): 59, (4, 4): 207, (2, 6): 145, (6, 2): 87, (6, 3): 273,
    (1, 8): 50, (8, 1): 43, (2, 8): 113, (8, 2): 119, (6, 6): 2175,
}


@pytest.mark.parametrize("alpha, beta", EVEN_LENGTH_CENSUS)
def test_census_at_even_lengths(alpha, beta):
    assert count_codes_census(alpha, beta, 1 << 18) == EVEN_LENGTH_CENSUS[alpha, beta]


def census_by_adjoining_words(alpha, beta):
    """Reference census: adjoin every nonzero ambient word to every known
    module and close again under {+, x*, u*}, from the zero module up."""
    words = range(1, 1 << (alpha + 2 * beta))
    seen = {()}
    worklist = [()]
    while worklist:
        basis = worklist.pop()
        for w in words:
            if reduce_against(w, basis) == 0:
                continue
            grown = closure_basis(list(basis) + [w], alpha, beta)
            if grown not in seen:
                seen.add(grown)
                worklist.append(grown)
    return len(seen)


def cyclotomic_coset_sizes(n):
    """Sizes of the cosets {s, 2s, 4s, ...} mod n: for odd n, the degrees
    of the irreducible factors of x^n - 1."""
    sizes, done = [], set()
    for s in range(n):
        if s in done:
            continue
        c, size = s, 0
        while c not in done:
            done.add(c)
            size += 1
            c = 2 * c % n
        sizes.append(size)
    return sizes


def crt_census(alpha, beta):
    """Pi_shared (2q + 4) * 2^#(alpha only) * 3^#(beta only), q = 2^deg p.

    The factors shared by x^alpha - 1 and x^beta - 1 are those of
    x^gcd(alpha, beta) - 1.
    """
    shared = cyclotomic_coset_sizes(math.gcd(alpha, beta))
    count = math.prod(2 * 2**d + 4 for d in shared)
    count *= 2 ** (len(cyclotomic_coset_sizes(alpha)) - len(shared))
    return count * 3 ** (len(cyclotomic_coset_sizes(beta)) - len(shared))


ORACLE_PAIRS = [(a, b) for b in (1, 2, 3) for a in range(1, 9 - 2 * b)]


@pytest.mark.parametrize("alpha, beta", ORACLE_PAIRS)
def test_census_matches_adjoining_every_word(alpha, beta):
    assert count_codes_census(alpha, beta) == census_by_adjoining_words(alpha, beta)


def census_by_joining_every_cyclic(alpha, beta):
    """Reference census: close one word per shift orbit, then join every
    known module with every cyclic submodule, from the zero module up."""
    cyclic = sorted(cyclic_submodules(alpha, beta))
    seen = {()}
    worklist = [()]
    while worklist:
        basis = worklist.pop()
        for gens in cyclic:
            grown = list(basis)
            for g in gens:
                basis_insert(grown, g)
            if len(grown) == len(basis):
                continue
            key = tuple(grown)
            if key not in seen:
                seen.add(key)
                worklist.append(key)
    return len(seen)


@pytest.mark.parametrize("alpha, beta", ORACLE_PAIRS + [(2, 4), (4, 4), (6, 2)])
def test_census_matches_joining_every_cyclic(alpha, beta):
    assert count_codes_census(alpha, beta) == census_by_joining_every_cyclic(alpha, beta)


def census_by_joining_minimal_missing(alpha, beta):
    """Reference census: join every known module with each of its minimal
    missing join-irreducibles, from the zero module up, computing every
    join even when another module already made the same one."""
    irreducible = join_irreducibles(alpha, beta)
    below = [
        sum(
            1 << k
            for k, (v, smaller) in enumerate(irreducible)
            if len(smaller) < len(basis) and reduce_against(v, basis) == 0
        )
        for _, basis in irreducible
    ]
    seen = {()}
    worklist = [()]
    while worklist:
        basis = worklist.pop()
        out = sum(1 << k for k, (v, _) in enumerate(irreducible) if reduce_against(v, basis))
        for k, (_, gens) in enumerate(irreducible):
            if out >> k & 1 and not below[k] & out:
                grown = list(basis)
                for g in gens:
                    basis_insert(grown, g)
                key = tuple(grown)
                if key not in seen:
                    seen.add(key)
                    worklist.append(key)
    return len(seen)


@pytest.mark.parametrize(
    "alpha, beta", dict.fromkeys([*ORACLE_PAIRS, (3, 3), (1, 5), (5, 3), *EVEN_LENGTH_CENSUS])
)
def test_census_matches_joining_each_minimal_missing(alpha, beta):
    # The subset-sum pass reaches the same modules as joining every module
    # with each of its minimal missing join-irreducibles.
    expected = census_by_joining_minimal_missing(alpha, beta)
    assert count_codes_census(alpha, beta, 1 << 18) == expected


def test_census_builds_no_word_array(monkeypatch):
    # The marks, the u C spans and the joins are Python ints: numpy's
    # XOR tables and word arrays are never built.
    def refuse(*args, **kwargs):
        raise AssertionError("the census built a word array")

    for module in (codewords, structure):
        monkeypatch.setattr(module, "xor_table", refuse, raising=False)
        monkeypatch.setattr(module, "span_array", refuse, raising=False)
    monkeypatch.setattr(CodeSet, "packed", refuse)
    counts = [count_codes_census(a, b) for a, b in ((3, 3), (1, 5), (5, 3))]
    assert counts == [96, 24, 48]


def by_rank(cyclic):
    """The (word, RREF basis) pairs of {RREF basis: word}, in ascending
    order of rank, as count_codes_census passes them to _count_joins's
    subset-sum pass, which takes them from the largest rank down."""
    return sorted(((w, basis) for basis, w in cyclic.items()), key=lambda c: len(c[1]))


@pytest.mark.parametrize("alpha, beta", ORACLE_PAIRS + [(2, 4), (4, 4), (5, 5)])
def test_join_irreducibles_match_the_containment_filter(alpha, beta):
    # The generator-count filter and the containment filter agree on the
    # cyclic submodules of the whole ambient.
    cyclic = {basis: w for basis, (w, _) in cyclic_submodules(alpha, beta).items()}
    assert join_irreducibles(alpha, beta) == join_irreducibles_by_containment(by_rank(cyclic))


@pytest.mark.parametrize("alpha, beta", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3)])
def test_join_irreducibles_from_word_sets(alpha, beta):
    # A cyclic submodule is join-irreducible when the XOR span of the
    # cyclic submodules strictly inside it is not the whole module.
    cyclic = {
        frozenset(closed_word_set([w], alpha, beta))
        for w in range(1, 1 << (alpha + 2 * beta))
    }
    expected = {
        c
        for c in cyclic
        if spanned_words(set().union(*(d for d in cyclic if d < c))) != c
    }
    found = join_irreducibles(alpha, beta)
    for w, basis in found:
        assert closed_word_set([w], alpha, beta) == spanned_words(basis)
    assert {frozenset(spanned_words(basis)) for _, basis in found} == expected
    assert len(found) == len(expected)


def shift_orbits(alpha, beta):
    """The orbits of the nonzero words under shift_packed."""
    orbits, done = [], set()
    for w in range(1, 1 << (alpha + 2 * beta)):
        if w not in done:
            orbit = {w}
            x = shift_packed(w, alpha, beta)
            while x != w:
                orbit.add(x)
                x = shift_packed(x, alpha, beta)
            done |= orbit
            orbits.append(orbit)
    return orbits


@pytest.mark.parametrize(
    "alpha, beta", ORACLE_PAIRS + [(2, 4), (4, 4), (1, 8), (5, 5), (6, 3)]
)
def test_generator_counts_match_the_orbit_walk(alpha, beta):
    # Marking each closed word's unit coset finds the same submodules, in
    # the same order, with the same least word as closing one word per
    # shift orbit.
    found = structure._cyclic_submodules(alpha, beta, ambient(alpha, beta))
    orbits = [(basis, w) for basis, (w, _) in cyclic_submodules(alpha, beta).items()]
    assert list(found.items()) == orbits


def whole_ambient_walk(alpha, beta):
    """The cyclic submodules walk on the whole ambient, given by its n
    unit vectors: one space of 2^n marks."""
    return structure._cyclic_submodules(alpha, beta, ambient(alpha, beta))


def whole_ambient_census(alpha, beta):
    """The subset-sum pass over the join-irreducibles of the whole ambient."""
    return structure._count_joins(join_irreducibles(alpha, beta))


def closures_made(alpha, beta, monkeypatch, census=whole_ambient_walk):
    """The words a census closes, in order, with their closures."""
    closed = []

    def close_and_log(gens, a, b):
        basis = closure_basis(gens, a, b)
        closed.append((gens[0], basis))
        return basis

    monkeypatch.setattr(structure, "closure_basis", close_and_log)
    census(alpha, beta)
    return closed


@pytest.mark.parametrize("alpha, beta", ORACLE_PAIRS)
def test_census_closes_one_word_per_shift_orbit(alpha, beta, monkeypatch):
    # Every cyclic submodule is closed, and no two closed words share a
    # shift orbit; an orbit whose words generate a submodule already
    # closed is not closed again, so there may be fewer closures than
    # orbits.
    closed = closures_made(alpha, beta, monkeypatch)
    every_word = {closure_basis([w], alpha, beta) for w in range(1, 1 << (alpha + 2 * beta))}
    assert {basis for _, basis in closed} == every_word
    orbits = shift_orbits(alpha, beta)
    orbit_of = {w: i for i, orbit in enumerate(orbits) for w in orbit}
    assert len({orbit_of[w] for w, _ in closed}) == len(closed) <= len(orbits)


@pytest.mark.parametrize("alpha, beta, closures", [(3, 3, 59), (1, 5, 41), (5, 3, 71)])
def test_census_closures_at_the_benchmark_pairs(alpha, beta, closures, monkeypatch):
    # 171 closures in all, for 111 distinct cyclic submodules and 425
    # shift orbits.
    assert len(closures_made(alpha, beta, monkeypatch)) == closures


@pytest.mark.parametrize(
    "alpha, beta, closures", [(3, 3, [5, 9]), (1, 5, [5, 6]), (5, 3, [5, 2, 3])]
)
def test_census_closures_per_component_at_the_benchmark_pairs(
    alpha, beta, closures, monkeypatch
):
    # 35 closures in all, against 171 for the whole-ambient walk.  The
    # census first closes the generator words of each component, one
    # closure per component; the walk's closures follow.
    components = structure._primary_components(alpha, beta)
    closed = closures_made(alpha, beta, monkeypatch, census=count_codes_census)
    assert [basis for _, basis in closed[: len(components)]] == components
    walked = closed[len(components) :]
    per_component = [
        sum(reduce_against(w, space) == 0 for w, _ in walked) for space in components
    ]
    assert per_component == closures
    assert sum(per_component) == len(walked)


CRT_PAIRS = [
    (1, 1), (1, 3), (3, 1), (3, 3), (1, 5), (5, 1), (3, 5), (5, 3), (7, 1), (7, 3), (9, 1),
    (1, 7), (5, 5),
]


@pytest.mark.parametrize("alpha, beta", CRT_PAIRS)
def test_census_matches_the_crt_hypothesis(alpha, beta):
    # A hypothesis recorded as data, for odd lengths; the stated formula
    # 2^C2(alpha) * 3^C2(beta) counts a shared factor as 6, not 2q + 4.
    assert count_codes_census(alpha, beta) == crt_census(alpha, beta)


BENCHMARK_PAIRS = [(3, 3), (1, 5), (5, 3)]


@pytest.mark.parametrize(
    "alpha, beta",
    dict.fromkeys([*ORACLE_PAIRS, *CRT_PAIRS, *EVEN_LENGTH_CENSUS, *BENCHMARK_PAIRS]),
)
def test_census_equals_the_whole_ambient_walk(alpha, beta):
    # The product over the primary components counts the same submodules
    # as one walk over all 2^(alpha + 2*beta) ambient words.
    expected = whole_ambient_census(alpha, beta)
    assert count_codes_census(alpha, beta, 1 << 18) == expected


COMPONENT_PAIRS = [(a, b) for a in range(1, 9) for b in range(1, 9)] + [
    (9, 9), (12, 6), (5, 15), (15, 5), (15, 15), (1, 16), (1, 30),
]


@pytest.mark.parametrize("alpha, beta", COMPONENT_PAIRS)
def test_primary_components_split_the_ambient(alpha, beta):
    # Each component is a submodule, and together they span the ambient
    # with dimensions that add up to its length, so the sum is direct.
    components = structure._primary_components(alpha, beta)
    for space in components:
        assert space == closure_basis(space, alpha, beta)
        for b in space:
            assert reduce_against(shift_packed(b, alpha, beta), space) == 0
            assert reduce_against(umul_packed(b, alpha, beta), space) == 0
    nbits = alpha + 2 * beta
    assert sum(len(space) for space in components) == nbits
    assert CodeSet.from_basis(alpha, beta, [b for s in components for b in s]).rank == nbits


@pytest.mark.parametrize(
    "alpha, beta",
    [(a, b) for a in range(1, 13) for b in range(1, 13)] + [(1, 16), (1, 30), (15, 15)],
)
def test_primary_components_are_the_kernels_of_f_e(alpha, beta):
    # The closure of one or two generator words gives the same fully
    # reduced basis as the kernel of f^e(S).
    assert structure._primary_components(alpha, beta) == primary_components_by_kernel(
        alpha, beta
    )


@pytest.mark.parametrize("alpha, beta", ORACLE_PAIRS + [(3, 3), (1, 5), (5, 3), (4, 4), (2, 6)])
def test_component_walk_matches_the_whole_ambient(alpha, beta):
    # On a component's coordinates the walk finds the cyclic submodules of
    # the whole-ambient walk that lie in that component, in the same order,
    # with the same least word.  The cyclic submodules of the components
    # are the join-irreducibles of the whole ambient.
    whole = whole_ambient_walk(alpha, beta)
    walked_all = set()
    for space in structure._primary_components(alpha, beta):
        inside = [(basis, w) for basis, w in whole.items() if reduce_against(w, space) == 0]
        walked = structure._cyclic_submodules(alpha, beta, space)
        assert list(walked.items()) == inside
        walked_all |= {(w, basis) for basis, w in walked.items()}
    assert walked_all == set(join_irreducibles(alpha, beta))


@pytest.mark.parametrize(
    "alpha, beta",
    dict.fromkeys(
        [*ORACLE_PAIRS, *CRT_PAIRS, *EVEN_LENGTH_CENSUS, *BENCHMARK_PAIRS, (9, 9), (12, 6), (15, 15)]
    ),
)
def test_every_cyclic_submodule_of_a_component_is_join_irreducible(alpha, beta):
    # The algebra acting on a primary component is local, so the
    # containment filter keeps every cyclic submodule the walk finds: none
    # is spanned by the cyclic submodules strictly inside it.
    for space in structure._primary_components(alpha, beta):
        ranked = by_rank(structure._cyclic_submodules(alpha, beta, space))
        assert join_irreducibles_by_containment(ranked) == ranked


@pytest.mark.parametrize("alpha, beta", dict.fromkeys([*BENCHMARK_PAIRS, *EVEN_LENGTH_CENSUS]))
def test_subset_sums_do_not_depend_on_the_order(alpha, beta):
    # The pass forms every sum of the members whatever order it takes
    # them in; only its speed depends on the order.
    rng = random.Random(alpha * 100 + beta)
    product = 1
    for space in structure._primary_components(alpha, beta):
        ranked = by_rank(structure._cyclic_submodules(alpha, beta, space))
        shuffled = rng.sample(ranked, len(ranked))
        counts = {structure._count_joins(order) for order in (ranked, ranked[::-1], shuffled)}
        assert len(counts) == 1
        product *= counts.pop()
    assert product == count_codes_census(alpha, beta, 1 << 18)


@pytest.mark.parametrize("alpha, beta", [(9, 9), (5, 15), (15, 5), (15, 15)])
def test_census_past_the_whole_ambient_matches_the_crt_hypothesis(alpha, beta):
    # Between 2^25 and 2^45 ambient words; the largest component has at
    # most 18 dimensions.
    budget = 1 << (alpha + 2 * beta)
    assert count_codes_census(alpha, beta, budget) == crt_census(alpha, beta)


def test_census_at_12_6_matches_the_distinct_spec_codes():
    # 10,679 distinct closures over the valid specs at (12, 6), counted
    # outside the tier-1 suite.
    assert count_codes_census(12, 6, 1 << 24) == 10679


def test_census_at_7_7_matches_the_crt_hypothesis():
    # The largest brute-force value recorded: 2^21 ambient words.
    assert count_codes_census(7, 7, 1 << 21) == crt_census(7, 7) == 3200


class TestCbDimensions:
    def test_two_readings_differ_on_worked_example(self):
        code = closure_of_spec(WORKED)
        assert type_from_enumeration(code).k0 == 1
        assert cb_dimension(code) == 3


class TestPuncturedSizeIdentities:
    def test_cx_cy_sizes_from_type_parameters(self):
        # |C_X| = 2^(k0+k2'') and |C_Y| = 2^(k1-k0') * 4^k2
        for alpha, beta in ((1, 1), (2, 3), (3, 3)):
            seen = set()
            for spec in iter_valid_specs(alpha, beta):
                code = closure_of_spec(spec)
                if code.basis in seen:
                    continue
                seen.add(code.basis)
                t = type_from_enumeration(code)
                assert len(puncture_x(code)) == 1 << (t.k0 + t.k2pp), spec
                assert len(puncture_y(code)) == (1 << (t.k1 - t.k0p)) * (
                    1 << (2 * t.k2)
                ), spec


class TestCbGenerators:
    def test_case1_cb_equals_three_generator_closure(self):
        from z2ucodes.codewords import ambient_word, enumerate_closure

        for alpha, beta in ((2, 3), (3, 3)):
            for spec in iter_valid_specs(alpha, beta, cases=(1,)):
                code = closure_of_spec(spec)
                gens = [
                    ambient_word(spec.a, (0, 0), alpha, beta),
                    ambient_word(poly_mul(spec.l, spec.h()), (0, 1), alpha, beta),
                    ambient_word(0, (0, spec.g), alpha, beta),
                ]
                assert enumerate_closure(gens, alpha, beta) == subcode_cb(code), spec
