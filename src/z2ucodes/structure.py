"""Punctured codes, the u-multiple subcode, Type parameters and the
submodule census.

Two readings of k0 exist in the source material: the dimension of the
subcode C_b itself versus the dimension of its binary puncturing
(C_b)_X.  The formulas only come out under the punctured reading, so
:func:`type_from_enumeration` uses that one; the rank of
:func:`subcode_cb` is the other, which the verify report shows for
comparison.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .gf2poly import (
    cyclotomic_class_count,
    factor,
    poly_divmod,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_pow,
    x_pow_n_minus_1,
)
from .codewords import (
    CENSUS_BUDGET,
    BudgetExceededError,
    CodeSet,
    CodeSpec,
    basis_insert,
    check_budget,
    closure_basis,
    reduce_against,
    require_valid,
    rref,
    shift_packed,
    umul_packed,
)
from .ringr import reduce_rpoly


@dataclass(frozen=True)
class CodeType:
    """Type parameters (alpha, beta; k0, k1, k2) with the primed splits."""

    alpha: int
    beta: int
    k0: int
    k1: int
    k2: int
    k0p: int
    k0pp: int
    k2p: int
    k2pp: int

    def triple(self) -> tuple[int, int, int]:
        return (self.k0, self.k1, self.k2)

    def size(self) -> int:
        return (1 << self.k1) * (1 << (2 * self.k2))

    def __str__(self):
        return (
            f"Type({self.alpha},{self.beta}; k0={self.k0}, k1={self.k1}, k2={self.k2}; "
            f"k0'={self.k0p}, k0''={self.k0pp}, k2'={self.k2p}, k2''={self.k2pp})"
        )


def _kernel(code: CodeSet, mask: int) -> CodeSet:
    """The codewords with no bit in mask, computed from the basis.

    Eliminates with the masked bits lifted above the word, so that they
    lead; the rows left with no masked bit span the kernel, and are
    already its canonical basis.
    """
    n = code.n
    rows = rref((b & ~mask) | (b & mask) << n for b in code.basis)
    return CodeSet(code.alpha, code.beta, tuple(r for r in rows if not r >> n))


def puncture_x(code: CodeSet) -> CodeSet:
    """Binary code of the first blocks."""
    if code.alpha == 0:
        raise ValueError("puncture_x requires alpha >= 1")
    amask = (1 << code.alpha) - 1
    return CodeSet.from_basis(code.alpha, 0, (b & amask for b in code.basis))


def puncture_y(code: CodeSet) -> CodeSet:
    """Code of second blocks, as a CodeSet with an empty binary part."""
    if code.beta == 0:
        raise ValueError("puncture_y requires beta >= 1")
    return CodeSet.from_basis(0, code.beta, (b >> code.alpha for b in code.basis))


def subcode_cb(code: CodeSet) -> CodeSet:
    """The codewords whose every second-block symbol lies in {0, u}."""
    return _kernel(code, ((1 << code.beta) - 1) << code.alpha)


def type_from_formulas(spec: CodeSpec) -> CodeType:
    """Type parameters from the closed-form degree expressions."""
    require_valid(spec)
    alpha, beta = spec.alpha, spec.beta
    da = spec.a.bit_length() - 1
    dg = spec.g.bit_length() - 1
    lh = poly_mul(spec.l, spec.h())
    d_gcd_lh = poly_gcd(lh, spec.a).bit_length() - 1
    d_gcd_l = poly_gcd(spec.l, spec.a).bit_length() - 1
    if spec.case == 1:
        k0 = alpha - d_gcd_lh
        k1 = alpha + dg - da
        k2 = beta - dg
        k0p = alpha - da
        k0pp = da - d_gcd_lh
        k2pp = d_gcd_lh - d_gcd_l
        k2p = beta - dg - k2pp
    elif spec.case == 2:
        k0 = alpha - d_gcd_l
        k1 = alpha + beta - da - dg
        k2 = 0
        k0p = alpha - da
        k0pp = da - d_gcd_l
        k2p = 0
        k2pp = 0
    else:
        df = spec.f.bit_length() - 1
        k0 = alpha - d_gcd_l
        k1 = alpha + dg - da - df
        k2 = beta - dg
        k0p = alpha - da
        k0pp = da - d_gcd_l
        # Stated split for this case; the reversed gcd order can go
        # negative, which the enumeration comparison then reports.
        k2pp = d_gcd_l - d_gcd_lh
        k2p = beta - dg - k2pp
    return CodeType(alpha, beta, k0, k1, k2, k0p, k0pp, k2p, k2pp)


def type_from_enumeration(code: CodeSet) -> CodeType:
    """Type parameters measured directly on the code, as ranks of its
    subcodes and projections."""
    alpha, beta = code.alpha, code.beta
    amask = (1 << alpha) - 1
    pmask = ((1 << beta) - 1) << alpha
    ymask = ((1 << (2 * beta)) - 1) << alpha

    cb = _kernel(code, pmask)
    k2 = code.rank - cb.rank
    k1 = code.rank - 2 * k2
    # The words of C with no binary bit and no 1-component: the kernel of
    # (C_b)_X within C_b and of the p-projection within the Y-only subcode.
    u_only = _kernel(cb, amask).rank
    k0 = cb.rank - u_only  # rank of (C_b)_X
    k0p = _kernel(code, ymask).rank
    k2p = _kernel(code, amask).rank - u_only
    return CodeType(alpha, beta, k0, k1, k2, k0p, k0 - k0p, k2p, k2 - k2p)


def count_codes_formula(alpha: int, beta: int) -> int:
    """Predicted census 2^C2(alpha) * 3^C2(beta) for odd lengths."""
    if alpha % 2 == 0 or beta % 2 == 0:
        raise ValueError("the census formula requires odd alpha and beta")
    return 2 ** cyclotomic_class_count(alpha) * 3 ** cyclotomic_class_count(beta)


def _primary_components(alpha: int, beta: int) -> list[tuple[int, ...]]:
    """The f-primary components V_f of the ambient, as fully reduced RREF
    bases, in ascending order of f.

    f runs over the irreducible factors of x^alpha - 1 and x^beta - 1.
    As an F2[x]-module, with x acting as the shift, the binary block is
    F2[x]/(x^alpha - 1) and the R block is F2[x]/((x^beta - 1)^2), since
    x^beta = 1 + u and u^2 = 0.  For a modulus m = f^e k with f prime to
    k, the f-primary part of F2[x]/(m) is k F2[x]/(m).  So V_f is the
    F2[x]-span of ((x^alpha - 1)/f^s, 0) when f^s is the power of f in
    x^alpha - 1, and of (0, h^2) with h = (x^beta - 1)/f^t when f^t is
    the power of f in x^beta - 1.  That span is their closure: u maps the
    binary block to 0 and acts on the R block as x^beta - 1.  The ambient
    is the direct sum of the V_f (primary decomposition over the PID
    F2[x]; Jacobson, *Basic Algebra I*, ch. 3).
    """
    generators: dict[int, list[int]] = {}
    if alpha:
        xa = x_pow_n_minus_1(alpha)
        for f, s in factor(xa):
            generators[f] = [poly_divmod(xa, poly_pow(f, s))[0]]
    if beta:
        xb = x_pow_n_minus_1(beta)
        for f, t in factor(xb):
            h = poly_divmod(xb, poly_pow(f, t))[0]
            p, q = reduce_rpoly((poly_mul(h, h), 0), beta)
            generators.setdefault(f, []).append(p << alpha | q << (alpha + beta))
    return [closure_basis(generators[f], alpha, beta) for f in sorted(generators)]


def _cyclic_submodules(
    alpha: int, beta: int, space: tuple[int, ...]
) -> dict[tuple[int, ...], int]:
    """Every distinct cyclic submodule inside the submodule spanned by
    ``space`` (a fully reduced RREF basis), as {RREF basis: least word
    that generates it}, in ascending order of that word.

    The marks index the words of the space by their coordinates, their
    bits at the pivots of the basis.  The basis is fully reduced, so a
    word is the XOR of the basis vectors at the set bits of its
    coordinate, and coordinates ascend with the words (as in
    :func:`~z2ucodes.codewords.span_array`).  Coordinates are linear, so
    u C and the cosets below are marked in coordinates.

    Walks the nonzero words in ascending order and closes each word w not
    yet marked, under {+, x*, u*}, to C = A w.  Then it marks every word
    x^i w + v with v in u C.  These words all generate C: (1 + u p(x))^2
    = 1, so 1 + u p(x) is a unit, and (1 + u p(x)) x^i w = x^i w + u p(x)
    x^i w with x^i a unit too (x^alpha = 1, x^beta = 1 + u).  They lie in
    the space, since it is a submodule.  Since u^2 = 0, u C = u F2[x] w,
    which is the XOR span of the u-multiples of C's basis: a list of
    Python ints that doubles with each u-multiple not yet in it, so the
    marks need no second closure.  The cosets x^i w + u C are permuted by
    the shift (u C is shift-invariant), so they come back to w's own
    coset, and marking stops at the first coset already marked.  A marked
    word generates a known submodule, so each cyclic submodule is first
    closed at its least generator.  The next word to close is the next
    unmarked byte.
    """
    dim = len(space)
    rows = space[::-1]
    pivots = [b.bit_length() - 1 for b in rows]

    def coordinate(w: int) -> int:
        c = 0
        for i, p in enumerate(pivots):
            c |= (w >> p & 1) << i
        return c

    try:
        done = bytearray(1 << dim)
    except MemoryError:
        raise BudgetExceededError(
            f"the census cannot allocate its 2^{dim} orbit marks ({1 << dim} bytes)"
        ) from None
    cyclic: dict[tuple[int, ...], int] = {}
    c = done.find(0, 1)
    while c > 0:
        w = 0
        for i, b in enumerate(rows):
            if c >> i & 1:
                w ^= b
        basis = closure_basis([w], alpha, beta)
        cyclic.setdefault(basis, w)
        u_span = [0]
        for b in basis:
            v = coordinate(umul_packed(b, alpha, beta))
            if v not in u_span:
                u_span += [s ^ v for s in u_span]
        coset, mark = w, c
        while not done[mark]:
            for v in u_span:
                done[mark ^ v] = 1
            coset = shift_packed(coset, alpha, beta)
            mark = coordinate(coset)
        c = done.find(0, c + 1)
    return cyclic


def _count_joins(cyclic: list[tuple[int, tuple[int, ...]]]) -> int:
    """The number of submodules that are sums of the cyclic submodules
    ``cyclic``, given as (word, RREF basis) pairs with the word
    generating the submodule, the zero module included.  Every submodule
    of the space must be a sum of them; the cyclic submodules of
    :func:`_cyclic_submodules` are, since a module is the sum of the
    cyclic submodules of its elements.

    Forms every subset sum in one pass, from the last member to the
    first (from the largest rank down, as :func:`count_codes_census`
    sorts them): each member is joined into every sum found so far that
    its word does not reduce to 0 against.  A sum of submodules is a
    submodule, so a join is the RREF span of the two bases and needs no
    closure.  The order changes only the speed.
    """
    sums: set[tuple[int, ...]] = {()}
    for w, gens in reversed(cyclic):
        for basis in list(sums):
            if reduce_against(w, basis):
                grown = list(basis)
                for g in gens:
                    basis_insert(grown, g)
                sums.add(tuple(grown))
    return len(sums)


def count_codes_census(alpha: int, beta: int, budget: int = CENSUS_BUDGET) -> int:
    """Exhaustive submodule count, as the product of the submodule
    counts of the f-primary components (:func:`_primary_components`).

    The projections of the ambient onto its components V_f are
    polynomials in the shift, and u commutes with the shift, so every
    submodule N is the direct sum of its pieces N meet V_f, each a
    submodule of V_f, and every choice of pieces gives a submodule.
    Each component's submodules are counted as the subset sums
    (:func:`_count_joins`) of its cyclic submodules
    (:func:`_cyclic_submodules`), on 2^dim(V_f) marks.

    The budget and the word-width limit are charged here, once, by the
    whole ambient of 2^(alpha + 2*beta) words, before x^alpha - 1 and
    x^beta - 1 are factored; no component has more marks than the
    ambient has words.
    """
    nbits = alpha + 2 * beta
    check_budget(nbits, budget)
    if nbits >= sys.maxsize.bit_length():
        raise BudgetExceededError(
            f"word length {nbits} bits is too wide for the census: a primary "
            f"component of up to {nbits} dimensions would need 2^{nbits} orbit "
            f"marks, more than a bytearray can index"
        )
    count = 1
    for space in _primary_components(alpha, beta):
        cyclic = _cyclic_submodules(alpha, beta, space)
        count *= _count_joins(
            sorted(((w, basis) for basis, w in cyclic.items()), key=lambda c: len(c[1]))
        )
    return count


def cyclic_code_from_generator(gen: int, n: int) -> CodeSet:
    """Binary cyclic code of length n generated by gen (may be zero).

    At beta = 0 the closure's shift is the n-bit rotation and its
    u-multiple is 0, so the closure of gen is the cyclic code.
    """
    return CodeSet(n, 0, closure_basis([poly_mod(gen, x_pow_n_minus_1(n))], n, 0))


def census_table(
    pairs: "list[tuple[int, int]]", budget: int = CENSUS_BUDGET
) -> list[dict]:
    """Comparison rows (alpha, beta, formula count, census count, match)."""
    rows = []
    for alpha, beta in pairs:
        # The census refuses an oversized pair before the formula walks
        # the cyclotomic classes of alpha and beta.
        census = count_codes_census(alpha, beta, budget)
        formula = None
        if alpha % 2 == 1 and beta % 2 == 1:
            formula = count_codes_formula(alpha, beta)
        rows.append(
            {
                "alpha": alpha,
                "beta": beta,
                "formula": formula,
                "census": census,
                "match": (formula == census) if formula is not None else None,
            }
        )
    return rows
