"""Punctured codes, the u-multiple subcode, Type parameters and the
submodule census.

Two readings of k0 exist in the source material: the dimension of the
subcode C_b itself versus the dimension of its binary puncturing
(C_b)_X.  The formulas only come out under the punctured reading, so
:func:`type_from_enumeration` uses that one; :func:`cb_dimension`
exposes the other for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2poly import BinPoly, cyclotomic_class_count, poly_gcd, x_pow_n_minus_1
from .codewords import (
    CENSUS_BUDGET,
    CodeSet,
    CodeSpec,
    basis_insert,
    check_budget,
    closure_basis,
    require_valid,
)


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
    lead; the rows left with no masked bit span the kernel.
    """
    n = code.n
    rows: list[int] = []
    for b in code.basis:
        m = b & mask
        basis_insert(rows, (b ^ m) | (m << n))
    return CodeSet.from_basis(code.alpha, code.beta, (r for r in rows if not r >> n))


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
    """Codewords whose every second-block symbol lies in {0, u}."""
    return _kernel(code, ((1 << code.beta) - 1) << code.alpha)


def cb_dimension(code: CodeSet) -> int:
    """log2 |C_b|: the looser reading of k0."""
    return subcode_cb(code).rank


def type_from_formulas(spec: CodeSpec) -> CodeType:
    """Type parameters from the closed-form degree expressions."""
    require_valid(spec)
    alpha, beta = spec.alpha, spec.beta
    da = spec.a.degree
    dg = spec.g.degree
    lh = spec.l * spec.h()
    d_gcd_lh = poly_gcd(lh, spec.a).degree
    d_gcd_l = poly_gcd(spec.l, spec.a).degree
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
        df = spec.f.degree
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
    k0 = cb.rank - _kernel(cb, amask).rank  # rank of (C_b)_X
    k0p = _kernel(code, ymask).rank
    yonly = _kernel(code, amask)
    k2p = yonly.rank - _kernel(yonly, pmask).rank
    return CodeType(alpha, beta, k0, k1, k2, k0p, k0 - k0p, k2p, k2 - k2p)


def count_codes_formula(alpha: int, beta: int) -> int:
    """Predicted census 2^C2(alpha) * 3^C2(beta) for odd lengths."""
    if alpha % 2 == 0 or beta % 2 == 0:
        raise ValueError("the census formula requires odd alpha and beta")
    return 2 ** cyclotomic_class_count(alpha) * 3 ** cyclotomic_class_count(beta)


def count_codes_census(alpha: int, beta: int, budget: int = CENSUS_BUDGET) -> int:
    """Exhaustive submodule count as the join lattice of the cyclic
    submodules.

    Closes every nonzero ambient word once, under {+, x*, u*}, to get the
    distinct cyclic submodules; then walks up from the zero module,
    joining each known module with every cyclic submodule it does not
    contain.  A sum of submodules is a submodule, so a join is the RREF
    span of the two bases and needs no closure, and every submodule is
    reached because it is the sum of the cyclic submodules of its
    elements.  No counting formula is consulted.
    """
    nbits = alpha + 2 * beta
    check_budget(nbits, budget)
    cyclic = sorted({closure_basis([w], alpha, beta) for w in range(1, 1 << nbits)})
    zero_key: tuple[int, ...] = ()
    seen = {zero_key}
    worklist = [zero_key]
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


def cyclic_code_from_generator(gen: BinPoly, n: int) -> CodeSet:
    """Binary cyclic code of length n generated by gen (may be zero).

    At beta = 0 the closure's shift is the n-bit rotation and its
    u-multiple is 0, so the closure of gen is the cyclic code.
    """
    return CodeSet(n, 0, closure_basis([(gen % x_pow_n_minus_1(n)).bits], n, 0))


def census_table(
    pairs: "list[tuple[int, int]]", budget: int = CENSUS_BUDGET
) -> list[dict]:
    """Comparison rows (alpha, beta, formula count, census count, match)."""
    rows = []
    for alpha, beta in pairs:
        formula = None
        if alpha % 2 == 1 and beta % 2 == 1:
            formula = count_codes_formula(alpha, beta)
        census = count_codes_census(alpha, beta, budget)
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
