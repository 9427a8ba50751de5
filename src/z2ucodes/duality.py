"""The inner product, brute-force duals, dual-degree formulas, separable
duals, the eta pairing and the Gray-route dual generator predictions.

Orthogonality of a scanned word w against a fixed codeword d reduces to
two GF(2) parity conditions on w (the free part and the u part of the
inner product).  The brute-force dual folds these conditions into an
independent set, so that a word's syndrome (one parity per condition)
is a linear function of it, and scans the ambient space as a table of
high-half syndromes against a table of low-half syndromes: w lies in
the dual exactly when the two halves' syndromes cancel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gf2poly import (
    ONE,
    ZERO,
    BinPoly,
    factor,
    poly_divmod,
    poly_gcd,
    reciprocal,
    x_pow_n_minus_1,
)
from .ringr import RP_ZERO, AmbientElement, RElem, RPoly
from .codewords import (
    DEFAULT_BUDGET,
    CodeSet,
    CodeSpec,
    Codeword,
    basis_insert,
    check_budget,
    check_word_width,
    closure_of_spec,
    is_constacyclic,
    iter_spec_families,
    reduce_against,
    require_valid,
    xor_table,
    y_generator_of,
)


def inner_product(c1: Codeword, c2: Codeword) -> RElem:
    """u * sum(a_i d_i) + sum(b_j e_j), valued in R."""
    if c1.alpha != c2.alpha or c1.beta != c2.beta:
        raise ValueError("codeword length mismatch")
    alpha, beta = c1.alpha, c1.beta
    w1, w2 = c1.to_packed(), c2.to_packed()
    m1, m2 = orthogonality_masks(w2, alpha, beta)
    return RElem((w1 & m1).bit_count() & 1, (w1 & m2).bit_count() & 1)


def orthogonality_masks(gen_packed: int, alpha: int, beta: int) -> tuple[int, int]:
    """Masks whose parities give the free and u parts of <w, gen>.

    With w = (a, p, q) and gen = (d, s, t):
    free part  = parity(p & s)
    u part     = parity(a & d) ^ parity(p & t) ^ parity(q & s)
    """
    amask = (1 << alpha) - 1
    bmask = (1 << beta) - 1
    d = gen_packed & amask
    s = (gen_packed >> alpha) & bmask
    t = (gen_packed >> (alpha + beta)) & bmask
    m_free = s << alpha
    m_u = d | (t << alpha) | (s << (alpha + beta))
    return m_free, m_u


def _orthogonality_rows(code: CodeSet) -> list[int]:
    """An RREF basis of the generators' orthogonality masks: the dual is
    the set of words with even parity against every row."""
    rows: list[int] = []
    for gen in code.basis:
        for mask in orthogonality_masks(int(gen), code.alpha, code.beta):
            basis_insert(rows, mask)
    return rows


def _syndrome_table(rows: Sequence[int], shift: int, nbits: int) -> np.ndarray:
    """Syndromes of the words h << shift for h in [0, 2^nbits): bit i of
    an entry is the parity of that word against rows[i]."""
    columns = range(shift, shift + nbits)
    return xor_table([sum(1 << i for i, r in enumerate(rows) if (r >> j) & 1) for j in columns])


def dual_bruteforce(code: CodeSet, budget: int = DEFAULT_BUDGET) -> CodeSet:
    """All ambient elements orthogonal to every codeword.

    Testing against the generating set suffices by bilinearity; each
    generator contributes two parity conditions, folded into at most
    n = alpha + 2*beta independent rows, so a syndrome fits in an int64.
    The syndrome is linear, so the word hi|lo is in the dual exactly when
    S_hi[hi] == S_lo[lo]: every ambient word is tested, as one outer
    comparison of the two half tables.  At beta = 0 the u-part condition
    is the mod-2 dot product and the free part is empty, so this is the
    dual of a binary code.
    """
    alpha, beta = code.alpha, code.beta
    nbits = alpha + 2 * beta
    check_word_width(nbits)
    check_budget(nbits, budget)
    rows = _orthogonality_rows(code)
    low = nbits // 2
    s_lo = _syndrome_table(rows, 0, low)
    s_hi = _syndrome_table(rows, low, nbits - low)
    words = np.flatnonzero(s_hi[:, None] == s_lo[None, :])
    return CodeSet.from_packed_words(alpha, beta, words)


def dual_basis_linear(code: CodeSet) -> CodeSet:
    """The same dual as :func:`dual_bruteforce`, via exact GF(2) kernel
    computation on the orthogonality functionals (no ambient scan).

    Used for bulk sweeps; the acceptance suite cross-validates it against
    the scan oracle.
    """
    rows = _orthogonality_rows(code)
    pivot_bits = 0
    for r in rows:
        pivot_bits |= 1 << (r.bit_length() - 1)
    kernel = []
    for j in range(code.n):
        if (pivot_bits >> j) & 1:
            continue
        v = 1 << j
        for r in rows:
            if (r & v).bit_count() & 1:
                v |= 1 << (r.bit_length() - 1)
        kernel.append(v)
    return CodeSet.from_basis(code.alpha, code.beta, kernel)


def check_dual_constacyclic(code: CodeSet, budget: int = DEFAULT_BUDGET) -> bool:
    """Does the brute-force dual pass the constacyclic closure check?"""
    return is_constacyclic(dual_bruteforce(code, budget))


@dataclass(frozen=True)
class DualDegrees:
    """Predicted degrees of the dual generator polynomials."""

    abar: int
    gbar: int
    fbar: "int | None" = None


def dual_degree_formulas(spec: CodeSpec) -> DualDegrees:
    """The stated dual-degree expressions, evaluated verbatim.

    Negative values are possible on admissible inputs and are reported
    as-is; the brute-force dual is the ground truth.
    """
    require_valid(spec)
    alpha, beta = spec.alpha, spec.beta
    da = spec.a.degree
    dg = spec.g.degree
    h = spec.h()
    dh = h.degree
    d_gcd_lh = poly_gcd(spec.a, spec.l * h).degree
    d_gcd_l = poly_gcd(spec.a, spec.l).degree
    if spec.case == 1:
        return DualDegrees(alpha - d_gcd_lh, dh + da - d_gcd_lh)
    if spec.case == 2:
        return DualDegrees(alpha - d_gcd_l, dh - da + d_gcd_l)
    df = spec.f.degree
    return DualDegrees(
        alpha - d_gcd_lh,
        beta - df - da - d_gcd_l,
        dh + 2 * da + df - dg - 2 * d_gcd_l,
    )


def _beta_factor_exponents(spec: CodeSpec) -> tuple[int, list[tuple[BinPoly, int]]]:
    """(2^e, [(irreducible factor of x^beta-1, exponent in f*g)])."""
    beta = spec.beta
    e = 0
    m = beta
    while m % 2 == 0:
        e += 1
        m //= 2
    base = factor(x_pow_n_minus_1(beta))
    fg_f = factor(spec.f) if spec.f is not None and spec.f != ONE else None
    fg_g = factor(spec.g) if spec.g != ONE else None
    exps = []
    for p, _mult in base:
        c = 0
        if fg_f is not None:
            c += fg_f.multiplicity(p)
        if fg_g is not None:
            c += fg_g.multiplicity(p)
        exps.append((p, c))
    return 1 << e, exps


def separable_dual(spec: CodeSpec) -> CodeSpec:
    """Dual generator spec for separable codes (l = 0)."""
    if not spec.l.is_zero():
        raise ValueError("separable dual formulas require l = 0")
    xa = x_pow_n_minus_1(spec.alpha)
    xb = x_pow_n_minus_1(spec.beta)
    abar = xa // reciprocal(spec.a)
    if spec.case == 1:
        return CodeSpec(spec.alpha, spec.beta, 2, abar, ZERO, xb // reciprocal(spec.g))
    if spec.case == 2:
        return CodeSpec(spec.alpha, spec.beta, 1, abar, ZERO, xb // reciprocal(spec.g))
    # Factor-power case: exponent i_j goes to 2^(e+1) - i_j, reciprocated.
    two_e, exps = _beta_factor_exponents(spec)
    fbar = ONE
    gbar = ONE
    for p, c in exps:
        dual_c = 2 * two_e - c
        if dual_c < 0:
            raise ValueError(f"exponent {c} of {p} exceeds 2^(e+1)")
        pstar = reciprocal(p)
        g_mult = min(dual_c, two_e)
        gbar = gbar * pstar**g_mult
        fbar = fbar * pstar ** (dual_c - g_mult)
    return CodeSpec(spec.alpha, spec.beta, 3, abar, ZERO, gbar, fbar)


_DUAL_CASE = {1: 2, 2: 1, 3: 3}


def recover_spec(
    dual: CodeSet, cases: Sequence[int], budget: int = DEFAULT_BUDGET
) -> "CodeSpec | None":
    """The first valid spec, over the cases in the given order, that
    generates the dual.

    A spec can only generate the dual if both its generators lie in it,
    so only those candidates are closed; the filter is a necessary
    condition and leaves the search's answer unchanged.  Reduction
    against the dual's RREF basis is linear, so (a, 0) lies in the dual
    iff its remainder is 0, and (l, y) iff rem(l, 0) == rem(0, y); each
    remainder is computed once per distinct a, l and y.
    """
    alpha, beta = dual.alpha, dual.beta
    first_rems: dict[int, int] = {}
    y_rems: dict[RPoly, int] = {}

    def rem(first: BinPoly, second: RPoly) -> int:
        return reduce_against(AmbientElement(first, second, alpha, beta).packed(), dual.basis)

    def first_rem(p: BinPoly) -> int:
        if p.bits not in first_rems:
            first_rems[p.bits] = rem(p, RP_ZERO)
        return first_rems[p.bits]

    for case in cases:
        for a, g, f, ls in iter_spec_families(alpha, beta, case):
            if first_rem(a):
                continue
            y = y_generator_of(case, g, f)
            if y not in y_rems:
                y_rems[y] = rem(ZERO, y)
            for l in ls:
                if first_rem(l) == y_rems[y]:
                    cand = CodeSpec(alpha, beta, case, a, l, g, f)
                    if closure_of_spec(cand, budget).basis == dual.basis:
                        return cand
    return None


@dataclass
class DualReport:
    """Brute-force dual next to the stated degree predictions."""

    spec: CodeSpec
    dual: CodeSet
    predicted_degrees: DualDegrees
    observed: "CodeSpec | None"

    @property
    def stated_dual_case(self) -> int:
        return _DUAL_CASE[self.spec.case]

    @property
    def observed_case(self) -> "int | None":
        return self.observed.case if self.observed is not None else None

    @property
    def match(self) -> str:
        """Verdict on the degrees: "match" or "mismatch", or "not-applicable"
        when the dual has no generator spec of the stated dual case."""
        if self.observed_case != self.stated_dual_case:
            return "not-applicable"
        return "match" if self.observed_degrees() == self.predicted_degrees else "mismatch"

    def observed_degrees(self) -> "DualDegrees | None":
        if self.observed is None:
            return None
        fdeg = self.observed.f.degree if self.observed.f is not None else None
        return DualDegrees(self.observed.a.degree, self.observed.g.degree, fdeg)

    def to_dict(self) -> dict:
        obs = self.observed_degrees()
        return {
            "spec": self.spec.serialize().strip().splitlines(),
            "dual_size": len(self.dual),
            "stated_dual_case": self.stated_dual_case,
            "predicted_degrees": {
                "abar": self.predicted_degrees.abar,
                "gbar": self.predicted_degrees.gbar,
                "fbar": self.predicted_degrees.fbar,
            },
            "observed_generators": (
                self.observed.serialize().strip().splitlines()
                if self.observed is not None
                else "no spec of the stated form found"
            ),
            "observed_case": self.observed_case,
            "observed_degrees": (
                {"abar": obs.abar, "gbar": obs.gbar, "fbar": obs.fbar} if obs else None
            ),
            "match": self.match,
        }


def build_dual_report(
    spec: CodeSpec, dual: CodeSet, budget: int = DEFAULT_BUDGET
) -> DualReport:
    """Recover a generator spec for the dual of the spec's code and
    adjudicate the stated degrees against it."""
    # The stated form first; if it fails, any generator form for the record.
    stated = _DUAL_CASE[spec.case]
    cases = sorted((1, 2, 3), key=lambda case: case != stated)
    return DualReport(spec, dual, dual_degree_formulas(spec), recover_spec(dual, cases, budget))


# ---------------------------------------------------------------------------
# eta pairing and Gray-route dual predictions


def _theta_at_power(t: int, step: int) -> BinPoly:
    """theta_t(x^step) = 1 + x^step + ... + x^(step*(t-1))."""
    bits = 0
    for i in range(t):
        bits |= 1 << (step * i)
    return BinPoly(bits)


def eta_pair(
    c1: tuple[BinPoly, BinPoly],
    c2: tuple[BinPoly, BinPoly],
    alpha: int,
    beta: int,
) -> BinPoly:
    """The bilinear pairing into Z2[x]/(x^m - 1) with m = 2*lcm(alpha, beta).

    A zero right-hand component contributes the zero summand (its degree
    offset is undefined otherwise).
    """
    import math

    m = 2 * math.lcm(alpha, beta)
    xm = x_pow_n_minus_1(m)
    xa = x_pow_n_minus_1(alpha)
    xb = x_pow_n_minus_1(beta)
    c11, c12 = c1[0] % xa, c1[1] % xb
    c21, c22 = c2[0] % xa, c2[1] % xb
    total = ZERO
    if not c11.is_zero() and not c21.is_zero():
        term = (
            c11
            * _theta_at_power(m // alpha, alpha)
            * BinPoly(1 << (m - 1 - c21.degree))
            * reciprocal(c21)
        )
        total = total + term % xm
    if not c12.is_zero() and not c22.is_zero():
        term = (
            c12
            * _theta_at_power(m // beta, beta)
            * BinPoly(1 << (m - 1 - c22.degree))
            * reciprocal(c22)
        )
        total = total + term % xm
    return total % xm


@dataclass(frozen=True)
class GrayRoutePrediction:
    """One predicted dual polynomial from the Gray-image route."""

    name: str
    value: "BinPoly | None"
    exact: bool


@dataclass
class GrayRouteDual:
    """Gray-route dual polynomials; inexact divisions are findings."""

    abar: GrayRoutePrediction
    second: tuple[GrayRoutePrediction, ...]
    lbar_family_base: BinPoly  # lbar = base * lambda with lambda undetermined


def _exact_div(name: str, num: BinPoly, den: BinPoly) -> GrayRoutePrediction:
    q, r = poly_divmod(num, den)
    if r.is_zero():
        return GrayRoutePrediction(name, q, True)
    return GrayRoutePrediction(name, None, False)


def gray_route_dual(spec: CodeSpec) -> GrayRouteDual:
    """Dual generator predictions via the binary double-cyclic route."""
    require_valid(spec)
    alpha, beta = spec.alpha, spec.beta
    xa = x_pow_n_minus_1(alpha)
    xb = x_pow_n_minus_1(beta)
    gstar = reciprocal(poly_gcd(spec.a, spec.l)) if not (spec.a.is_zero() and spec.l.is_zero()) else ONE
    astar = reciprocal(spec.a)
    abar = _exact_div("abar", xa, gstar)
    lbase = xa // astar
    if spec.case == 1:
        second = (_exact_div("gbar", xb * gstar, astar * reciprocal(spec.g)),)
    elif spec.case == 2:
        second = (
            _exact_div(
                "gbar", x_pow_n_minus_1(2 * beta) * gstar, astar * reciprocal(spec.g) * xb
            ),
        )
    else:
        x2b = x_pow_n_minus_1(2 * beta)
        preds = []
        for p, c in _beta_factor_exponents(spec)[1]:
            if c == 0:
                continue
            preds.append(_exact_div(f"fbar[{p}]", x2b * gstar, astar * reciprocal(p) ** c))
        second = tuple(preds)
    return GrayRouteDual(abar, second, lbase)
