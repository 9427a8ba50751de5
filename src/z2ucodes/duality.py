"""Orthogonality masks of the inner product, the dual as a GF(2)
kernel, dual-degree formulas, separable duals, the eta pairing and the
Gray-route dual generator predictions.

Orthogonality of a word w against a fixed codeword d reduces to two
GF(2) parity conditions on w (the free part and the u part of the inner
product).  The dual is the set of words with even parity against every
condition: the kernel of these functionals, read off a reduced row
echelon form of them (MacWilliams & Sloane, *The Theory of
Error-Correcting Codes*, ch. 1).  No ambient word is scanned; the tests
keep the ambient scan as its referee.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from .gf2poly import (
    factor,
    poly_divmod,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_pow,
    poly_text,
    reciprocal,
    x_pow_n_minus_1,
)
from .ringr import reduce_rpoly
from .codewords import (
    CodeSet,
    CodeSpec,
    ambient_word,
    basis_insert,
    check_word_width,
    closure_basis,
    is_constacyclic,
    iter_spec_families,
    l_base,
    null_space,
    reduce_against,
    require_valid,
    xor_table,
    y_generator_of,
)


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


def dual_bruteforce(code: CodeSet) -> CodeSet:
    """All ambient elements orthogonal to every codeword, as a GF(2)
    kernel; no ambient word is scanned.

    Testing against the generating set suffices by bilinearity; each
    generator contributes two parity conditions, folded into a fully
    reduced RREF basis of rows.  The dual is their kernel
    (:func:`~z2ucodes.codewords.null_space`).  At beta = 0 the u-part
    condition is the mod-2 dot product and the free part is empty, so
    this is the dual of a binary code.  It lists no word, and its one
    limit is the width check, which refuses the codes whose words the
    other commands refuse to list.
    """
    nbits = code.alpha + 2 * code.beta
    check_word_width(nbits)
    kernel = null_space(_orthogonality_rows(code), nbits)
    return CodeSet.from_basis(code.alpha, code.beta, kernel)


def check_dual_constacyclic(code: CodeSet) -> bool:
    """Does the dual, the GF(2) kernel of :func:`dual_bruteforce`, pass
    the constacyclic closure check?"""
    return is_constacyclic(dual_bruteforce(code))


@dataclass(frozen=True)
class DualDegrees:
    """Predicted degrees of the dual generator polynomials."""

    abar: int
    gbar: int
    fbar: "int | None" = None


def dual_degree_formulas(spec: CodeSpec) -> DualDegrees:
    """The stated dual-degree expressions, evaluated verbatim.

    Negative values are possible on admissible inputs and are reported
    as-is; the dual computed as a GF(2) kernel (:func:`dual_bruteforce`)
    is the ground truth.
    """
    require_valid(spec)
    alpha, beta = spec.alpha, spec.beta
    da = spec.a.bit_length() - 1
    dg = spec.g.bit_length() - 1
    h = spec.h()
    dh = h.bit_length() - 1
    d_gcd_lh = poly_gcd(spec.a, poly_mul(spec.l, h)).bit_length() - 1
    d_gcd_l = poly_gcd(spec.a, spec.l).bit_length() - 1
    if spec.case == 1:
        return DualDegrees(alpha - d_gcd_lh, dh + da - d_gcd_lh)
    if spec.case == 2:
        return DualDegrees(alpha - d_gcd_l, dh - da + d_gcd_l)
    df = spec.f.bit_length() - 1
    return DualDegrees(
        alpha - d_gcd_lh,
        beta - df - da - d_gcd_l,
        dh + 2 * da + df - dg - 2 * d_gcd_l,
    )


def _beta_factor_exponents(spec: CodeSpec) -> tuple[int, list[tuple[int, int]]]:
    """(2^e, [(irreducible factor of x^beta-1, exponent in f*g)]).

    x^beta - 1 = (x^m - 1)^(2^e) with m odd and x^m - 1 squarefree, so
    every factor of x^beta - 1 has multiplicity 2^e.
    """
    base = factor(x_pow_n_minus_1(spec.beta))
    fg = poly_mul(1 if spec.f is None else spec.f, spec.g)
    exps = dict(factor(fg)) if fg != 1 else {}
    return base.factors[0][1], [(p, exps.get(p, 0)) for p, _ in base]


_DUAL_CASE = {1: 2, 2: 1, 3: 3}


def separable_dual(spec: CodeSpec) -> CodeSpec:
    """Dual generator spec for separable codes (l = 0)."""
    if spec.l:
        raise ValueError("separable dual formulas require l = 0")
    abar = poly_divmod(x_pow_n_minus_1(spec.alpha), reciprocal(spec.a))[0]
    if spec.case in (1, 2):
        gbar = poly_divmod(x_pow_n_minus_1(spec.beta), reciprocal(spec.g))[0]
        return CodeSpec(spec.alpha, spec.beta, _DUAL_CASE[spec.case], abar, 0, gbar)
    # Factor-power case: exponent i_j goes to 2^(e+1) - i_j, reciprocated.
    two_e, exps = _beta_factor_exponents(spec)
    fbar = 1
    gbar = 1
    for p, c in exps:
        dual_c = 2 * two_e - c
        if dual_c < 0:
            raise ValueError(f"exponent {c} of {poly_text(p)} exceeds 2^(e+1)")
        pstar = reciprocal(p)
        g_mult = min(dual_c, two_e)
        gbar = poly_mul(gbar, poly_pow(pstar, g_mult))
        fbar = poly_mul(fbar, poly_pow(pstar, dual_c - g_mult))
    return CodeSpec(spec.alpha, spec.beta, 3, abar, 0, gbar, fbar)


@functools.lru_cache(maxsize=4096)
def _second_block_rank(beta: int, y: tuple[int, int]) -> int:
    """Rank of the submodule of R[x]/(x^beta - 1 - u) generated by y."""
    p, q = reduce_rpoly(y, beta)
    return len(closure_basis([p | q << beta], 0, beta))


def recover_spec(dual: CodeSet, cases: Sequence[int]) -> "CodeSpec | None":
    """The first valid spec, over the cases in the given order, that
    generates the dual.

    A spec can only generate the dual if both its generators lie in it,
    so only those candidates are closed; the filter is a necessary
    condition and leaves the search's answer unchanged.  Reduction
    against the dual's RREF basis is linear, so (a, 0) lies in the dual
    iff its remainder is 0, and (l, y) iff rem(l, 0) == rem(0, y).  A
    family's l are m*base with deg(m) < free, so rem(m*base, 0) is the
    XOR of rem(x^i*base, 0) over the set bits i of m: one XOR table of
    the free rows decides every l of the family, and the passing m are
    closed in ascending order, the sweep order.

    A candidate's closure C lies in the dual, and C's projection onto
    the R block is the submodule generated by y, so C can equal the dual
    only if that submodule has the rank of the dual's projection: the
    number of RREF basis vectors with a bit at or above alpha.  Families
    whose y fails this are skipped.
    """
    alpha, beta = dual.alpha, dual.beta
    second_rank = sum(1 for b in dual.basis if b >> alpha)
    first_rems: dict[int, int] = {}
    y_rems: dict[tuple[int, int], int] = {}

    def rem(first: int, second: tuple[int, int]) -> int:
        return reduce_against(ambient_word(first, second, alpha, beta), dual.basis)

    def first_rem(first: int) -> int:
        if first not in first_rems:
            first_rems[first] = rem(first, (0, 0))
        return first_rems[first]

    for case in cases:
        for a, g, f in iter_spec_families(alpha, beta, case):
            if first_rem(a):
                continue
            y = y_generator_of(case, g, f)
            if _second_block_rank(beta, y) != second_rank:
                continue
            if y not in y_rems:
                y_rems[y] = rem(0, y)
            base = l_base(case, a, g, beta)
            free = a.bit_length() - base.bit_length()
            table = xor_table([first_rem(base << i) for i in range(free)])
            for m in [m for m, r in enumerate(table) if r == y_rems[y]]:
                cand = CodeSpec(alpha, beta, case, a, poly_mul(m, base), g, f)
                if closure_basis(cand.generators(), alpha, beta) == dual.basis:
                    return cand
    return None


@dataclass
class DualReport:
    """The dual next to the stated degree predictions."""

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
        a, g, f = self.observed.a, self.observed.g, self.observed.f
        fdeg = f.bit_length() - 1 if f is not None else None
        return DualDegrees(a.bit_length() - 1, g.bit_length() - 1, fdeg)

    def to_dict(self) -> dict:
        obs = self.observed_degrees()
        return {
            "spec": self.spec.serialize().strip().splitlines(),
            "dual_size": 1 << self.dual.rank,
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


def build_dual_report(spec: CodeSpec, dual: CodeSet) -> DualReport:
    """Recover a generator spec for the dual of the spec's code and
    adjudicate the stated degrees against it."""
    # The stated form first; if it fails, any generator form for the record.
    stated = _DUAL_CASE[spec.case]
    cases = sorted((1, 2, 3), key=lambda case: case != stated)
    return DualReport(spec, dual, dual_degree_formulas(spec), recover_spec(dual, cases))


# ---------------------------------------------------------------------------
# eta pairing and Gray-route dual predictions


def _theta_at_power(t: int, step: int) -> int:
    """theta_t(x^step) = 1 + x^step + ... + x^(step*(t-1))."""
    bits = 0
    for i in range(t):
        bits |= 1 << (step * i)
    return bits


def eta_pair(c1: tuple[int, int], c2: tuple[int, int], alpha: int, beta: int) -> int:
    """The bilinear pairing into Z2[x]/(x^m - 1) with m = 2*lcm(alpha, beta).

    A zero right-hand component contributes the zero summand (its degree
    offset is undefined otherwise).
    """
    import math

    m = 2 * math.lcm(alpha, beta)
    total = 0
    for left, right, n in ((c1[0], c2[0], alpha), (c1[1], c2[1], beta)):
        left = poly_mod(left, x_pow_n_minus_1(n))
        right = poly_mod(right, x_pow_n_minus_1(n))
        if left and right:
            term = poly_mul(left, _theta_at_power(m // n, n))
            term = poly_mul(term, reciprocal(right)) << (m - right.bit_length())
            total ^= poly_mod(term, x_pow_n_minus_1(m))
    return total


@dataclass(frozen=True)
class GrayRoutePrediction:
    """One predicted dual polynomial from the Gray-image route."""

    name: str
    value: "int | None"
    exact: bool


@dataclass
class GrayRouteDual:
    """Gray-route dual polynomials; inexact divisions are findings."""

    abar: GrayRoutePrediction
    second: tuple[GrayRoutePrediction, ...]
    lbar_family_base: int  # lbar = base * lambda with lambda undetermined


def _exact_div(name: str, num: int, den: int) -> GrayRoutePrediction:
    q, r = poly_divmod(num, den)
    if not r:
        return GrayRoutePrediction(name, q, True)
    return GrayRoutePrediction(name, None, False)


def gray_route_dual(spec: CodeSpec) -> GrayRouteDual:
    """Dual generator predictions via the binary double-cyclic route."""
    require_valid(spec)
    alpha, beta = spec.alpha, spec.beta
    xa = x_pow_n_minus_1(alpha)
    xb = x_pow_n_minus_1(beta)
    gstar = reciprocal(poly_gcd(spec.a, spec.l)) if spec.a or spec.l else 1
    astar = reciprocal(spec.a)
    abar = _exact_div("abar", xa, gstar)
    lbase = poly_divmod(xa, astar)[0]
    x2b_gstar = poly_mul(x_pow_n_minus_1(2 * beta), gstar)
    if spec.case == 1:
        second = (_exact_div("gbar", poly_mul(xb, gstar), poly_mul(astar, reciprocal(spec.g))),)
    elif spec.case == 2:
        den = poly_mul(poly_mul(astar, reciprocal(spec.g)), xb)
        second = (_exact_div("gbar", x2b_gstar, den),)
    else:
        second = tuple(
            _exact_div(
                f"fbar[{poly_text(p)}]", x2b_gstar, poly_mul(astar, poly_pow(reciprocal(p), c))
            )
            for p, c in _beta_factor_exponents(spec)[1]
            if c
        )
    return GrayRouteDual(abar, second, lbase)
