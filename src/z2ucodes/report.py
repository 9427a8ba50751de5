"""Structured reports: the verify orchestration and the text/JSON
renderers shared by every command.

Findings against a stated formula are first-class report rows, never
process failures; only internal errors abort.  All randomized sampling
is seeded, and identical requests render byte-identical output.
"""

from __future__ import annotations

import functools
import json
import math
import random

from .gf2poly import poly_gcd, poly_mul, poly_text
from .codewords import (
    DEFAULT_BUDGET,
    CodeSet,
    CodeSpec,
    ambient_word,
    cardinality_formula,
    closure_of_spec,
    enumerate_closure,
    is_constacyclic,
    shift_packed,
    spanning_minimal,
    spanning_set,
    spanning_span,
    validate_spec,
)
from .structure import (
    cb_dimension,
    cyclic_code_from_generator,
    puncture_x,
    puncture_y,
    subcode_cb,
    type_from_enumeration,
    type_from_formulas,
)
from .duality import (
    build_dual_report,
    dual_bruteforce,
    gray_route_dual,
    separable_dual,
)
from .gray import (
    LAYOUTS,
    _gray_packed,
    gray_dimension_formula,
    gray_image,
    is_double_cyclic,
    lee_weight_packed,
    min_distance,
)

DEFAULT_SEED = 2024


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def render_text(doc: dict) -> str:
    """Deterministic plain-text rendering of a report document."""
    lines: list[str] = []

    def emit(key, value, indent):
        pad = "  " * indent
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for k2, v2 in value.items():
                emit(k2, v2, indent + 1)
        elif isinstance(value, (list, tuple)):
            lines.append(f"{pad}{key}:")
            for item in value:
                if isinstance(item, dict) and {"check", "status", "detail"} <= set(item):
                    lines.append(
                        f"{pad}  [{item['status'].upper()}] {item['check']}: {item['detail']}"
                    )
                elif isinstance(item, dict):
                    lines.append(
                        f"{pad}  - " + " ".join(f"{k}={_fmt(v)}" for k, v in item.items())
                    )
                else:
                    lines.append(f"{pad}  {item}")
        else:
            lines.append(f"{pad}{key}: {_fmt(value)}")

    for key, value in doc.items():
        emit(key, value, 0)
    return "\n".join(lines) + "\n"


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return render_json(doc)
    if fmt == "text":
        return render_text(doc)
    raise ValueError(f"unknown format {fmt!r}")


class _Rows:
    def __init__(self):
        self.rows: list[dict] = []

    def add(self, check: str, status: str, detail: str = "") -> None:
        self.rows.append({"check": check, "status": status, "detail": detail})

    def compare(self, check: str, expected, observed, note: str = "") -> bool:
        ok = expected == observed
        suffix = f" ({note})" if note else ""
        self.add(
            check,
            "pass" if ok else "finding",
            f"stated {expected}, observed {observed}{suffix}",
        )
        return ok

    def compare_sets(self, check: str, expected_basis, observed_basis) -> bool:
        ok = expected_basis == observed_basis
        if ok:
            detail = f"sets equal, size {1 << len(expected_basis)}"
        else:
            detail = (
                f"sets differ, sizes {1 << len(expected_basis)} vs {1 << len(observed_basis)}"
            )
        self.add(check, "pass" if ok else "finding", detail)
        return ok

    def summary(self) -> dict:
        out = {"pass": 0, "finding": 0, "skip": 0, "info": 0}
        for r in self.rows:
            out[r["status"]] = out.get(r["status"], 0) + 1
        return out


def _spanning_checks(rows: _Rows, spec: CodeSpec, code: CodeSet) -> None:
    elements = spanning_set(spec)
    span = spanning_span(elements, spec.alpha, spec.beta)
    rows.compare_sets("spanning set generates the code", code.basis, span.basis)
    product = 1
    for el in elements:
        product *= el.multiples
    rows.compare("spanning-set multiple count", 1 << code.rank, product)
    minimal = spanning_minimal(elements, spec.alpha, spec.beta)
    rows.add(
        "spanning-set minimality",
        "pass" if minimal else "finding",
        "every removal shrinks the span"
        if minimal
        else "an element is redundant in the span",
    )


def _type_checks(rows: _Rows, spec: CodeSpec, code: CodeSet, budget: int) -> None:
    stated = type_from_formulas(spec)
    measured = type_from_enumeration(code)
    rows.compare("type (k0, k1, k2)", stated.triple(), measured.triple())
    rows.compare(
        "type splits (k0', k0'', k2', k2'')",
        (stated.k0p, stated.k0pp, stated.k2p, stated.k2pp),
        (measured.k0p, measured.k0pp, measured.k2p, measured.k2pp),
    )
    rows.compare("|C| = 2^k1 * 4^k2", 1 << code.rank, measured.size())
    loose = cb_dimension(code)
    rows.add(
        "k0 readings",
        "info",
        f"dim (C_b)_X = {measured.k0}, log2 |C_b| = {loose}",
    )
    cx = puncture_x(code)
    cy = puncture_y(code)
    rows.compare("|C_X| = 2^(k0+k2'')", 1 << cx.rank, 1 << (measured.k0 + measured.k2pp))
    rows.compare(
        "|C_Y| = 2^(k1-k0') * 4^k2",
        1 << cy.rank,
        (1 << (measured.k1 - measured.k0p)) * (1 << (2 * measured.k2)),
    )
    expected_cx = cyclic_code_from_generator(poly_gcd(spec.a, spec.l), spec.alpha)
    rows.compare_sets("C_X is the cyclic code of gcd(a, l)", expected_cx.basis, cx.basis)
    y_only = enumerate_closure(
        [ambient_word(0, spec.y_generator(), spec.alpha, spec.beta)],
        spec.alpha,
        spec.beta,
        budget,
    )
    rows.compare_sets(
        "C_Y is generated by the second-block polynomial", puncture_y(y_only).basis, cy.basis
    )
    if spec.case == 1:
        gens = [
            ambient_word(spec.a, (0, 0), spec.alpha, spec.beta),
            ambient_word(poly_mul(spec.l, spec.h()), (0, 1), spec.alpha, spec.beta),
            ambient_word(0, (0, spec.g), spec.alpha, spec.beta),
        ]
        cb_gen = enumerate_closure(gens, spec.alpha, spec.beta, budget)
        rows.compare_sets(
            "C_b equals the closure of its three stated generators",
            cb_gen.basis,
            subcode_cb(code).basis,
        )


def _dual_checks(rows: _Rows, spec: CodeSpec, code: CodeSet, budget: int) -> CodeSet:
    dual = dual_bruteforce(code, budget)
    n = spec.alpha + 2 * spec.beta
    rows.compare("|C| * |C-dual| = 2^(alpha+2*beta)", 1 << n, 1 << (code.rank + dual.rank))
    rows.compare_sets(
        "C = double dual as sets", code.basis, dual_bruteforce(dual, budget).basis
    )
    rows.add(
        "dual is constacyclic",
        "pass" if is_constacyclic(dual) else "finding",
        f"dual of size {1 << dual.rank}",
    )
    report = build_dual_report(spec, dual, budget)
    obs = report.observed_degrees()

    def _degs(d):
        if d is None:
            return "no spec of the stated form found"
        tail = f", deg fbar={d.fbar}" if d.fbar is not None else ""
        return f"deg abar={d.abar}, deg gbar={d.gbar}{tail}"

    rows.add(
        "dual degree formulas vs recovered generators",
        "pass" if report.match == "match" else ("info" if report.match == "not-applicable" else "finding"),
        f"predicted [{_degs(report.predicted_degrees)}], recovered [{_degs(obs)}] "
        f"(observed case {report.observed_case}), match={report.match}",
    )
    if spec.is_separable():
        sd = separable_dual(spec)
        rows.compare_sets(
            "separable dual formula reproduces the brute-force dual",
            dual.basis,
            closure_of_spec(sd, budget).basis,
        )
    route = gray_route_dual(spec)
    recovered_as_stated = report.observed if report.match != "not-applicable" else None
    if route.abar.exact and recovered_as_stated is not None:
        rows.compare(
            "Gray-route abar prediction",
            poly_text(route.abar.value),
            poly_text(recovered_as_stated.a),
        )
    else:
        rows.add(
            "Gray-route abar prediction",
            "info" if route.abar.exact else "finding",
            f"abar = {poly_text(route.abar.value) if route.abar.exact else 'inexact division'}",
        )
    for pred in route.second:
        if (
            pred.exact
            and pred.name == "gbar"
            and spec.case in (1, 2)
            and recovered_as_stated is not None
        ):
            rows.compare(
                "Gray-route gbar prediction",
                poly_text(pred.value),
                poly_text(recovered_as_stated.g),
            )
        else:
            rows.add(
                f"Gray-route prediction {pred.name}",
                "info" if pred.exact else "finding",
                poly_text(pred.value) if pred.exact else "stated division is inexact",
            )
    return dual


@functools.lru_cache(maxsize=4096)
def _isometry_holds(alpha: int, beta: int, seed: int) -> bool:
    """Does the Lee distance equal the Hamming distance of the Gray
    images, in both layouts, on 200 seeded random pairs of words?"""
    rng = random.Random(seed)
    words = [rng.getrandbits(alpha + 2 * beta) for _ in range(400)]
    return all(
        lee_weight_packed(w1 ^ w2, alpha, beta)
        == (
            _gray_packed(w1, alpha, beta, layout) ^ _gray_packed(w2, alpha, beta, layout)
        ).bit_count()
        for w1, w2 in zip(words[0::2], words[1::2])
        for layout in LAYOUTS
    )


def _gray_checks(
    rows: _Rows, spec: CodeSpec, code: CodeSet, dual: CodeSet, seed: int, budget: int
) -> None:
    stated_dim = gray_dimension_formula(spec)
    rows.compare("Gray image dimension formula", code.rank, stated_dim)
    images = {layout: gray_image(code, layout) for layout in LAYOUTS}
    for layout in LAYOUTS:
        rows.add(f"Gray image is linear ({layout})", "pass", f"dimension {images[layout].rank}")
    nbits = spec.alpha + 2 * spec.beta
    iso_ok = _isometry_holds(spec.alpha, spec.beta, seed)
    rows.add(
        "Lee/Hamming isometry (seeded sample)",
        "pass" if iso_ok else "finding",
        "200 random pairs, both layouts",
    )
    rows.add(
        "binary image is double cyclic (block layout)",
        "pass" if is_double_cyclic(images["block"], spec.alpha, 2 * spec.beta) else "finding",
        f"beta parity: {'odd' if spec.beta % 2 else 'even'}",
    )
    rows.add(
        "binary image double cyclic (interleaved layout)",
        "info",
        str(is_double_cyclic(images["interleaved"], spec.alpha, 2 * spec.beta)),
    )
    if nbits <= 20:
        img_of_dual = gray_image(dual, "block")
        dual_of_img = dual_bruteforce(images["block"], budget)
        rows.compare_sets(
            "image of dual equals dual of image (block layout)",
            img_of_dual.basis,
            dual_of_img.basis,
        )
    else:
        rows.add(
            "image of dual equals dual of image",
            "skip",
            "binary dual scan skipped above 2^20 words",
        )
    if code.rank >= 1:
        d = min_distance(code)
        rows.add(
            "measured binary image parameters",
            "info",
            f"[{nbits},{code.rank},{d}]",
        )
    shift_order = _shift_order(code)
    bound = 2 * math.lcm(spec.alpha, spec.beta)
    rows.compare(
        "shift order divides 2*lcm(alpha, beta)",
        0,
        bound % shift_order,
        f"order {shift_order}, bound {bound}",
    )
    from .showcase import SHOWCASE_CODES

    for entry in SHOWCASE_CODES:
        for interp in entry.interpretations:
            if interp.spec == spec:
                n, k, d = entry.claimed
                rows.add(
                    "documented code",
                    "info",
                    f"{entry.name} claims [{n},{k},{d}]; measured values above govern",
                )


def _shift_order(code: CodeSet) -> int:
    order = 1
    current = [shift_packed(b, code.alpha, code.beta) for b in code.basis]
    base = list(code.basis)
    # The shift permutes the finite ambient space, so the basis returns.
    while current != base:
        current = [shift_packed(v, code.alpha, code.beta) for v in current]
        order += 1
    return order


def verify_report(
    spec: CodeSpec, budget: int = DEFAULT_BUDGET, seed: int = DEFAULT_SEED
) -> dict:
    """One pass/finding line per stated claim exercised by the spec."""
    rows = _Rows()
    violations = validate_spec(spec)
    if violations:
        for v in violations:
            rows.add("spec validation", "finding", v)
        rows.add("verification", "skip", "structural validation failed; later stages skipped")
    else:
        rows.add("spec validation", "pass", "all structural constraints hold")
        code = closure_of_spec(spec, budget)
        rows.compare(
            "cardinality formula vs closure oracle", cardinality_formula(spec), 1 << code.rank
        )
        _spanning_checks(rows, spec, code)
        _type_checks(rows, spec, code, budget)
        dual = _dual_checks(rows, spec, code, budget)
        _gray_checks(rows, spec, code, dual, seed, budget)
    return {
        "command": "verify",
        "seed": seed,
        "budget": budget,
        "spec": spec.serialize().strip().splitlines(),
        "rows": rows.rows,
        "summary": rows.summary(),
    }
