"""Command-line workbench: construction, analysis, verification and
search as reproducible batch commands with stable text/JSON output.

Exit status is 0 unless an internal error occurs; findings against a
stated formula are report rows, not failures.  Unreadable inputs exit
with status 2 and a line/column diagnostic.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .gf2poly import factor, cyclotomic_class_count, x_pow_n_minus_1
from .codewords import (
    CENSUS_BUDGET,
    DEFAULT_BUDGET,
    BudgetExceededError,
    CodeSpec,
    SpecParseError,
    cardinality_formula,
    check_budget,
    closure_of_spec,
    iter_valid_specs,
    load_spec_file,
    spanning_set,
    validate_spec,
    word_texts,
)
from .structure import census_table, type_from_enumeration, type_from_formulas
from .duality import build_dual_report, dual_bruteforce
from .gray import format_binary_code, gray_image, min_distance
from .report import DEFAULT_SEED, render, verify_report


def factor_doc(n: int) -> dict:
    table = [
        {"factor": str(f), "multiplicity": m} for f, m in factor(x_pow_n_minus_1(n))
    ]
    doc = {
        "command": "factor",
        "n": n,
        "polynomial": str(x_pow_n_minus_1(n)),
        "factors": table,
    }
    if n % 2 == 1:
        doc["two_cyclotomic_classes"] = cyclotomic_class_count(n)
    return doc


def _validated(doc: dict, spec: CodeSpec) -> bool:
    """Record the spec's validity, and its violations if any, in doc."""
    violations = validate_spec(spec)
    doc["valid"] = not violations
    if violations:
        doc["violations"] = violations
    return not violations


def construct_doc(spec: CodeSpec, budget: int, emit_words: bool) -> dict:
    doc: dict = {
        "command": "construct",
        "spec": spec.serialize().strip().splitlines(),
    }
    if not _validated(doc, spec):
        return doc
    code = closure_of_spec(spec, budget)
    doc["size"] = len(code)
    doc["log2_size"] = code.rank
    doc["cardinality_formula"] = cardinality_formula(spec)
    doc["formula_matches"] = cardinality_formula(spec) == len(code)
    groups: dict[str, int] = {}
    for el in spanning_set(spec):
        groups[el.group] = groups.get(el.group, 0) + 1
    doc["spanning_set_sizes"] = groups
    if emit_words:
        doc["words"] = word_texts(code.packed(), code.alpha, code.beta)
    return doc


def params_doc(spec: CodeSpec, budget: int) -> dict:
    doc: dict = {
        "command": "params",
        "spec": spec.serialize().strip().splitlines(),
    }
    if not _validated(doc, spec):
        return doc
    stated = type_from_formulas(spec)
    measured = type_from_enumeration(closure_of_spec(spec, budget))
    def as_dict(t):
        return {
            "k0": t.k0, "k1": t.k1, "k2": t.k2,
            "k0p": t.k0p, "k0pp": t.k0pp, "k2p": t.k2p, "k2pp": t.k2pp,
        }
    doc["type_from_formulas"] = as_dict(stated)
    doc["type_from_enumeration"] = as_dict(measured)
    doc["match"] = stated == measured
    return doc


def dual_doc(spec: CodeSpec, budget: int) -> dict:
    doc: dict = {
        "command": "dual",
        "spec": spec.serialize().strip().splitlines(),
    }
    if not _validated(doc, spec):
        return doc
    dual = dual_bruteforce(closure_of_spec(spec, budget), budget)
    report = build_dual_report(spec, dual, budget)
    doc.update(report.to_dict())
    return doc


def gray_doc(spec: CodeSpec, layout: str, budget: int) -> dict:
    doc: dict = {
        "command": "gray",
        "spec": spec.serialize().strip().splitlines(),
        "layout": layout,
    }
    if not _validated(doc, spec):
        return doc
    code = closure_of_spec(spec, budget)
    img = gray_image(code, layout)
    d = min_distance(code) if code.rank > 0 else 0
    doc["n"] = img.n
    doc["k"] = img.rank
    doc["d"] = d
    doc["export"] = format_binary_code(img, layout, d).splitlines()
    return doc


def census_doc(alpha: int, beta: int, budget: int) -> dict:
    rows = census_table([(alpha, beta)], budget)
    return {"command": "census", "table": rows}


def search_doc(alpha_max: int, beta_max: int, d_min: "int | None", budget: int) -> dict:
    pairs = [(a, b) for a in range(1, alpha_max + 1) for b in range(1, beta_max + 1)]
    for alpha, beta in pairs:
        check_budget(alpha + 2 * beta, budget)
    rows = []
    distance_cache: dict = {}
    for alpha, beta in pairs:
        for spec in iter_valid_specs(alpha, beta):
            code = closure_of_spec(spec, budget)
            if code.rank < 1:
                continue
            key = (alpha, beta, code.basis)
            if key not in distance_cache:
                distance_cache[key] = min_distance(code)
            d = distance_cache[key]
            if d_min is not None and d < d_min:
                continue
            rows.append(
                {
                    "alpha": alpha,
                    "beta": beta,
                    "case": spec.case,
                    "spec": "; ".join(spec.serialize().strip().splitlines()),
                    "n": alpha + 2 * beta,
                    "k": code.rank,
                    "d": d,
                }
            )
    rows.sort(key=lambda r: (-r["d"], -r["k"], r["spec"]))
    return {
        "command": "search",
        "alpha_max": alpha_max,
        "beta_max": beta_max,
        "d_min": d_min,
        "rows": rows,
    }


def _length(text: str) -> int:
    """argparse type for a length or a budget: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--budget", type=_length, default=None)
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="z2ucodes",
        description="Workbench for additive (1+u)-constacyclic codes over Z2 x (F2+uF2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor x^n-1 over GF(2)")
    p.add_argument("--n", type=_length, required=True)
    _add_common(p)

    p = sub.add_parser("construct", help="enumerate the code of a spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--emit-words", action="store_true")
    _add_common(p)

    p = sub.add_parser("params", help="type parameters: formulas vs enumeration")
    p.add_argument("--spec", required=True)
    _add_common(p)

    p = sub.add_parser("dual", help="brute-force dual and degree predictions")
    p.add_argument("--spec", required=True)
    _add_common(p)

    p = sub.add_parser("gray", help="binary image in the golden export format")
    p.add_argument("--spec", required=True)
    p.add_argument("--layout", choices=("interleaved", "block"), default="block")
    _add_common(p)

    p = sub.add_parser("verify", help="run every oracle-vs-formula check on a spec")
    p.add_argument("--spec", required=True)
    _add_common(p)

    p = sub.add_parser("census", help="count all submodules vs the stated formula")
    p.add_argument("--alpha", type=_length, required=True)
    p.add_argument("--beta", type=_length, required=True)
    _add_common(p)

    p = sub.add_parser("search", help="rank all valid specs by Gray [n,k,d]")
    p.add_argument("--alpha-max", type=_length, required=True)
    p.add_argument("--beta-max", type=_length, required=True)
    p.add_argument("--d-min", type=int, default=None)
    _add_common(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; parse_args keeps
    no state between calls."""
    return build_parser()


def _run(args: argparse.Namespace) -> dict:
    budget = args.budget if args.budget is not None else DEFAULT_BUDGET
    if args.command == "factor":
        return factor_doc(args.n)
    if args.command == "census":
        census_budget = args.budget if args.budget is not None else CENSUS_BUDGET
        return census_doc(args.alpha, args.beta, census_budget)
    if args.command == "search":
        return search_doc(args.alpha_max, args.beta_max, args.d_min, budget)
    spec = load_spec_file(args.spec)
    if args.command == "construct":
        return construct_doc(spec, budget, args.emit_words)
    if args.command == "params":
        return params_doc(spec, budget)
    if args.command == "dual":
        return dual_doc(spec, budget)
    if args.command == "gray":
        return gray_doc(spec, args.layout, budget)
    if args.command == "verify":
        return verify_report(spec, budget, args.seed)
    raise AssertionError(f"unhandled command {args.command}")


def main(argv: "list[str] | None" = None) -> int:
    args = _parser().parse_args(argv)
    try:
        doc = _run(args)
    except (SpecParseError, BudgetExceededError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(render(doc, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
