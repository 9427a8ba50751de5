"""Command-line workbench: construction, analysis, verification and
search as reproducible batch commands with stable text/JSON output.

Exit status is 0 unless an internal error occurs; findings against a
stated formula are report rows, not failures.  Unreadable inputs exit
with status 2 and a line/column diagnostic.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys

from .gf2poly import MAX_EXPONENT, cyclotomic_class_count, factor, poly_text, x_pow_n_minus_1
from .codewords import (
    CENSUS_BUDGET,
    DEFAULT_BUDGET,
    BudgetExceededError,
    CodeSet,
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

# The modules, classes and functions made by the imports above live until
# the process exits.  Freezing moves them out of the collector's
# generations, so that no collection inside a command traverses them all
# again (about 1 ms for the first older-generation pass).
gc.freeze()


def factor_doc(n: int) -> dict:
    # x^n - 1 is an (n+1)-bit integer: the grammar's exponent limit bounds it.
    if n > MAX_EXPONENT:
        raise BudgetExceededError(f"n = {n} exceeds the limit {MAX_EXPONENT}")
    table = [
        {"factor": poly_text(f), "multiplicity": m} for f, m in factor(x_pow_n_minus_1(n))
    ]
    doc = {
        "command": "factor",
        "n": n,
        "polynomial": poly_text(x_pow_n_minus_1(n)),
        "factors": table,
    }
    if n % 2 == 1:
        doc["two_cyclotomic_classes"] = cyclotomic_class_count(n)
    return doc


def spec_doc(args: argparse.Namespace, body, **head) -> dict:
    """The document of a spec command: its header, the spec's validity
    and, for a valid spec, body(args, spec, code) for the spec's code."""
    spec = load_spec_file(args.spec)
    doc = {"command": args.command, "spec": spec.serialize().strip().splitlines(), **head}
    violations = validate_spec(spec)
    doc["valid"] = not violations
    if violations:
        doc["violations"] = violations
    else:
        doc.update(body(args, spec, closure_of_spec(spec, args.budget)))
    return doc


def _construct(args: argparse.Namespace, spec: CodeSpec, code: CodeSet) -> dict:
    groups: dict[str, int] = {}
    for el in spanning_set(spec):
        groups[el.group] = groups.get(el.group, 0) + 1
    size = 1 << code.rank
    doc = {
        "size": size,
        "log2_size": code.rank,
        "cardinality_formula": cardinality_formula(spec),
        "formula_matches": cardinality_formula(spec) == size,
        "spanning_set_sizes": groups,
    }
    if args.emit_words:
        doc["words"] = word_texts(code.packed(), code.alpha, code.beta)
    return doc


def _params(args: argparse.Namespace, spec: CodeSpec, code: CodeSet) -> dict:
    stated = type_from_formulas(spec)
    measured = type_from_enumeration(code)
    keys = ("k0", "k1", "k2", "k0p", "k0pp", "k2p", "k2pp")
    return {
        "type_from_formulas": {k: getattr(stated, k) for k in keys},
        "type_from_enumeration": {k: getattr(measured, k) for k in keys},
        "match": stated == measured,
    }


def _dual(args: argparse.Namespace, spec: CodeSpec, code: CodeSet) -> dict:
    return build_dual_report(spec, dual_bruteforce(code, args.budget), args.budget).to_dict()


def _gray(args: argparse.Namespace, spec: CodeSpec, code: CodeSet) -> dict:
    img = gray_image(code, args.layout)
    d = min_distance(code) if code.rank > 0 else 0
    export = format_binary_code(img, args.layout, d).splitlines()
    return {"n": img.n, "k": img.rank, "d": d, "export": export}


def search_doc(alpha_max: int, beta_max: int, d_min: "int | None", budget: int) -> dict:
    def pairs():
        # Lazy, so a huge range is refused at its first pair past the budget.
        return ((a, b) for a in range(1, alpha_max + 1) for b in range(1, beta_max + 1))

    for alpha, beta in pairs():
        check_budget(alpha + 2 * beta, budget)
    rows = []
    distance_cache: dict = {}
    for alpha, beta in pairs():
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="z2ucodes",
        description="Workbench for additive (1+u)-constacyclic codes over Z2 x (F2+uF2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, run, budget=DEFAULT_BUDGET, **options):
        """Register one subcommand: its options (--emit-words for
        emit_words), then --format and, where the command reads a budget,
        --budget with the command's default.  run(args) builds the doc."""
        p = sub.add_parser(name, help=help)
        for dest, kwargs in options.items():
            p.add_argument("--" + dest.replace("_", "-"), **kwargs)
        p.add_argument("--format", choices=("text", "json"), default="text")
        if budget is not None:
            p.add_argument("--budget", type=_length, default=budget)
        p.set_defaults(run=run)
        return p

    # Runners look program functions up when called, not when the parser
    # is built, so patches of the module's names take effect.
    length = {"type": _length, "required": True}
    spec = {"required": True}
    command(
        "factor", "factor x^n-1 over GF(2)", lambda args: factor_doc(args.n), budget=None, n=length
    )
    command(
        "construct",
        "enumerate the code of a spec file",
        lambda args: spec_doc(args, _construct),
        spec=spec,
        emit_words={"action": "store_true"},
    )
    command(
        "params",
        "type parameters: formulas vs enumeration",
        lambda args: spec_doc(args, _params),
        spec=spec,
    )
    command(
        "dual",
        "dual as a GF(2) kernel and degree predictions",
        lambda args: spec_doc(args, _dual),
        spec=spec,
    )
    command(
        "gray",
        "binary image in the golden export format",
        lambda args: spec_doc(args, _gray, layout=args.layout),
        spec=spec,
        layout={"choices": ("interleaved", "block"), "default": "block"},
    )
    command(
        "verify",
        "run every oracle-vs-formula check on a spec",
        lambda args: verify_report(load_spec_file(args.spec), args.budget, args.seed),
        spec=spec,
    ).add_argument("--seed", type=int, default=DEFAULT_SEED)
    command(
        "census",
        "count all submodules vs the stated formula",
        lambda args: {
            "command": "census",
            "table": census_table([(args.alpha, args.beta)], args.budget),
        },
        budget=CENSUS_BUDGET,
        alpha=length,
        beta=length,
    )
    command(
        "search",
        "rank all valid specs by Gray [n,k,d]",
        lambda args: search_doc(args.alpha_max, args.beta_max, args.d_min, args.budget),
        alpha_max=length,
        beta_max=length,
        d_min={"type": int},
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; parse_args keeps
    no state between calls."""
    return build_parser()


def main(argv: "list[str] | None" = None) -> int:
    args = _parser().parse_args(argv)
    try:
        doc = args.run(args)
    except (SpecParseError, BudgetExceededError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(render(doc, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
