"""Command-line workbench: construction, analysis, verification and
search as reproducible batch commands with stable text/JSON output.

Exit status is 0 unless an internal error occurs; findings against a
stated formula are report rows, not failures.  A command line that the
command table refuses, an unreadable input and a request past a budget
exit with status 2 and one ``error:`` line on stderr.  The command line
is read by :func:`parse` from the table that the ``command``
declarations below fill.
"""

from __future__ import annotations

import gc
import re
import sys
from types import SimpleNamespace

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


def spec_doc(args: SimpleNamespace, body, **head) -> dict:
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


def _construct(args: SimpleNamespace, spec: CodeSpec, code: CodeSet) -> dict:
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


def _params(args: SimpleNamespace, spec: CodeSpec, code: CodeSet) -> dict:
    stated = type_from_formulas(spec)
    measured = type_from_enumeration(code)
    keys = ("k0", "k1", "k2", "k0p", "k0pp", "k2p", "k2pp")
    return {
        "type_from_formulas": {k: getattr(stated, k) for k in keys},
        "type_from_enumeration": {k: getattr(measured, k) for k in keys},
        "match": stated == measured,
    }


def _dual(args: SimpleNamespace, spec: CodeSpec, code: CodeSet) -> dict:
    return build_dual_report(spec, dual_bruteforce(code, args.budget), args.budget).to_dict()


def _gray(args: SimpleNamespace, spec: CodeSpec, code: CodeSet) -> dict:
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


def _int(text: str) -> int:
    """Option type for an integer."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _length(text: str) -> int:
    """Option type for a length or a budget: an integer of at least 1."""
    value = _int(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


# The command table: each command's (help line, runner, options), with
# the options by flag in usage order.  An option reads its value through
# "type" (text by default) and may name "choices", be "required", give a
# "default", or be a "store_true" flag that reads no value.
COMMANDS: dict[str, tuple] = {}


def command(name, help, run, budget=DEFAULT_BUDGET, **options):
    """Declare one command: its options (--emit-words for emit_words),
    then --format and, where the command reads a budget, --budget with
    the command's default.  run(args) builds the doc.  Returns the
    command's options, so that a declaration can append one."""
    table = {"--" + dest.replace("_", "-"): spec for dest, spec in options.items()}
    table["--format"] = {"choices": ("text", "json"), "default": "text"}
    if budget is not None:
        table["--budget"] = {"type": _length, "default": budget}
    COMMANDS[name] = (help, run, table)
    return table


# Runners look program functions up when called, not when declared, so
# patches of the module's names take effect.
LENGTH = {"type": _length, "required": True}
SPEC = {"required": True}
command("factor", "factor x^n-1 over GF(2)", lambda args: factor_doc(args.n), budget=None, n=LENGTH)
command(
    "construct",
    "enumerate the code of a spec file",
    lambda args: spec_doc(args, _construct),
    spec=SPEC,
    emit_words={"store_true": True},
)
command(
    "params",
    "type parameters: formulas vs enumeration",
    lambda args: spec_doc(args, _params),
    spec=SPEC,
)
command(
    "dual",
    "dual as a GF(2) kernel and degree predictions",
    lambda args: spec_doc(args, _dual),
    spec=SPEC,
)
command(
    "gray",
    "binary image in the golden export format",
    lambda args: spec_doc(args, _gray, layout=args.layout),
    spec=SPEC,
    layout={"choices": ("interleaved", "block"), "default": "block"},
)
command(
    "verify",
    "run every oracle-vs-formula check on a spec",
    lambda args: verify_report(load_spec_file(args.spec), args.budget, args.seed),
    spec=SPEC,
)["--seed"] = {"type": _int, "default": DEFAULT_SEED}
command(
    "census",
    "count all submodules vs the stated formula",
    lambda args: {
        "command": "census",
        "table": census_table([(args.alpha, args.beta)], args.budget),
    },
    budget=CENSUS_BUDGET,
    alpha=LENGTH,
    beta=LENGTH,
)
command(
    "search",
    "rank all valid specs by Gray [n,k,d]",
    lambda args: search_doc(args.alpha_max, args.beta_max, args.d_min, args.budget),
    alpha_max=LENGTH,
    beta_max=LENGTH,
    d_min={"type": _int},
)

DESCRIPTION = "Workbench for additive (1+u)-constacyclic codes over Z2 x (F2+uF2)."
HELP_FLAGS = ("-h", "--help")
NEGATIVE_NUMBER = r"-\d+|-\d*\.\d+"


class UsageError(Exception):
    """A command line that the command table does not accept."""


class Help(Exception):
    """-h or --help: the help text to print, with exit status 0."""


def _option_help(flag: str, option: dict) -> tuple[str, str]:
    """An option's help row: the flag with its value's name, and a note."""
    if option.get("store_true"):
        left = flag
    elif "choices" in option:
        left = f"{flag} {{{','.join(option['choices'])}}}"
    else:
        left = f"{flag} {_dest(flag).upper()}"
    if option.get("required"):
        return left, "required"
    return left, f"default: {option['default']}" if "default" in option else ""


def help_text(name: "str | None" = None) -> str:
    """The help of one command, or with no name that of the program."""
    if name is None:
        usage, about, heading = "COMMAND [OPTION]...", DESCRIPTION, "commands"
        rows = [(cmd, line) for cmd, (line, _, _) in COMMANDS.items()]
        footer = [
            "",
            "Run 'z2ucodes COMMAND --help' for the options of a command.  An option",
            "may be abbreviated to a unique prefix, and its value given as",
            "--option=value; the last value given wins.",
        ]
    else:
        about, _, options = COMMANDS[name]
        usage, heading = f"{name} [OPTION]...", "options"
        rows = [_option_help(flag, o) for flag, o in options.items()]
        rows.append(("-h, --help", "print this help and exit"))
        footer = []
    width = max(len(left) for left, _ in rows)
    lines = [f"usage: z2ucodes {usage}", "", about, "", f"{heading}:"]
    lines += [f"  {left:{width}}  {note}".rstrip() for left, note in rows]
    return "\n".join(lines + footer) + "\n"


def _option(token: str, flags) -> "tuple[str | None, str | None] | None":
    """How a token reads against the flags: (flag, explicit value) for an
    option, with the value given after "=" or None; (None, None) for an
    unknown option; None for a value.

    A long option may be abbreviated to a unique prefix; text glued to
    -h is its explicit value.  A token that starts with "-" is a value
    only if it is "-" or "--", looks like a negative number or holds a
    space.
    """
    if not token.startswith("-") or token in ("-", "--"):
        return None
    if token in flags:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in flags:
        return name, value
    if token[1] == "-":
        matches = [f for f in flags if f.startswith(name)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token[1] == "h":
        return "-h", token[2:]
    if re.fullmatch(NEGATIVE_NUMBER, token) or " " in token:
        return None
    return None, None


def _value(flag: str, option: dict, text: str):
    try:
        value = option.get("type", str)(text)
    except ValueError as exc:
        raise UsageError(f"argument {flag}: {exc}") from None
    choices = option.get("choices")
    if choices is not None and value not in choices:
        listed = ", ".join(map(repr, choices))
        raise UsageError(f"argument {flag}: invalid choice: {value!r} (choose from {listed})")
    return value


def parse(argv: "list[str]") -> SimpleNamespace:
    """The command and option values of a command line, by the command
    table.  Raises :class:`Help` for -h or --help and :class:`UsageError`
    for a command line the table does not accept.

    Options before the command may only ask for help.  After the
    command, options are read from left to right; the last value of an
    option wins, and a value never starts with "-" unless
    :func:`_option` reads it as one.  "--" ends the options: it and
    what follows it are unrecognized.
    """
    extras: list[str] = []
    for at, token in enumerate(argv):
        found = _option(token, HELP_FLAGS)
        if found is None:
            break
        flag, explicit = found
        if flag is None:
            extras.append(token)
        else:
            _help_flag(flag, explicit, None)
    else:
        at = len(argv)
    if argv[at:] in ([], ["--"]):
        raise UsageError("the following arguments are required: command")
    name = argv[at]
    if name not in COMMANDS:
        listed = ", ".join(map(repr, COMMANDS))
        raise UsageError(f"argument command: invalid choice: {name!r} (choose from {listed})")
    _, _, options = COMMANDS[name]
    flags = [*HELP_FLAGS, *options]
    rest = argv[at + 1 :]
    end = rest.index("--") if "--" in rest else len(rest)
    # Every token is read before any value is taken, as an ambiguous
    # abbreviation anywhere is refused first.
    found = [_option(token, flags) for token in rest[:end]] + [None]
    values: dict[str, object] = {}
    i = 0
    while i < end:
        token, (flag, explicit) = rest[i], found[i] or (None, None)
        i += 1
        if flag is None:
            extras.append(token)
        elif flag in HELP_FLAGS:
            _help_flag(flag, explicit, name)
        elif options[flag].get("store_true"):
            if explicit is not None:
                raise UsageError(f"argument {flag}: ignored explicit argument {explicit!r}")
            values[flag] = True
        else:
            if explicit is None:
                if i == end or found[i] is not None:
                    raise UsageError(f"argument {flag}: expected one argument")
                explicit = rest[i]
                i += 1
            values[flag] = _value(flag, options[flag], explicit)
    missing = [f for f, o in options.items() if o.get("required") and f not in values]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    extras += rest[end:]
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    args = SimpleNamespace(command=name)
    for flag, o in options.items():
        default = o.get("default", False if o.get("store_true") else None)
        setattr(args, _dest(flag), values.get(flag, default))
    return args


def _dest(flag: str) -> str:
    """The attribute of an option's value: emit_words for --emit-words."""
    return flag[2:].replace("-", "_")


def _help_flag(flag: str, explicit: "str | None", name: "str | None") -> None:
    """-h or --help, with the text glued to it or given after "=": -h may
    be followed by more h's, and any other text is refused."""
    if flag == "-h" and explicit:
        explicit = explicit.lstrip("h") or None
    if explicit is not None:
        raise UsageError(f"argument -h/--help: ignored explicit argument {explicit!r}")
    raise Help(help_text(name))


def main(argv: "list[str] | None" = None) -> int:
    try:
        args = parse(sys.argv[1:] if argv is None else list(argv))
        _, run, _ = COMMANDS[args.command]
        doc = run(args)
    except Help as exc:
        sys.stdout.write(str(exc))
        return 0
    except (UsageError, SpecParseError, BudgetExceededError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(render(doc, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
