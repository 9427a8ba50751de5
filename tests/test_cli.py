import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from z2ucodes import cli, gf2poly, structure
from z2ucodes.codewords import (
    CENSUS_BUDGET,
    DEFAULT_BUDGET,
    CodeSet,
    CodeSpec,
    closure_basis,
    closure_of_spec,
)
from z2ucodes.cli import main
from z2ucodes.report import render_json, render_text


SPEC_TEXT = """alpha = 2
beta = 3
case = 1
a = 1+x^2
l = 1+x
g = 1+x
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "worked.spec"
    path.write_text(SPEC_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        pytest.fail(f"main raised SystemExit({exc.code!r}) for {list(argv)}")
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFactorCommand:
    def test_n7(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--n", "7")
        assert code == 0
        assert "two_cyclotomic_classes: 3" in out
        assert out.count("multiplicity=1") == 3

    def test_n6_no_classes(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "--n", "6")
        assert code == 0
        assert "two_cyclotomic_classes" not in out
        assert "multiplicity=2" in out

    def test_n0_rejected(self, capsys):
        code, _, err = run_cli(capsys, "factor", "--n", "0")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("n", [gf2poly.MAX_EXPONENT + 1, 10**12])
    def test_n_above_the_exponent_limit_exits_2(self, capsys, monkeypatch, n):
        def refuse(*args, **kwargs):
            raise AssertionError("x^n - 1 should not be built")

        monkeypatch.setattr(cli, "x_pow_n_minus_1", refuse)
        monkeypatch.setattr(cli, "factor", refuse)
        code, out, err = run_cli(capsys, "factor", "--n", str(n))
        assert code == 2
        assert out == ""
        assert err == f"error: n = {n} exceeds the limit {gf2poly.MAX_EXPONENT}\n"


class TestSpecCommands:
    def test_construct(self, capsys, spec_file):
        code, out, _ = run_cli(capsys, "construct", "--spec", spec_file)
        assert code == 0
        assert "size: 32" in out
        assert "formula_matches: yes" in out

    def test_construct_emit_words(self, capsys, spec_file):
        code, out, _ = run_cli(capsys, "construct", "--spec", spec_file, "--emit-words")
        assert code == 0
        assert out.count("|") >= 32

    def test_construct_past_the_index_size(self):
        # The full (21,21) code has 2^63 words, one more than an index can
        # count, so len(code) would overflow; the size comes from the rank.
        spec = CodeSpec(21, 21, 1, 1, 0, 1)
        code = CodeSet(21, 21, closure_basis(spec.generators(), 21, 21))
        assert code.rank == 63
        doc = cli._construct(SimpleNamespace(emit_words=False), spec, code)
        assert doc["size"] == 1 << 63 and doc["log2_size"] == 63
        assert doc["formula_matches"] is True
        assert repr(code) == f"<CodeSet alpha=21 beta=21 size={1 << 63}>"

    def test_params(self, capsys, spec_file):
        code, out, _ = run_cli(capsys, "params", "--spec", spec_file)
        assert code == 0
        assert "match: yes" in out

    def test_dual(self, capsys, spec_file):
        code, out, _ = run_cli(capsys, "dual", "--spec", spec_file)
        assert code == 0
        assert "dual_size: 8" in out

    def test_gray_header(self, capsys, spec_file):
        code, out, _ = run_cli(capsys, "gray", "--spec", spec_file, "--layout", "block")
        assert code == 0
        assert "n=8 k=5 d=2 layout=block" in out

    def test_verify_exit_zero_with_findings(self, capsys, spec_file):
        code, out, _ = run_cli(capsys, "verify", "--spec", spec_file)
        assert code == 0
        assert "[FINDING]" in out  # the Gray-route gbar division is inexact
        assert "[PASS] cardinality formula vs closure oracle" in out

    def test_invalid_spec_is_reported_not_crashed(self, capsys, tmp_path):
        path = tmp_path / "invalid.spec"
        path.write_text("alpha = 2\nbeta = 3\ncase = 1\na = 1+x^2\nl = 1\ng = 1+x\n")
        code, out, _ = run_cli(capsys, "verify", "--spec", str(path))
        assert code == 0
        assert "[FINDING] spec validation" in out
        assert "later stages skipped" in out

    def test_unparseable_spec_diagnostic(self, capsys, tmp_path):
        path = tmp_path / "broken.spec"
        path.write_text("alpha = 2\nnope\n")
        code, _, err = run_cli(capsys, "verify", "--spec", str(path))
        assert code == 2
        assert "line 2" in err


class TestCensusCommand:
    def test_1_1(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--alpha", "1", "--beta", "1")
        assert code == 0
        assert "formula=6 census=8 match=no" in out

    def test_even_alpha(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--alpha", "2", "--beta", "1")
        assert code == 0
        assert "formula=-" in out


LENGTH_BELOW_ONE = [
    (["census", "--alpha", "1", "--beta", "0"], "--beta"),
    (["census", "--alpha", "-1", "--beta", "1"], "--alpha"),
    (["census", "--alpha", "0", "--beta", "1"], "--alpha"),
    (["verify", "--spec", SPEC_TEXT.replace("alpha = 2", "alpha = 0")], "alpha"),
    (["verify", "--spec", SPEC_TEXT + "f = 1+x\n"], "line 7, column 1: f is only meaningful"),
    (["factor", "--n", "0"], "--n"),
    (["search", "--alpha-max", "-1", "--beta-max", "1"], "--alpha-max"),
    (["search", "--alpha-max", "1", "--beta-max", "0"], "--beta-max"),
    (["census", "--alpha", "1", "--beta", "1", "--budget", "-5"], "--budget"),
    (["census", "--alpha", "1", "--beta", "1", "--budget", "0"], "--budget"),
]


@pytest.mark.parametrize(
    "argv, name",
    LENGTH_BELOW_ONE,
    ids=[
        "census-beta-0",
        "census-alpha-negative",
        "census-alpha-0",
        "spec-alpha-0",
        "spec-f-with-case-1",
        "factor-n-0",
        "search-alpha-max-negative",
        "search-beta-max-0",
        "budget-negative",
        "budget-0",
    ],
)
def test_length_below_one_exits_2(capsys, tmp_path, argv, name):
    if argv[0] == "verify":
        path = tmp_path / "zero.spec"
        path.write_text(argv[2])
        argv = argv[:2] + [str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error" in err and name in err


@pytest.mark.parametrize(
    "value, message",
    [("\u00b2", "must be a positive integer"), ("1" * 5000, "too large (5000 digits)")],
    ids=["superscript-digit", "over-int-digit-limit"],
)
def test_spec_integer_that_int_rejects_exits_2(capsys, tmp_path, value, message):
    path = tmp_path / "alpha.spec"
    path.write_text(SPEC_TEXT.replace("alpha = 2", f"alpha = {value}"), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 1, column 1: alpha ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("command", ["verify", "census"])
def test_huge_ambient_budget_error_exits_2(capsys, tmp_path, command):
    # 2^100006 has more decimal digits than int-to-str conversion allows
    path = tmp_path / "huge.spec"
    path.write_text("alpha = 100000\nbeta = 3\ncase = 1\na = 1\nl = 0\ng = 1+x\n")
    if command == "verify":
        argv = ["verify", "--spec", str(path)]
    else:
        argv = ["census", "--alpha", "100000", "--beta", "3"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "2^100006 exceeds" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct"],
        ["params"],
        ["dual"],
        ["gray"],
        ["verify"],
        ["census", "--alpha", "2", "--beta", "3"],
        ["search", "--alpha-max", "2", "--beta-max", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_budget_below_the_ambient_size_exits_2(capsys, spec_file, argv):
    # Every command refuses a (2, 3) ambient of 2^8 words with one message.
    if len(argv) == 1:
        argv = argv + ["--spec", spec_file]
    code, out, err = run_cli(capsys, *argv, "--budget", "255")
    assert code == 2
    assert out == ""
    assert err == "error: ambient size 2^8 exceeds budget 255\n"


@pytest.mark.parametrize("command", ["verify", "dual", "params"])
def test_budget_is_charged_once_on_the_ambient(capsys, tmp_path, command):
    # A (9, 9) ambient of 2^27 words, past the default budget of 2^24:
    # the command's own budget decides, and no inner layer falls back to
    # the default.
    path = tmp_path / "nine.spec"
    path.write_text("alpha = 9\nbeta = 9\ncase = 1\na = 1+x\nl = 1\ng = 1+x\n")
    argv = [command, "--spec", str(path), "--format", "json", "--budget"]
    code, out, err = run_cli(capsys, *argv, str(1 << 27))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    if command == "verify":
        assert doc["budget"] == 1 << 27
        assert doc["rows"][0]["status"] == "pass"
    else:
        assert doc["valid"]
    code, out, err = run_cli(capsys, *argv, str((1 << 27) - 1))
    assert (code, out) == (2, "")
    assert err == "error: ambient size 2^27 exceeds budget 134217727\n"


def test_exponent_above_the_limit_exits_2(capsys, tmp_path, monkeypatch):
    # A small limit keeps the unrefused polynomial cheap if the bound fails.
    monkeypatch.setattr(gf2poly, "MAX_EXPONENT", 100)
    path = tmp_path / "exponent.spec"
    path.write_text(SPEC_TEXT.replace("a = 1+x^2", "a = 1+x^101"))
    code, out, err = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err == (
        "error: line 4, column 1: bad polynomial for 'a': "
        "column 5: exponent exceeds the limit 100\n"
    )


@pytest.mark.parametrize("kind", ["directory", "not-utf8", "missing"])
def test_unreadable_spec_exits_2(capsys, tmp_path, kind):
    path = tmp_path / "unreadable.spec"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(SPEC_TEXT.encode() + b"# \xff\n")
    code, out, err = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


WIDE_SPEC = "alpha = 1\nbeta = 32\ncase = 1\na = 1+x\nl = 0\ng = 1+x^32\n"


@pytest.mark.parametrize("command", ["gray", "dual"])
def test_words_wider_than_63_bits_exit_2(capsys, tmp_path, command):
    # 1 + 2*32 = 65 bits exceed the 63-bit word limit, whatever the budget.
    path = tmp_path / "wide.spec"
    path.write_text(WIDE_SPEC)
    code, out, err = run_cli(capsys, command, "--spec", str(path), "--budget", str(10**30))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "63-bit packed-word limit" in err


@pytest.mark.parametrize("beta", [31, 32])
def test_census_too_wide_for_orbit_marks_exits_2(capsys, beta):
    # 1 + 2*beta = 63 or 65 bits: the census cannot index 2^n orbit marks,
    # whatever the budget, and refuses before allocating them.
    argv = ["census", "--alpha", "1", "--beta", str(beta), "--budget", str(10**30)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"word length {1 + 2 * beta} bits" in err


@pytest.mark.parametrize("beta, budget", [(16, 1 << 33), (30, 1 << 61)])
def test_census_that_cannot_allocate_its_marks_exits_2(capsys, monkeypatch, beta, budget):
    # 2^33 or 2^61 ambient words fit the budget; the allocation of the
    # marks is patched to fail, as 2^33 marks do under a tight
    # address-space limit.  The first marks allocated are those of the
    # x + 1 component: 1 dimension from the binary block and 2 * 2^k from
    # the R block, with 2^k the largest power of 2 dividing beta, since
    # x^beta - 1 holds (x + 1)^(2^k).  At beta = 16 that component is the
    # whole ambient.
    first = 1 + 2 * (beta & -beta)

    def no_memory(size):
        raise MemoryError

    monkeypatch.setattr(structure, "bytearray", no_memory, raising=False)
    argv = ["census", "--alpha", "1", "--beta", str(beta), "--budget", str(budget)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"2^{first} orbit marks" in err


# The options of each subcommand, in usage order: --budget only where the
# command reads a budget, --seed only where it draws a sample.
COMMAND_OPTIONS = {
    "factor": ["--n", "--format"],
    "construct": ["--spec", "--emit-words", "--format", "--budget"],
    "params": ["--spec", "--format", "--budget"],
    "dual": ["--spec", "--format", "--budget"],
    "gray": ["--spec", "--layout", "--format", "--budget"],
    "verify": ["--spec", "--format", "--budget", "--seed"],
    "census": ["--alpha", "--beta", "--format", "--budget"],
    "search": ["--alpha-max", "--beta-max", "--d-min", "--format", "--budget"],
}


def test_each_command_takes_exactly_its_options():
    assert list(cli.COMMANDS) == list(COMMAND_OPTIONS)
    for name, (_, _, options) in cli.COMMANDS.items():
        assert list(options) == COMMAND_OPTIONS[name], name
        budget = {"factor": None, "census": CENSUS_BUDGET}.get(name, DEFAULT_BUDGET)
        assert options.get("--budget", {}).get("default") == budget, name


@pytest.mark.parametrize("option", ["--seed", "--budget"])
def test_factor_refuses_options_it_does_not_read(capsys, option):
    code, out, err = run_cli(capsys, "factor", "--n", "7", option, "3")
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {option} 3" in err


HUGE = 10**12


@pytest.mark.parametrize("command", ["construct", "params", "dual", "gray", "verify"])
@pytest.mark.parametrize("alpha, beta", [(HUGE, 3), (3, HUGE)], ids=["huge-alpha", "huge-beta"])
def test_huge_spec_lengths_exit_2_on_the_budget(capsys, tmp_path, command, alpha, beta):
    # Validation never builds x^n-1, and the closure refuses before packing words.
    path = tmp_path / "huge.spec"
    path.write_text(f"alpha = {alpha}\nbeta = {beta}\ncase = 1\na = 1+x\nl = 0\ng = 1+x\n")
    code, out, err = run_cli(capsys, command, "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: ambient size 2^{alpha + 2 * beta} exceeds budget {DEFAULT_BUDGET}\n"


@pytest.mark.parametrize("alpha", [HUGE, 10**21], ids=["even", "odd"])
def test_census_of_huge_length_exits_2_on_the_budget(capsys, alpha):
    # An odd pair has a stated formula; the census refuses before computing it.
    code, out, err = run_cli(capsys, "census", "--alpha", str(alpha), "--beta", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: ambient size 2^{alpha + 2} exceeds budget {CENSUS_BUDGET}\n"


class TestSearchCommand:
    def test_small_range(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--alpha-max", "2", "--beta-max", "3")
        assert code == 0
        assert "alpha=2 beta=3" in out

    def test_ranking_is_by_distance_then_dimension(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--alpha-max", "2", "--beta-max", "2")
        ds = []
        for line in out.splitlines():
            if "d=" in line and "alpha=" in line:
                ds.append(int(line.rsplit("d=", 1)[1]))
        assert ds == sorted(ds, reverse=True)

    def test_budget_guard(self, capsys):
        code, _, err = run_cli(
            capsys, "search", "--alpha-max", "7", "--beta-max", "7", "--budget", "1024"
        )
        assert code == 2
        assert "exceeds budget" in err

    def test_budget_refused_before_any_closure(self, capsys, monkeypatch):
        # (1,4) fits in 2^9 words; (2,4), the first pair past it in
        # iteration order, is named, and no pair is closed first.
        closed = []

        def close_and_count(spec, budget):
            closed.append(spec)
            return closure_of_spec(spec, budget)

        monkeypatch.setattr(cli, "closure_of_spec", close_and_count)
        code, out, err = run_cli(
            capsys, "search", "--alpha-max", "4", "--beta-max", "4", "--budget", "512"
        )
        assert code == 2
        assert out == ""
        assert err == "error: ambient size 2^10 exceeds budget 512\n"
        assert closed == []

    def test_huge_range_refused_at_its_first_pair_past_the_budget(self, capsys):
        argv = ["search", "--alpha-max", str(HUGE), "--beta-max", "1"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: ambient size 2^25 exceeds budget {DEFAULT_BUDGET}\n"


class TestDeterminismAndParity:
    def test_verify_byte_identical(self, capsys, spec_file):
        _, out1, _ = run_cli(capsys, "verify", "--spec", spec_file, "--seed", "9")
        _, out2, _ = run_cli(capsys, "verify", "--spec", spec_file, "--seed", "9")
        assert out1 == out2

    def test_json_and_text_encode_the_same_fields(self, capsys, spec_file):
        _, text_out, _ = run_cli(capsys, "verify", "--spec", spec_file)
        _, json_out, _ = run_cli(capsys, "verify", "--spec", spec_file, "--format", "json")
        doc = json.loads(json_out)
        for key in doc:
            assert f"{key}:" in text_out
        for row in doc["rows"]:
            assert row["check"] in text_out
            assert f"[{row['status'].upper()}]" in text_out

    def test_render_round_trip_stability(self, capsys, spec_file):
        _, json_out, _ = run_cli(capsys, "verify", "--spec", spec_file, "--format", "json")
        doc = json.loads(json_out)
        assert render_json(doc) == json_out
        assert render_text(doc) == render_text(json.loads(render_json(doc)))


def test_verify_runs_without_numpy(spec_file):
    # The package computes on Python ints; only the tests' referees use numpy.
    script = (
        "import sys\n"
        "from z2ucodes.cli import main\n"
        f"status = main(['verify', '--spec', {spec_file!r}, '--format', 'json'])\n"
        "print(status, 'numpy' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_repeated_calls_print_what_the_first_call_printed(capsys, spec_file):
    argvs = [
        ["construct", "--spec", spec_file, "--emit-words"],
        ["construct", "--spec", spec_file],
        ["gray", "--spec", spec_file, "--layout", "interleaved"],
        ["gray", "--spec", spec_file],
        ["factor", "--n", "0"],
        ["verify", "--spec", spec_file, "--seed", "5", "--format", "json"],
        ["verify", "--spec", spec_file],
        ["census", "--alpha", "2", "--beta", "1", "--budget", "64"],
        ["census", "--alpha", "2", "--beta", "1"],
        ["factor", "--n", "7", "--format", "json"],
        ["factor", "--n", "7"],
        ["census", "--alpha", "2"],
        ["census", "--help"],
    ]
    first = [run_cli(capsys, *argv) for argv in argvs]
    assert [run_cli(capsys, *argv) for argv in argvs] == first


COMMANDS = "'factor', 'construct', 'params', 'dual', 'gray', 'verify', 'census', 'search'"
CENSUS = ["census", "--alpha", "1", "--beta", "1"]
USAGE_ERRORS = {
    "no-command": ([], "the following arguments are required: command"),
    "unknown-command": (["foo"], f"argument command: invalid choice: 'foo' (choose from {COMMANDS})"),
    "unknown-option": (
        ["factor", "--n", "7", "--seed", "3"],
        "unrecognized arguments: --seed 3",
    ),
    "missing-required": (["census", "--alpha", "1"], "the following arguments are required: --beta"),
    "bad-choice": (
        [*CENSUS, "--format", "xml"],
        "argument --format: invalid choice: 'xml' (choose from 'text', 'json')",
    ),
    "non-int": (["census", "--alpha", "x", "--beta", "1"], "argument --alpha: invalid int value: 'x'"),
    "non-int-seed": (
        ["verify", "--spec", "s", "--seed", "1.5"],
        "argument --seed: invalid int value: '1.5'",
    ),
    "below-one": (["census", "--alpha", "0", "--beta", "1"], "argument --alpha: must be >= 1, got 0"),
    "missing-value": (["census", "--alpha", "1", "--beta"], "argument --beta: expected one argument"),
    "option-as-value": (
        ["census", "--alpha", "--beta", "1"],
        "argument --alpha: expected one argument",
    ),
    "ambiguous": (["census", "--b", "1"], "ambiguous option: --b could match --beta, --budget"),
    "double-dash-value": (
        ["census", "--alpha=--", "--beta", "1"],
        "argument --alpha: invalid int value: '--'",
    ),
    "value-on-a-flag": (
        ["construct", "--spec", "s", "--emit-words=yes"],
        "argument --emit-words: ignored explicit argument 'yes'",
    ),
}


@pytest.mark.parametrize("argv, message", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_errors_print_one_error_line_and_exit_2(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "short",
    [
        ["census", "--alp", "1", "--bet=3"],
        ["census", "--alpha=1", "--beta", "3", "--format=text"],
        ["census", "--alpha", "2", "--beta", "3", "--alpha", "1"],
        ["census", "--beta", "3", "--alpha", "1", "--bu", "65536"],
    ],
    ids=["abbreviated", "equals", "last-wins", "reordered"],
)
def test_other_spellings_print_what_the_full_spelling_prints(capsys, short):
    full = run_cli(capsys, "census", "--alpha", "1", "--beta", "3")
    assert full[0] == 0
    assert run_cli(capsys, *short) == full


@pytest.mark.parametrize("argv", [["--help"], ["-h", "census"], ["census", "--help"], ["verify", "-h"]])
def test_help_exits_0(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""
    assert out.startswith("usage: z2ucodes ")
    if argv[0] in cli.COMMANDS:
        about, _, options = cli.COMMANDS[argv[0]]
        assert about in out
        for flag in options:
            assert flag in out
    else:
        for name in cli.COMMANDS:
            assert f"  {name}  " in out


def _in_sys_modules_after_importing_the_cli(module: str) -> str:
    """What a fresh interpreter prints for ``module in sys.modules`` once it
    has imported z2ucodes.cli: the whole of its stdout."""
    script = f"import sys\nimport z2ucodes.cli\nprint({module!r} in sys.modules)\n"
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_leaves_argparse_unloaded():
    assert _in_sys_modules_after_importing_the_cli("argparse") == "False\n"


def test_importing_the_cli_leaves_showcase_unloaded():
    # verify imports the documented codes on its first use, so that a
    # command that never asks for them does not compile them at start-up.
    assert _in_sys_modules_after_importing_the_cli("z2ucodes.showcase") == "False\n"
    assert _in_sys_modules_after_importing_the_cli("z2ucodes.report") == "True\n"
