import json

import pytest

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
    except SystemExit as exc:  # argparse rejects option values this way
        code = exc.code
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
    # 1 + 2*32 = 65 bits do not fit a packed int64 word, whatever the budget.
    path = tmp_path / "wide.spec"
    path.write_text(WIDE_SPEC)
    code, out, err = run_cli(capsys, command, "--spec", str(path), "--budget", str(10**30))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "63-bit packed-word limit" in err


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
