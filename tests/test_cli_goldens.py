"""Golden CLI corpus: the stdout of the commands whose output prints
polynomials, the census counts, the help texts, and the stderr and exit
status of usage errors, compared byte for byte with the files in
tests/data/cli.

The files were recorded once and are committed unedited; the sweep over
every valid spec of small lengths, and over every 64th valid spec of the
benchmark's pairs, is kept as one SHA-256 per (alpha, beta) pair.  To
record the corpus again from the source on the path:

    PYTHONPATH=src python tests/test_cli_goldens.py --record
"""

import contextlib
import hashlib
import io
import itertools
import json
import shlex
import sys
from pathlib import Path

import pytest

from z2ucodes.cli import main
from z2ucodes.codewords import iter_valid_specs

DATA = Path(__file__).resolve().parent / "data" / "cli"

FACTOR_NS = range(1, 25)
SEARCH_ARGV = ["search", "--alpha-max", "2", "--beta-max", "3", "--format", "json"]
# One case-2 spec with l != 0, and one case-3 spec whose Gray route
# prints an fbar[...] row.
VERIFY_SPECS = {
    "verify_case2_3_3.txt": "alpha = 3\nbeta = 3\ncase = 2\na = 1+x+x^2\nl = 1\ng = 1+x\n",
    "verify_case3_3_3.txt": "alpha = 3\nbeta = 3\ncase = 3\na = 1+x\nl = 0\ng = 1+x+x^2\nf = 1+x+x^2\n",
}
SWEEP_PAIRS = [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (1, 4), (4, 1), (2, 6)]
# The benchmark's pairs, too large for a full sweep: every SWEEP_STRIDE-th
# valid spec in sweep order (the 64th, the 128th, ...).  The first spec,
# the whole ambient at (7,7), would take longer than the rest together.
SAMPLED_PAIRS = [(7, 7), (3, 7), (7, 3)]
SWEEP_STRIDE = 64
SWEEP_COMMANDS = [["verify"], ["params"], ["dual"], ["gray"], ["construct", "--emit-words"]]
# Every pair with alpha + 2*beta <= 14, odd and even lengths alike.
CENSUS_ARGVS = [
    ["census", "--alpha", str(a), "--beta", str(b), "--format", "json"]
    for b in range(1, 7)
    for a in range(1, 15 - 2 * b)
]
COMMAND_NAMES = ["factor", "construct", "params", "dual", "gray", "verify", "census", "search"]
HELP_ARGVS = [["--help"], *([name, "--help"] for name in COMMAND_NAMES)]
# Every kind of usage error, and each command with none of its options.
# No file is read: the command line is refused before any command runs.
USAGE_ERROR_ARGVS = [
    [],
    ["foo"],
    ["-x"],
    *([name] for name in COMMAND_NAMES),
    ["factor", "--n", "7", "--seed", "3"],
    ["factor", "--n", "7", "--budget", "3"],
    ["census", "--alpha", "1", "--beta", "1", "extra"],
    ["search", "--alpha-max", "1", "--beta-max", "1", "--", "--d-min", "1"],
    ["census", "--alpha", "1", "--beta", "1", "--format", "xml"],
    ["gray", "--spec", "s", "--layout", "diagonal"],
    ["census", "--alpha", "x", "--beta", "1"],
    ["verify", "--spec", "s", "--seed", "1.5"],
    ["search", "--alpha-max", "1", "--beta-max", "1", "--d-min", "one"],
    ["census", "--alpha", "0", "--beta", "1"],
    ["factor", "--n", "-3"],
    ["census", "--alpha", "1", "--beta", "1", "--budget", "0"],
    ["census", "--alpha", "1", "--beta"],
    ["census", "--alpha", "--beta", "1"],
    ["census", "--b", "1"],
    ["construct", "--spec", "s", "--emit-words=yes"],
    ["census", "--help=yes"],
    ["census", "-hx"],
]


def stdout_of(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    assert status == 0, argv
    return out.getvalue()


def transcript(argvs: list[list[str]]) -> str:
    """Each command line with its exit status, stdout and stderr."""
    parts = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
        parts.append(f"$ z2ucodes {shlex.join(argv)}\nexit {status}\n{out.getvalue()}{err.getvalue()}")
    return "\n".join(parts)


def sweep_digest(alpha: int, beta: int, spec_path: Path, stride: int = 1) -> dict:
    """The SHA-256 of the JSON stdout of every sweep command on every
    stride-th valid spec of (alpha, beta), in sweep order."""
    digest = hashlib.sha256()
    count = 0
    for spec in itertools.islice(iter_valid_specs(alpha, beta), stride - 1, None, stride):
        spec_path.write_text(spec.serialize())
        for command in SWEEP_COMMANDS:
            argv = [command[0], "--spec", str(spec_path), *command[1:], "--format", "json"]
            digest.update(stdout_of(argv).encode())
        count += 1
    return {"specs": count, "sha256": digest.hexdigest()}


def corpus(tmp: Path) -> dict[str, str]:
    """Every file of the corpus, by name, as the program prints it now."""
    files = {f"factor_{n}.json": stdout_of(["factor", "--n", str(n), "--format", "json"]) for n in FACTOR_NS}
    files["search_2_3.json"] = stdout_of(SEARCH_ARGV)
    for name, text in VERIFY_SPECS.items():
        path = tmp / name.replace(".txt", ".spec")
        path.write_text(text)
        files[name] = stdout_of(["verify", "--spec", str(path)])
    files["sweep_sha256.json"] = json.dumps(sweep_digests(tmp), indent=2) + "\n"
    files["census.txt"] = transcript(CENSUS_ARGVS)
    files["help.txt"] = transcript(HELP_ARGVS)
    files["usage_errors.txt"] = transcript(USAGE_ERROR_ARGVS)
    return files


def sweep_digests(tmp: Path) -> dict:
    digests = {f"{a},{b}": sweep_digest(a, b, tmp / "sweep.spec") for a, b in SWEEP_PAIRS}
    for a, b in SAMPLED_PAIRS:
        digests[f"{a},{b}/{SWEEP_STRIDE}"] = sweep_digest(a, b, tmp / "sweep.spec", SWEEP_STRIDE)
    return digests


@pytest.mark.parametrize("n", FACTOR_NS)
def test_factor_json(n):
    argv = ["factor", "--n", str(n), "--format", "json"]
    assert stdout_of(argv) == (DATA / f"factor_{n}.json").read_text()


def test_search_json():
    assert stdout_of(SEARCH_ARGV) == (DATA / "search_2_3.json").read_text()


@pytest.mark.parametrize("name", sorted(VERIFY_SPECS))
def test_verify_text(name, tmp_path):
    path = tmp_path / "golden.spec"
    path.write_text(VERIFY_SPECS[name])
    assert stdout_of(["verify", "--spec", str(path)]) == (DATA / name).read_text()


def test_case3_golden_prints_an_fbar_row():
    assert "Gray-route prediction fbar[1+x+x^2]" in (DATA / "verify_case3_3_3.txt").read_text()


def test_census_json():
    assert len(CENSUS_ARGVS) == 42
    assert transcript(CENSUS_ARGVS) == (DATA / "census.txt").read_text()


def test_help():
    assert transcript(HELP_ARGVS) == (DATA / "help.txt").read_text()


def test_usage_errors():
    assert transcript(USAGE_ERROR_ARGVS) == (DATA / "usage_errors.txt").read_text()


def test_sweep_digests(tmp_path):
    expected = json.loads((DATA / "sweep_sha256.json").read_text())
    assert sum(entry["specs"] for key, entry in expected.items() if "/" not in key) == 751
    assert sum(entry["specs"] for key, entry in expected.items() if "/" in key) == 116
    assert sweep_digests(tmp_path) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    import tempfile

    DATA.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in corpus(Path(tmp)).items():
            (DATA / name).write_text(text)
