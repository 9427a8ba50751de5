"""Golden CLI corpus: the stdout of the commands whose output prints
polynomials, compared byte for byte with the files in tests/data/cli.

The files were recorded once and are committed unedited; the sweep over
every valid spec of small lengths is kept as one SHA-256 per (alpha,
beta) pair.  To record the corpus again from the source on the path:

    PYTHONPATH=src python tests/test_cli_goldens.py --record
"""

import contextlib
import hashlib
import io
import json
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
SWEEP_COMMANDS = [["verify"], ["params"], ["dual"], ["gray"], ["construct", "--emit-words"]]


def stdout_of(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    assert status == 0, argv
    return out.getvalue()


def sweep_digest(alpha: int, beta: int, spec_path: Path) -> dict:
    """The SHA-256 of the JSON stdout of every sweep command on every
    valid spec of (alpha, beta), in sweep order."""
    digest = hashlib.sha256()
    count = 0
    for spec in iter_valid_specs(alpha, beta):
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
    return files


def sweep_digests(tmp: Path) -> dict:
    return {f"{a},{b}": sweep_digest(a, b, tmp / "sweep.spec") for a, b in SWEEP_PAIRS}


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


def test_sweep_digests(tmp_path):
    expected = json.loads((DATA / "sweep_sha256.json").read_text())
    assert sum(entry["specs"] for entry in expected.values()) == 751
    assert sweep_digests(tmp_path) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    import tempfile

    DATA.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in corpus(Path(tmp)).items():
            (DATA / name).write_text(text)
