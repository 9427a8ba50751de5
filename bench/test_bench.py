"""Tests of the benchmark itself: its inputs, its independent checks and
its failure accounting.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import copy
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from z2ucodes import cli  # noqa: E402
from z2ucodes.codewords import closure_of_spec, iter_valid_specs, parse_spec_text  # noqa: E402
from z2ucodes.structure import count_codes_census  # noqa: E402


def run_cli(argv: list[str]) -> dict:
    out = io.StringIO()
    sys.stdout, saved = out, sys.stdout
    try:
        assert cli.main(argv) == 0
    finally:
        sys.stdout = saved
    return json.loads(out.getvalue())


class FakeCli:
    """Stands in for z2ucodes.cli: prints a fixed document."""

    def __init__(self, doc, rc=0, exc=None):
        self.doc, self.rc, self.exc = doc, rc, exc

    def main(self, argv):
        if self.exc:
            raise self.exc
        sys.stdout.write(json.dumps(self.doc))
        return self.rc


def accounting(doc, check, **fake) -> worker.Runner:
    runner = worker.Runner(FakeCli(doc, **fake), [worker.Op(["x"], check)])
    runner.round()
    return runner


@pytest.fixture(scope="module")
def sample():
    return inputs.sample_specs(1, checks.rank)


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    """A real verify report on a separable (3,7) spec of the sample."""
    spec = next(s for s, _ in inputs.sample_specs(1, checks.rank)
                if (s["alpha"], s["beta"]) == (3, 7) and s["l"] == 0)
    (path,) = inputs.write_specs([spec], tmp_path_factory.mktemp("specs"))
    return spec, run_cli(["verify", "--spec", str(path), "--format", "json"])


@pytest.mark.parametrize("pair", [(1, 5), (3, 3), (3, 7), (7, 3), (7, 7)])
def test_valid_specs_match_the_program(pair):
    ours = sorted(inputs.spec_text(s) for s in inputs.valid_specs(*pair))
    theirs = sorted(s.serialize() for s in iter_valid_specs(*pair))
    assert ours == theirs


def test_sample_is_seeded_and_covers_every_stratum(sample):
    assert inputs.sample_specs(1, checks.rank) == sample
    assert inputs.sample_specs(2, checks.rank) != sample
    strata = {(s["alpha"], s["beta"], s["case"], s["l"] == 0) for s, _ in sample}
    assert len(strata) == 3 * 3 * 2
    assert all(4 <= r <= s["alpha"] + 2 * s["beta"] - 4 for s, r in sample)


def test_rank_matches_the_closure_oracle(sample):
    for spec, r in sample:
        assert closure_of_spec(parse_spec_text(inputs.spec_text(spec))).rank == r


@pytest.mark.parametrize("pair", [(1, 1), (1, 3), (3, 1), (3, 3)])
def test_census_count_matches_the_brute_force(pair):
    assert checks.census_count(*pair) == count_codes_census(*pair)


def test_a_real_report_passes(small_report, sample):
    spec, doc = small_report
    r = checks.rank(spec)
    assert checks.check_verify_sample(doc, spec, r) == []
    assert accounting(doc, lambda d: checks.check_verify_sample(d, spec, r)).failed == 0


@pytest.mark.parametrize(
    "row", [*checks.THEOREM_ROWS, checks.IMAGE_OF_DUAL_ROW, checks.SEPARABLE_DUAL_ROW]
)
def test_a_theorem_row_flipped_to_finding_is_a_failed_op(small_report, row):
    spec, doc = small_report
    bad = copy.deepcopy(doc)
    (target,) = [r for r in bad["rows"] if r["check"] == row]
    target["status"] = "finding"
    runner = accounting(bad, lambda d: checks.check_verify_sample(d, spec, checks.rank(spec)))
    assert (runner.attempted, runner.failed, runner.check_failures) == (1, 1, 1)


def test_a_wrong_closure_size_is_a_failed_op(small_report):
    spec, doc = small_report
    runner = accounting(doc, lambda d: checks.check_verify_sample(d, spec, checks.rank(spec) + 1))
    assert runner.failed == 1


def test_a_census_count_off_by_one_is_a_failed_op():
    doc = run_cli(["census", "--alpha", "1", "--beta", "3", "--format", "json"])
    check = lambda d: checks.check_census(d, 1, 3)  # noqa: E731
    assert accounting(doc, check).failed == 0
    doc["table"][0]["census"] += 1
    runner = accounting(doc, check)
    assert (runner.failed, runner.check_failures) == (1, 1)


def full_doc(dual="dual of size 1", image="[21,21,1]", size=1 << 21):
    rows = [{"check": name, "status": "pass", "detail": ""} for name in checks.THEOREM_ROWS]
    rows += [
        {"check": checks.CARDINALITY_ROW, "status": "pass",
         "detail": f"stated {size}, observed {size}"},
        {"check": "measured binary image parameters", "status": "info", "detail": image},
    ]
    next(r for r in rows if r["check"] == "dual is constacyclic")["detail"] = dual
    return {"command": "verify", "rows": rows}


@pytest.mark.parametrize(
    "doc", [full_doc(dual="dual of size 2"), full_doc(image="[21,20,2]"), full_doc(size=1 << 20)]
)
def test_verify_full_analytic_values(doc):
    assert checks.check_verify_full(full_doc()) == []
    assert accounting(doc, checks.check_verify_full).failed == 1


def test_nonzero_exit_and_exception_are_failed_ops():
    doc = full_doc()
    assert accounting(doc, checks.check_verify_full, rc=2).failed == 1
    runner = accounting(doc, checks.check_verify_full, exc=RuntimeError("boom"))
    assert (runner.attempted, runner.failed, runner.check_failures) == (1, 1, 0)


def test_slices_cover_a_round_once():
    runner = worker.Runner(FakeCli(full_doc()), [worker.Op(["x"], checks.check_verify_full)] * 5)
    assert len(runner.slice(0, 3)) == 3
    assert len(runner.slice(3, 3)) == 2
    assert (runner.attempted, runner.failed) == (5, 0)


def test_tracer_counts_calls_and_restores_the_program():
    import z2ucodes.codewords as codewords
    import z2ucodes.structure as structure

    before = (codewords.closure_basis, structure.closure_basis, codewords.CodeSet.__dict__["from_packed_words"])
    with tracer.Tracer() as t:
        run_cli(["census", "--alpha", "1", "--beta", "1", "--format", "json"])
        assert structure.closure_basis is not before[1]
    after = (codewords.closure_basis, structure.closure_basis, codewords.CodeSet.__dict__["from_packed_words"])
    assert after == before
    assert t.totals["structure.count_codes_census.calls"] == 1
    assert t.totals["codewords.closure_basis.calls"] > 0
    assert t.totals["cli.main.calls"] == 1
    assert t.totals["gray.gray_image.calls"] == 0
    assert set(t.totals) == {name for name, _ in tracer.metric_names()} - {tracer.OVERHEAD_METRIC}


def test_benchmark_json_lists_the_tracer_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.metric_names()
