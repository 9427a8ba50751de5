import random
import sys
from pathlib import Path

import pytest

from z2ucodes.gf2poly import parse_poly
from z2ucodes.codewords import (
    BudgetExceededError,
    CodeSpec,
    SpanningElement,
    closure_of_spec,
    iter_valid_specs,
    parse_spec_text,
    spanning_minimal,
    spanning_set,
    umul_packed,
)
from z2ucodes import report
from z2ucodes.cli import search_doc
from z2ucodes.report import _Rows, _type_checks, render_json, render_text, verify_report

from referee import spanning_minimal_by_removal
from test_cli_goldens import SWEEP_PAIRS

BENCH = Path(__file__).resolve().parent.parent / "bench"


def P(text):
    return parse_poly(text)


def _rows_by_check(doc):
    return {row["check"]: row for row in doc["rows"]}


class TestVerifyReport:
    def test_separable_spec_all_green(self):
        spec = CodeSpec(2, 3, 1, P("1+x"), 0, P("1+x"))
        doc = verify_report(spec)
        rows = _rows_by_check(doc)
        assert rows["separable dual formula reproduces the brute-force dual"]["status"] == "pass"
        assert rows["cardinality formula vs closure oracle"]["status"] == "pass"
        assert rows["type (k0, k1, k2)"]["status"] == "pass"
        assert doc["summary"]["finding"] == 0

    def test_statuses_are_typed_and_counted(self):
        spec = CodeSpec(2, 3, 1, P("1+x^2"), P("1+x"), P("1+x"))
        doc = verify_report(spec)
        allowed = {"pass", "finding", "skip", "info"}
        counts = {s: 0 for s in allowed}
        for row in doc["rows"]:
            assert row["status"] in allowed
            counts[row["status"]] += 1
        assert counts == doc["summary"]

    def test_invalid_spec_halts_early(self):
        spec = CodeSpec(2, 3, 1, P("1+x^2"), P("1"), P("1+x"))
        doc = verify_report(spec)
        assert doc["rows"][0]["status"] == "finding"
        assert doc["rows"][-1]["status"] == "skip"
        assert len(doc["rows"]) == 2

    def test_case3_degree_formula_finding_is_recorded(self):
        spec = CodeSpec(2, 6, 3, P("1+x^2"), 0, P("1+x^2+x^4"), P("1+x+x^2"))
        doc = verify_report(spec)
        row = _rows_by_check(doc)["dual degree formulas vs recovered generators"]
        assert row["status"] == "finding"
        assert "match=mismatch" in row["detail"]

    def test_degree_formula_match_is_a_pass(self):
        spec = CodeSpec(7, 7, 2, P("1+x^7"), P("1+x+x^2+x^4"), P("1+x"))
        doc = verify_report(spec)
        rows = _rows_by_check(doc)
        assert rows["dual degree formulas vs recovered generators"]["status"] == "pass"
        assert rows["Gray-route abar prediction"]["status"] == "pass"
        assert rows["Gray-route gbar prediction"]["status"] == "pass"
        assert rows["measured binary image parameters"]["detail"] == "[21,6,8]"

    def test_type_checks_honour_the_budget(self):
        # The extra closures (C_Y and the case-1 C_b generators) run at the
        # caller's budget, not the default one.
        spec = CodeSpec(2, 3, 1, P("1+x^2"), P("1+x"), P("1+x"))
        code = closure_of_spec(spec)
        _type_checks(_Rows(), spec, code, 1 << 8)
        with pytest.raises(BudgetExceededError, match="exceeds budget 255"):
            _type_checks(_Rows(), spec, code, (1 << 8) - 1)

    @pytest.mark.parametrize("corrupted", ["interleaved", "block"])
    def test_corrupted_gray_map_breaks_the_isometry_row(self, monkeypatch, corrupted):
        spec = CodeSpec(2, 3, 1, P("1+x^2"), P("1+x"), P("1+x"))
        check = "Lee/Hamming isometry (seeded sample)"
        assert _rows_by_check(verify_report(spec))[check]["status"] == "pass"
        gray = report._gray_packed

        def flip_one_image_bit(w, alpha, beta, layout):
            # image bit 0 also follows word bit 1, so the map is no isometry
            flip = (w >> 1) & 1 if layout == corrupted else 0
            return gray(w, alpha, beta, layout) ^ flip

        monkeypatch.setattr(report, "_gray_packed", flip_one_image_bit)
        # The row is cached per (alpha, beta, seed): drop the verdict of the
        # true map, and the broken map's verdict once the test ends.
        report._isometry_holds.cache_clear()
        try:
            row = _rows_by_check(verify_report(spec))[check]
        finally:
            report._isometry_holds.cache_clear()
        assert row["status"] == "finding"
        assert row["detail"] == "200 random pairs, both layouts"

    def test_renderers_are_pure(self):
        spec = CodeSpec(1, 1, 2, P("1+x"), 0, P("1"))
        doc = verify_report(spec, seed=5)
        assert render_text(doc) == render_text(verify_report(spec, seed=5))
        assert render_json(doc) == render_json(verify_report(spec, seed=5))


def bench_verify_specs(seed):
    """The specs of the benchmark's verify round for a seed: the full
    (7,7) code, then the seeded sample."""
    sys.path.insert(0, str(BENCH))
    try:
        import checks
        import inputs
    finally:
        sys.path.remove(str(BENCH))
    specs = [inputs.FULL_SPEC, *(spec for spec, _ in inputs.sample_specs(seed, checks.rank))]
    return [parse_spec_text(inputs.spec_text(spec)) for spec in specs]


def test_spanning_minimality_matches_the_removal_referee_on_stated_families():
    specs = [s for a, b in SWEEP_PAIRS for s in iter_valid_specs(a, b)]
    bench = bench_verify_specs(1)
    assert (len(specs), len(bench)) == (751, 107)
    for spec in specs + bench:
        elements = spanning_set(spec)
        expected = spanning_minimal_by_removal(elements, spec.alpha, spec.beta)
        assert spanning_minimal(elements, spec.alpha, spec.beta) == expected, spec
        # A family with an element repeated is never minimal.
        if elements:
            assert not spanning_minimal(elements[:1] + elements, spec.alpha, spec.beta), spec


def test_spanning_minimality_matches_the_removal_referee_on_random_families():
    # An element's word is random, a sum t of earlier vectors, or
    # t + u t, whose u-multiple need not lie in the span of the others
    # when (1 + u) times it does.
    rng = random.Random(5)
    verdicts = []
    for _ in range(3000):
        alpha, beta = rng.randint(1, 3), rng.randint(1, 3)
        elements, vectors = [], [0]
        for multiples in rng.choices((2, 4), k=rng.randint(0, 5)):
            t = 0
            for v in vectors:
                t ^= v * rng.randint(0, 1)
            word = rng.choice(
                [rng.randrange(1 << (alpha + 2 * beta)), t, t ^ umul_packed(t, alpha, beta)]
            )
            elements.append(SpanningElement(word, alpha, beta, multiples, "S"))
            vectors += [word, umul_packed(word, alpha, beta)][: multiples // 2]
        expected = spanning_minimal_by_removal(elements, alpha, beta)
        assert spanning_minimal(elements, alpha, beta) == expected, elements
        verdicts.append(expected)
    assert 0.1 < sum(verdicts) / len(verdicts) < 0.9


DATA = Path(__file__).parent / "data"

GOLDEN_VERIFY = {
    "verify_worked_2_3.txt": CodeSpec(2, 3, 1, P("1+x^2"), P("1+x"), P("1+x")),
    # its interleaved Gray image is not double cyclic
    "verify_case1_3_3.txt": CodeSpec(3, 3, 1, P("1"), 0, P("1+x+x^2")),
    # the full ambient code: 2^21 words
    "verify_full_7_7.txt": CodeSpec(7, 7, 1, P("1"), 0, P("1")),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_VERIFY))
def test_verify_report_matches_golden(name):
    assert render_text(verify_report(GOLDEN_VERIFY[name])) == (DATA / name).read_text()


class TestSearchDoc:
    def test_empty_range(self):
        doc = search_doc(0, 0, None, 1 << 20)
        assert doc["rows"] == []

    def test_contains_length_8_codes(self):
        doc = search_doc(2, 3, None, 1 << 20)
        assert any(r["n"] == 8 for r in doc["rows"])
