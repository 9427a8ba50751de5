from pathlib import Path

import pytest

from z2ucodes.gf2poly import parse_poly
from z2ucodes.codewords import BudgetExceededError, CodeSpec, closure_of_spec
from z2ucodes import report
from z2ucodes.cli import search_doc
from z2ucodes.report import _Rows, _type_checks, render_json, render_text, verify_report


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
