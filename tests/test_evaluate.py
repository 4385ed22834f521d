import math
from pathlib import Path

import pytest

from ehrstruct.evaluate import (
    equivalent,
    evaluate,
    match_phrases,
    phrase_f1,
    render_table,
    report_files,
    score_attribute,
)
from ehrstruct.integrate import StructuredEntity
from ehrstruct.terminology import NOT_APPLICABLE, AbbreviationTable, Expansion, SemanticType

FIXTURES = Path(__file__).parent / "fixtures"


def ent(phrase, note_id="n1", span=(0, 0), status="Present", **attrs):
    e = StructuredEntity(
        note_id=note_id,
        phrase=phrase,
        surface=attrs.pop("surface", phrase),
        span=span,
        semantic_type=attrs.pop("semantic_type", SemanticType.SIGN_SYMPTOM_OR_FINDING),
        assertion_status=status,
    )
    for k, v in attrs.items():
        setattr(e, k, v)
    return e


class TestPhraseF1:
    def test_worked_example(self):
        p, r, f1 = phrase_f1(3, 1, 2)
        # direct arithmetic, cross-checked by confusion counts:
        # P = 3/4, R = 3/5, F1 = 2*3/(2*3+1+2)
        assert p == 0.75
        assert r == 0.6
        assert math.isclose(f1, 2 * 3 / (2 * 3 + 1 + 2), abs_tol=1e-9)
        assert math.isclose(f1, 0.6667, abs_tol=5e-5)

    def test_all_zero(self):
        assert phrase_f1(0, 0, 0) == (0.0, 0.0, 0.0)

    def test_perfect(self):
        assert phrase_f1(7, 0, 0) == (1.0, 1.0, 1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            phrase_f1(-1, 0, 0)

    def test_f1_is_one_iff_no_errors(self):
        for tp in range(0, 4):
            for fp in range(0, 3):
                for fn in range(0, 3):
                    _, _, f1 = phrase_f1(tp, fp, fn)
                    assert (f1 == 1.0) == (tp > 0 and fp == 0 and fn == 0)
                    assert 0.0 <= f1 <= 1.0


class TestMatchPhrases:
    def test_identical_singletons(self):
        tp, fp, fn = match_phrases([ent("fever")], [ent("fever")])
        assert (len(tp), len(fp), len(fn)) == (1, 0, 0)

    def test_acronym_counts_as_match(self, abbrev_table):
        tp, fp, fn = match_phrases(
            [ent("hepatosplenomegaly")], [ent("HSM")], abbrev=abbrev_table
        )
        assert len(tp) == 1

    def test_counts_example(self):
        gold = [ent(p) for p in ["a", "b", "c", "x", "y"]]
        pred = [ent(p) for p in ["a", "b", "c", "q"]]
        tp, fp, fn = match_phrases(gold, pred)
        assert (len(tp), len(fp), len(fn)) == (3, 1, 2)

    def test_one_to_one(self):
        gold = [ent("fever"), ent("fever")]
        pred = [ent("fever")]
        tp, fp, fn = match_phrases(gold, pred)
        assert (len(tp), len(fp), len(fn)) == (1, 0, 1)

    def test_spans_must_overlap_when_present(self):
        gold = [ent("fever", span=(0, 5))]
        pred = [ent("fever", span=(100, 105))]
        tp, fp, fn = match_phrases(gold, pred)
        assert (len(tp), len(fp), len(fn)) == (0, 1, 1)

    def test_case_insensitive(self):
        tp, _, _ = match_phrases([ent("Chest Pain")], [ent("chest pain")])
        assert len(tp) == 1


class TestDefaultJudge:
    def test_unit_synonym(self):
        assert equivalent("mmHg", "millimeters of mercury", "unit")

    def test_comparator_words(self):
        assert equivalent("<7", "less than 7", "value")

    def test_reflexive_on_samples(self):
        for x in ["105", "mmHg", "left knee", "<=3", "Room Air", "10 mg"]:
            for kind in ("value", "unit", "location"):
                assert equivalent(x, x, kind)

    def test_symmetric_on_samples(self):
        pairs = [("mmHg", "millimeters of mercury"), ("<7", "less than 7"), ("a", "b")]
        for a, b in pairs:
            assert equivalent(a, b, "unit") == equivalent(b, a, "unit")


def attribute_accuracy(tp_pairs, kind):
    """Fraction of matched pairs with equivalent values for the kind, over
    pairs where gold carries a non-NotApplicable value. None when empty."""
    return score_attribute(tp_pairs, kind).accuracy


class TestAttributeAccuracy:
    def pairs(self):
        g = ent("fever", value="105", unit="mmHg", locations=["chest"])
        p = ent("fever", value="105", unit="millimeters of mercury", locations=["chest"])
        return [(g, p)]

    def test_all_equivalent(self):
        assert attribute_accuracy(self.pairs(), "value") == 1.0
        assert attribute_accuracy(self.pairs(), "unit") == 1.0

    def test_fraction(self):
        pairs = []
        for i in range(10):
            g = ent("x", value="1")
            p = ent("x", value="1" if i < 9 else "2")
            pairs.append((g, p))
        assert attribute_accuracy(pairs, "value") == 0.9

    def test_gold_not_applicable_skipped(self):
        pairs = [(ent("x", purpose=NOT_APPLICABLE), ent("x", purpose=NOT_APPLICABLE))]
        assert attribute_accuracy(pairs, "status") == 1.0  # status still counted
        assert attribute_accuracy(pairs, "value") == 1.0  # both-null counts correct

    def test_null_mismatch_incorrect(self):
        pairs = [(ent("x", value="5"), ent("x", value=None))]
        assert attribute_accuracy(pairs, "value") == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            attribute_accuracy([], "flavor")


class TestReport:
    def test_pred_equals_gold_all_ones(self):
        gold = [
            ent("fever", value="105", locations=["chest"], modifiers=["high"], unit="F"),
            ent("ileus", note_id="n2", status="Possible"),
        ]
        report, _ = evaluate(gold, gold)
        assert report.f1 == 1.0
        for kind in ("location", "modifier", "value", "unit", "status"):
            assert report.kinds[kind].accuracy == 1.0

    def test_empty_pred_renders_dashes(self):
        gold = [ent("fever")]
        report, _ = evaluate(gold, [])
        assert report.f1 == 0.0
        table = render_table(report)
        assert "-" in table

    def test_micro_average_consistency(self):
        gold = [ent("a"), ent("b", note_id="n2"), ent("c", note_id="n2")]
        pred = [ent("a"), ent("b", note_id="n2"), ent("q", note_id="n2")]
        report, per_note = evaluate(gold, pred)
        assert report.tp == sum(r.tp for r in per_note)
        assert report.fp == sum(r.fp for r in per_note)
        assert report.fn == sum(r.fn for r in per_note)

    def test_six_note_fixture(self, abbrev_table):
        # hand computation (committed beside the fixture):
        #   TP=9, FP=2, FN=3 -> F1 = 18/23
        #   location 9/9, modifier 9/9, value 8/9, unit 9/9, status 8/9
        report = report_files(
            FIXTURES / "eval_gold.jsonl", FIXTURES / "eval_pred.jsonl", abbrev=abbrev_table
        )
        assert (report.tp, report.fp, report.fn) == (9, 2, 3)
        assert math.isclose(report.f1, 18 / 23, abs_tol=1e-12)
        assert report.kinds["location"].accuracy == 1.0
        assert report.kinds["modifier"].accuracy == 1.0
        assert math.isclose(report.kinds["value"].accuracy, 8 / 9)
        assert report.kinds["unit"].accuracy == 1.0
        assert math.isclose(report.kinds["status"].accuracy, 8 / 9)

    def test_macro_mode(self):
        gold = [ent("a"), ent("b", note_id="n2")]
        pred = [ent("a"), ent("q", note_id="n2")]
        macro, _ = evaluate(gold, pred, macro=True)
        # per-note F1: 1.0 and 0.0 -> macro 0.5; micro would be 2/4=0.5 too,
        # but precision differs: per-note P = 1.0, 0.0 -> 0.5
        assert macro.f1 == 0.5
        assert macro.precision == 0.5

    def test_table_layout(self):
        gold = [ent("fever")]
        report, _ = evaluate(gold, gold)
        table = render_table(report, name="run")
        lines = table.splitlines()
        assert lines[0].split() == [
            "Attributes", "Phrase", "Location", "Modifier", "Value", "Unit", "Purpose", "Status"
        ]
        assert lines[1].split() == ["Metric", "F1", "Acc", "Acc", "Acc", "Acc", "Acc", "Acc"]
        assert lines[2].startswith("run")
