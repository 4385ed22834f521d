"""The rule pipeline scored on a small labelled set.

tests/fixtures/labelled_notes.jsonl holds one short note per row, written with
sample-lexicon surfaces only; labelled_gold.jsonl labels each mention's status
as ConText and the i2b2/VA 2010 assertion guidelines would, and its attributes.
A note's phenomenon is its note_id up to the first '-' ("window-02"); each
phenomenon's rows pair a defect of the rules with a control they get right.
The set is scored with `evaluate.report_files`, whole and per phenomenon, and
no column's correct count may fall below labelled_baseline.json. Rows the rules
get wrong count as failures in the baseline; a change that raises a count
raises the baseline with it.
"""

import json
from pathlib import Path

from ehrstruct.cli import main
from ehrstruct.evaluate import render_table, report_files

FIXTURES = Path(__file__).parent / "fixtures"
NOTES = FIXTURES / "labelled_notes.jsonl"
GOLD = FIXTURES / "labelled_gold.jsonl"
BASELINE = FIXTURES / "labelled_baseline.json"


def lines_by_group(path):
    """The file's lines under "all" and under their note's phenomenon."""
    groups = {"all": []}
    for line in path.read_text(encoding="utf-8").splitlines(keepends=True):
        phenomenon = json.loads(line)["note_id"].split("-")[0]
        groups["all"].append(line)
        groups.setdefault(phenomenon, []).append(line)
    return groups


def score(pred, tmp_path):
    """Each group's report: the gold and predicted lines of its notes, scored."""
    gold_groups, pred_groups = lines_by_group(GOLD), lines_by_group(pred)
    reports = {}
    for name, gold_lines in gold_groups.items():
        gold_file, pred_file = tmp_path / f"{name}-gold.jsonl", tmp_path / f"{name}-pred.jsonl"
        gold_file.write_text("".join(gold_lines), encoding="utf-8")
        pred_file.write_text("".join(pred_groups.get(name, [])), encoding="utf-8")
        reports[name] = report_files(gold_file, pred_file)
    return reports


def correct_counts(report):
    """The pairs matched on their phrase, then each column's correct count."""
    return {"phrase": report.tp, **{kind: s.correct for kind, s in report.kinds.items()}}


def test_every_labelled_note_has_gold_and_a_phenomenon():
    notes = [json.loads(line)["note_id"] for line in NOTES.read_text(encoding="utf-8").splitlines()]
    gold = {json.loads(line)["note_id"] for line in GOLD.read_text(encoding="utf-8").splitlines()}
    assert len(notes) == len(set(notes)) and set(notes) == gold
    assert set(lines_by_group(GOLD)) == set(json.loads(BASELINE.read_text(encoding="utf-8")))


def test_the_rule_pipeline_scores_no_lower_than_the_baseline(tmp_path, lexicon_path, abbrev_path):
    pred = tmp_path / "pred.jsonl"
    assert main(["structure", "--lexicon", lexicon_path, "--abbreviations", abbrev_path, str(NOTES), str(pred)]) == 0
    reports = score(pred, tmp_path)
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    below = [
        f"{name} {column}: {correct_counts(reports[name])[column]} correct, baseline {count}"
        for name, columns in baseline.items()
        for column, count in columns.items()
        if correct_counts(reports[name])[column] < count
    ]
    tables = "\n\n".join(render_table(report, name) for name, report in reports.items())
    assert not below, f"{tables}\n\nbelow the baseline:\n" + "\n".join(below)
