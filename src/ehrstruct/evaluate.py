"""Scoring predictions against gold annotations.

Phrase-level precision/recall/F1 with exact matching (modulo case and
acronym/full-name equivalence), then per-attribute accuracy over the matched
pairs. Attribute values are compared by deterministic text normalization with
unit-synonym and comparator-word tables.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass

from .integrate import ATTRIBUTE_FIELDS, StructuredEntity, parse_entities
from .terminology import NOT_APPLICABLE, AbbreviationTable

# Scored column -> the StructuredEntity field it reads: every attribute kind
# the pipeline writes, then the assertion status.
_KIND_FIELDS = {**ATTRIBUTE_FIELDS, "status": "assertion_status"}
ATTRIBUTE_COLUMNS = tuple(_KIND_FIELDS)

_COMPARATORS = {
    "<=": "less than or equal to",
    ">=": "greater than or equal to",
    "≤": "less than or equal to",
    "≥": "greater than or equal to",
    "<": "less than",
    ">": "greater than",
}

_UNIT_SYNONYMS = {
    "mmhg": "millimeters of mercury",
    "mm hg": "millimeters of mercury",
    "bpm": "beats per minute",
    "mcg": "micrograms",
    "ug": "micrograms",
    "µg": "micrograms",
    "mg": "milligrams",
    "g": "grams",
    "kg": "kilograms",
    "ml": "milliliters",
    "dl": "deciliters",
    "l": "liters",
    "%": "percent",
    "hr": "hours",
    "hrs": "hours",
    "min": "minutes",
    "sec": "seconds",
    "f": "degrees fahrenheit",
    "°f": "degrees fahrenheit",
    "c": "degrees celsius",
    "°c": "degrees celsius",
    "meq": "milliequivalents",
    "iu": "international units",
    "u": "units",
}


def normalize(text: str, kind: str = "value") -> str:
    """Lowercase, strip punctuation, and fold unit synonyms and comparator
    words to a canonical form."""
    s = text.strip().lower()
    for symbol, words in _COMPARATORS.items():
        s = s.replace(symbol, f" {words} ")
    s = s.replace("%", " % ")
    s = re.sub(r"[^\w\s%./]", " ", s)
    s = re.sub(r"\s+", " ", s).strip()
    if s in _UNIT_SYNONYMS:
        s = _UNIT_SYNONYMS[s]
    else:
        tokens = [_UNIT_SYNONYMS.get(t, t) if kind == "unit" else t for t in s.split(" ")]
        s = " ".join(tokens)
    return s


def equivalent(a: str, b: str, kind: str = "value") -> bool:
    return normalize(a, kind) == normalize(b, kind)


@dataclass
class KindScore:
    """Matched pairs whose gold carries the kind (total), those judged
    equivalent (correct), and the accuracy; None when no pair counts."""

    correct: int
    total: int
    accuracy: float | None


@dataclass
class EvalReport:
    """Phrase and attribute counts, pooled over notes, and the rates of
    `average`: "micro" rates come from the pooled counts, "macro" rates are
    per-note means (`evaluate`)."""

    average: str
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    kinds: dict[str, KindScore]

    def to_dict(self) -> dict:
        return {
            "average": self.average,
            "phrase": {
                "tp": self.tp,
                "fp": self.fp,
                "fn": self.fn,
                "precision": self.precision,
                "recall": self.recall,
                "f1": self.f1,
            },
            "attributes": {k: asdict(s) for k, s in self.kinds.items()},
        }


def phrase_f1(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """P, R, F1 with zero denominators yielding 0."""
    if min(tp, fp, fn) < 0:
        raise ValueError("counts must be >= 0")
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def _phrases_match(g: StructuredEntity, p: StructuredEntity, abbrev: AbbreviationTable | None) -> bool:
    g_span = g.span if g.span[0] != g.span[1] else None
    p_span = p.span if p.span[0] != p.span[1] else None
    if g_span and p_span and (g_span[1] <= p_span[0] or p_span[1] <= g_span[0]):
        return False
    for g_text in (g.phrase, g.surface):
        for p_text in (p.phrase, p.surface):
            if g_text.lower() == p_text.lower():
                return True
            if abbrev is not None and abbrev.equivalent(g_text, p_text):
                return True
    return False


def match_phrases(gold, pred, abbrev: AbbreviationTable | None = None):
    """Greedy one-to-one matching in document order for one note.

    Returns (tp_pairs, fp_list, fn_list). A pair matches on lowercased
    equality or acronym/full-name equivalence; spans must overlap when both
    sides carry them.
    """
    gold = sorted(gold, key=lambda e: e.span)
    pred = sorted(pred, key=lambda e: e.span)
    used = [False] * len(pred)
    tp_pairs = []
    fn = []
    for g in gold:
        hit = None
        for i, p in enumerate(pred):
            if not used[i] and _phrases_match(g, p, abbrev):
                hit = i
                break
        if hit is None:
            fn.append(g)
        else:
            used[hit] = True
            tp_pairs.append((g, pred[hit]))
    fp = [p for i, p in enumerate(pred) if not used[i]]
    return tp_pairs, fp, fn


def _as_list(value) -> list[str]:
    if value is None:
        return []
    if isinstance(value, list):
        return [str(v) for v in value]
    return [str(value)]


def _values_equivalent(gold_value, pred_value, kind: str) -> bool:
    if gold_value is NOT_APPLICABLE or pred_value is NOT_APPLICABLE:
        return gold_value is pred_value
    if kind == "status":
        return str(gold_value).lower() == str(pred_value).lower()
    if isinstance(gold_value, list) or isinstance(pred_value, list):
        g_items, p_items = _as_list(gold_value), _as_list(pred_value)
        if len(g_items) != len(p_items):
            return False
        remaining = list(p_items)
        for g in g_items:
            for p in remaining:
                if equivalent(g, p, kind):
                    remaining.remove(p)
                    break
            else:
                return False
        return True
    if gold_value is None or pred_value is None:
        return gold_value is None and pred_value is None
    return equivalent(str(gold_value), str(pred_value), kind)


def _ratio(part: int, whole: int) -> float | None:
    return part / whole if whole else None


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def score_attribute(tp_pairs, kind: str) -> KindScore:
    if kind not in ATTRIBUTE_COLUMNS:
        raise ValueError(f"unknown attribute kind {kind!r}")
    field_name = _KIND_FIELDS[kind]
    correct = total = 0
    for g, p in tp_pairs:
        gold_value = getattr(g, field_name)
        if gold_value is NOT_APPLICABLE:
            continue
        total += 1
        if _values_equivalent(gold_value, getattr(p, field_name), kind):
            correct += 1
    return KindScore(correct, total, _ratio(correct, total))


def _group_by_note(entities):
    groups: dict[str, list] = {}
    for e in entities:
        groups.setdefault(e.note_id, []).append(e)
    return groups


def _pool(per_note: list[EvalReport], average: str) -> EvalReport:
    """Sum the notes' counts. Micro rates come from the sums. Macro rates
    are per-note means: precision, recall and F1 over the notes with any
    gold or predicted entity (0.0 with none), each accuracy over the notes
    with a scored pair (None with none)."""
    tp, fp, fn = (sum(getattr(r, name) for r in per_note) for name in ("tp", "fp", "fn"))
    kinds = {}
    for kind in ATTRIBUTE_COLUMNS:
        scores = [r.kinds[kind] for r in per_note]
        correct, total = sum(s.correct for s in scores), sum(s.total for s in scores)
        if average == "micro":
            accuracy = _ratio(correct, total)
        else:
            accuracy = _mean([s.accuracy for s in scores if s.total > 0])
        kinds[kind] = KindScore(correct, total, accuracy)
    if average == "micro":
        rates = phrase_f1(tp, fp, fn)
    else:
        scored = [r for r in per_note if r.tp + r.fp + r.fn > 0]
        names = ("precision", "recall", "f1")
        rates = tuple(_mean([getattr(r, n) for r in scored]) for n in names) if scored else (0.0, 0.0, 0.0)
    return EvalReport(average, tp, fp, fn, *rates, kinds)


def evaluate(gold_entities, pred_entities, abbrev=None, macro: bool = False):
    """Score each note, then pool the notes; micro-averaged by default.
    Returns (report, per-note reports in note_id order)."""
    gold_by_note = _group_by_note(gold_entities)
    pred_by_note = _group_by_note(pred_entities)
    per_note: list[EvalReport] = []
    for note_id in sorted(set(gold_by_note) | set(pred_by_note)):
        tp_pairs, fp, fn = match_phrases(
            gold_by_note.get(note_id, []), pred_by_note.get(note_id, []), abbrev
        )
        counts = (len(tp_pairs), len(fp), len(fn))
        kinds = {kind: score_attribute(tp_pairs, kind) for kind in ATTRIBUTE_COLUMNS}
        per_note.append(EvalReport("micro", *counts, *phrase_f1(*counts), kinds))
    return _pool(per_note, "macro" if macro else "micro"), per_note


def _cell(value: float | None) -> str:
    return "-" if value is None else f"{value:.3f}"


def render_table(report: EvalReport, name: str = "pipeline") -> str:
    """Render the score row in the standard column layout: phrase F1, then
    each column's accuracy."""
    header = ["Attributes", "Phrase", *(kind.capitalize() for kind in ATTRIBUTE_COLUMNS)]
    metric = ["Metric", "F1", *(["Acc"] * len(ATTRIBUTE_COLUMNS))]
    row = [name, f"{report.f1:.3f}", *(_cell(report.kinds[k].accuracy) for k in ATTRIBUTE_COLUMNS)]
    widths = [max(len(col[i]) for col in (header, metric, row)) for i in range(len(header))]
    lines = []
    for cols in (header, metric, row):
        lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip())
    return "\n".join(lines)


def report_files(gold_path, pred_path, abbrev=None, macro: bool = False) -> EvalReport:
    """Score a prediction file against a gold file; both entity JSONL."""
    gold = parse_entities(gold_path)
    pred = parse_entities(pred_path)
    return evaluate(gold, pred, abbrev=abbrev, macro=macro)[0]
