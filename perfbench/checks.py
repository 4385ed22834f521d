"""Output checks against the generator's planted gold.

Nothing here runs the program: the expected entities come from the corpus
generator, the expected attribute values from the stub's answer function,
and applicability from the paper's table written out below.
"""

from __future__ import annotations

import json
from collections import defaultdict

from corpus import Note
from stub import answer

# The paper's applicability table: which attribute kinds each semantic type
# may carry. Every other kind must serialize as "not applicable".
_LMVU = ("location", "modifier", "value", "unit")
_FULL = ("location", "modifier", "value", "unit", "purpose")
APPLICABLE = {
    "Disease, Syndrome or Pathologic Function": _LMVU,
    "Sign, Symptom, or Finding": _LMVU,
    "Neoplastic Process": _LMVU,
    "Anatomical Abnormality": _LMVU,
    "Injury or Poisoning": _LMVU,
    "Mental or Behavioral Dysfunction": _LMVU,
    "Cell or Molecular Dysfunction": _LMVU,
    "Chemical or Drug": ("modifier", "value", "unit", "purpose"),
    "Diagnostic Procedure": _FULL,
    "Therapeutic or Preventive Procedure": _FULL,
    "Laboratory Procedure": _FULL,
    "Clinical Attribute": _LMVU,
    "Physiology": _LMVU,
    "Microorganism": ("modifier", "location"),
    "Eukaryote": ("modifier", "location"),
    "Individual Behavior": ("modifier", "value", "unit"),
}
# Output field of each attribute kind; list-valued kinds hold one item.
FIELDS = {"location": "locations", "modifier": "modifiers", "value": "value", "unit": "unit", "purpose": "purpose"}
LIST_KINDS = ("location", "modifier")


def read_output(path) -> dict[str, list[dict]]:
    by_note: dict[str, list[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                by_note[rec["note_id"]].append(rec)
    return by_note


def note_problems(note: Note, entities: list[dict], llm: bool) -> list[str]:
    """Every way the entities of one note differ from its gold; empty when
    the note is right."""
    problems = []
    if len(entities) != len(note.gold):
        problems.append(f"{len(entities)} entities, expected {len(note.gold)}")
    flat = note.text.replace("\n", " ")
    for got, gold in zip(entities, note.gold):
        where = f"{gold.surface!r}@{gold.start}"
        span = (got["span"]["start"], got["span"]["end"])
        if span != (gold.start, gold.end):
            problems.append(f"{where}: span {span}")
            continue
        if got["surface"] != gold.surface or flat[span[0] : span[1]] != got["surface"]:
            problems.append(f"{where}: surface {got['surface']!r}")
        if got["semantic_type"] != gold.semantic_type:
            problems.append(f"{where}: type {got['semantic_type']!r}")
        if got["assertion_status"] != gold.status:
            problems.append(f"{where}: status {got['assertion_status']!r}, expected {gold.status!r}")
        if llm:
            applicable = APPLICABLE[gold.semantic_type]
            for kind, field in FIELDS.items():
                if kind not in applicable:
                    want = "not applicable"
                elif kind in LIST_KINDS:
                    want = [answer(gold.surface, kind)]
                else:
                    want = answer(gold.surface, kind)
                if got[field] != want:
                    problems.append(f"{where}: {field} {got[field]!r}, expected {want!r}")
    return problems


def failing_notes(notes: list[Note], output_path, llm: bool) -> dict[str, list[str]]:
    """note_id -> problems, for every note whose output is wrong."""
    by_note = read_output(output_path)
    known = {n.note_id for n in notes}
    failures = {}
    for note in notes:
        problems = note_problems(note, by_note.get(note.note_id, []), llm)
        if problems:
            failures[note.note_id] = problems
    for note_id in by_note.keys() - known:
        failures[note_id] = ["entities for a note that was never sent"]
    return failures
