"""Alignment of backend output lines to mentions, record assembly, and JSONL.

Backend annotators echo entity text that must be matched back to the mention
list. Matching is greedy and monotone: lines are consumed in order against a
forward-only cursor into the mentions, so repeated terms resolve by order and
relative position. Unmatched lines are dropped and counted; a note whose drop
ratio exceeds the threshold is rejected outright.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .terminology import LOCATION, MODIFIER, NOT_APPLICABLE, PURPOSE, UNIT, VALUE, SemanticType

DEFAULT_MISMATCH_THRESHOLD = 0.2

# Attribute kind -> the StructuredEntity field and output key that carries it,
# in output order.
ATTRIBUTE_FIELDS = {
    LOCATION: "locations",
    MODIFIER: "modifiers",
    VALUE: "value",
    UNIT: "unit",
    PURPOSE: "purpose",
}


def align(mentions, lines):
    """Greedy monotone matching of (entity text, value) lines to mentions.

    A line matches the first not-yet-consumed mention at or after the cursor
    whose canonical phrase or surface equals its entity text
    (case-insensitive). Returns (assignments, dropped) where assignments are
    (line_index, mention_index, value) triples and dropped lists line indices.
    """
    assignments: list[tuple[int, int, object]] = []
    dropped: list[int] = []
    cursor = 0
    for line_idx, (entity_text, value) in enumerate(lines):
        needle = entity_text.strip().lower()
        matched = None
        for m_idx in range(cursor, len(mentions)):
            m = mentions[m_idx]
            if m.canonical_phrase.lower() == needle or m.surface.lower() == needle:
                matched = m_idx
                break
        if matched is None:
            dropped.append(line_idx)
        else:
            assignments.append((line_idx, matched, value))
            cursor = matched + 1
    return assignments, dropped


@dataclass
class StructuredEntity:
    note_id: str
    phrase: str
    surface: str
    span: tuple[int, int]
    semantic_type: SemanticType
    assertion_status: str
    locations: object = None  # list[str] | None | NOT_APPLICABLE
    modifiers: object = None
    value: object = None
    unit: object = None
    purpose: object = None


@dataclass
class NoteResult:
    note_id: str
    entities: list[StructuredEntity] = field(default_factory=list)
    dropped_attribute_lines: int = 0
    total_attribute_lines: int = 0
    rejected: bool = False

    @property
    def mismatch_ratio(self) -> float:
        return self.dropped_attribute_lines / max(1, self.total_attribute_lines)


def assemble(
    note_id: str,
    mentions,
    statuses,
    records,
    dropped_lines: int = 0,
    total_lines: int = 0,
    mismatch_threshold: float = DEFAULT_MISMATCH_THRESHOLD,
) -> NoteResult:
    """Build one StructuredEntity per mention, in span order.

    mentions, statuses and records are parallel lists from the same note;
    each record maps every attribute kind to its value. Drop counts come from
    the attribute backends; a ratio above the threshold rejects the whole note.
    """
    if len(mentions) != len(statuses) or len(mentions) != len(records):
        raise ValueError("mentions, statuses and attribute records must be parallel")
    for m in mentions:
        if m.note_id != note_id:
            raise ValueError(f"mention note_id {m.note_id!r} != {note_id!r}")
    entities = []
    for m, status, record in zip(mentions, statuses, records):
        entities.append(
            StructuredEntity(
                note_id=note_id,
                phrase=m.canonical_phrase,
                surface=m.surface,
                span=(m.raw_start, m.raw_end),
                semantic_type=m.semantic_type,
                assertion_status=status.value if hasattr(status, "value") else str(status),
                **{name: record[kind] for kind, name in ATTRIBUTE_FIELDS.items()},
            )
        )
    entities.sort(key=lambda e: e.span[0])
    result = NoteResult(
        note_id=note_id,
        entities=entities,
        dropped_attribute_lines=dropped_lines,
        total_attribute_lines=total_lines,
    )
    if result.mismatch_ratio > mismatch_threshold:
        result.rejected = True
        result.entities = []
    return result


def _encode_field(value):
    if value is NOT_APPLICABLE:
        return "not applicable"
    if isinstance(value, list):
        return list(value)
    return value


def _decode_field(value):
    if value == "not applicable":
        return NOT_APPLICABLE
    return value


def entity_to_dict(e: StructuredEntity) -> dict:
    """Fixed field order; NotApplicable encodes as "not applicable"."""
    sem = e.semantic_type.value if isinstance(e.semantic_type, SemanticType) else str(e.semantic_type)
    return {
        "note_id": e.note_id,
        "phrase": e.phrase,
        "surface": e.surface,
        "span": {"start": e.span[0], "end": e.span[1]},
        "semantic_type": sem,
        "assertion_status": e.assertion_status,
        **{name: _encode_field(getattr(e, name)) for name in ATTRIBUTE_FIELDS.values()},
    }


def entity_from_dict(d: dict) -> StructuredEntity:
    span = d.get("span") or {}
    return StructuredEntity(
        note_id=d["note_id"],
        phrase=d["phrase"],
        surface=d.get("surface", d["phrase"]),
        span=(span.get("start", 0), span.get("end", 0)),
        semantic_type=SemanticType.from_name(d.get("semantic_type", "Other")),
        assertion_status=d.get("assertion_status", "Present"),
        **{name: _decode_field(d.get(name)) for name in ATTRIBUTE_FIELDS.values()},
    )


# json.dumps(obj, ensure_ascii=False), without building an encoder per call
_encode = json.JSONEncoder(ensure_ascii=False).encode


def serialize(results, sink, group_by_note: bool = False) -> None:
    """Write entities (or whole NoteResult objects) as JSONL to a text sink."""
    for result in results:
        if group_by_note:
            obj = {
                "note_id": result.note_id,
                "rejected": result.rejected,
                "entities": [entity_to_dict(e) for e in result.entities],
            }
            sink.write(_encode(obj) + "\n")
        else:
            for e in result.entities:
                sink.write(_encode(entity_to_dict(e)) + "\n")


def parse_entities(source) -> list[StructuredEntity]:
    """Read entity JSONL from a text source; raises on schema violations."""
    entities = []
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            d = json.loads(line)
            entities.append(entity_from_dict(d))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValueError(f"line {lineno}: invalid entity record: {exc}") from exc
    return entities


def rejection_report(results) -> list[dict]:
    return [
        {
            "note_id": r.note_id,
            "dropped": r.dropped_attribute_lines,
            "total": r.total_attribute_lines,
            "ratio": round(r.mismatch_ratio, 6),
        }
        for r in results
        if r.rejected
    ]
