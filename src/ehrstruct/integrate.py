"""Alignment of backend output lines to mentions, record assembly, and JSONL.

Backend annotators echo entity text that must be matched back to the mention
list. Matching is greedy and monotone: lines are consumed in order against a
forward-only cursor into the mentions, so repeated terms resolve by order and
relative position. Unmatched lines are dropped and counted; a note whose drop
ratio exceeds the threshold is rejected outright.

`serialize` writes each entity's JSON line straight from its fields with the
standard library's string encoder, with no dict per entity in between; the
bytes are those of `json.dumps(entity_to_dict(e), ensure_ascii=False)`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .terminology import LOCATION, MODIFIER, NOT_APPLICABLE, PURPOSE, UNIT, VALUE, SemanticType
from .terminology import read_jsonl

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
    entities = [
        StructuredEntity(
            note_id,
            m.canonical_phrase,
            m.surface,
            (m.raw_start, m.raw_end),
            m.semantic_type,
            status.value if hasattr(status, "value") else str(status),
            record[LOCATION],
            record[MODIFIER],
            record[VALUE],
            record[UNIT],
            record[PURPOSE],
        )
        for m, status, record in zip(mentions, statuses, records)
    ]
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


_TYPE_NAMES = {str: "a string", int: "an integer", dict: "an object"}


def _typed(value, name: str, expected: type):
    """value, when its type is expected (a bool is not an integer)."""
    if type(value) is not expected:
        raise TypeError(f"{name!r} must be {_TYPE_NAMES[expected]}, got {type(value).__name__}")
    return value


def _decode_field(value, name: str):
    """An attribute value read back: null, a string ("not applicable" for
    NOT_APPLICABLE) or a list of strings."""
    if value == "not applicable":
        return NOT_APPLICABLE
    if value is None or type(value) is str:
        return value
    if type(value) is list and all(type(v) is str for v in value):
        return value
    raise TypeError(f"{name!r} must be null, a string or a list of strings")


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
    """The entity of one JSON object, each field checked for its type; only
    note_id and phrase are required."""
    span = _typed(d.get("span", {}), "span", dict)
    phrase = _typed(d["phrase"], "phrase", str)
    return StructuredEntity(
        note_id=_typed(d["note_id"], "note_id", str),
        phrase=phrase,
        surface=_typed(d.get("surface", phrase), "surface", str),
        span=(_typed(span.get("start", 0), "span.start", int), _typed(span.get("end", 0), "span.end", int)),
        semantic_type=SemanticType.from_name(_typed(d.get("semantic_type", "Other"), "semantic_type", str)),
        assertion_status=_typed(d.get("assertion_status", "Present"), "assertion_status", str),
        **{name: _decode_field(d.get(name), name) for name in ATTRIBUTE_FIELDS.values()},
    )


# json.dumps(obj, ensure_ascii=False), without building an encoder per call
_encode = json.JSONEncoder(ensure_ascii=False).encode
_string = json.encoder.encode_basestring  # the string encoder _encode uses


def _json_field(value) -> str:
    """_encode(_encode_field(value)), with the fast paths for the values
    entities carry: a str, an int, None, NOT_APPLICABLE and a list of str."""
    if value.__class__ is str:
        return _string(value)
    if value.__class__ is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is NOT_APPLICABLE:
        return '"not applicable"'
    if value.__class__ is list and all(item.__class__ is str for item in value):
        return "[" + ", ".join(map(_string, value)) + "]"
    return _encode(_encode_field(value))


def _entity_json(e: StructuredEntity) -> str:
    """_encode(entity_to_dict(e)), written field by field."""
    sem = e.semantic_type.value if isinstance(e.semantic_type, SemanticType) else str(e.semantic_type)
    start, end = e.span
    return (
        f'{{"note_id": {_json_field(e.note_id)}, "phrase": {_json_field(e.phrase)}, '
        f'"surface": {_json_field(e.surface)}, '
        f'"span": {{"start": {_json_field(start)}, "end": {_json_field(end)}}}, '
        f'"semantic_type": {_json_field(sem)}, '
        f'"assertion_status": {_json_field(e.assertion_status)}, '
        f'"locations": {_json_field(e.locations)}, "modifiers": {_json_field(e.modifiers)}, '
        f'"value": {_json_field(e.value)}, "unit": {_json_field(e.unit)}, '
        f'"purpose": {_json_field(e.purpose)}}}'
    )


def serialize(results, sink, group_by_note: bool = False) -> None:
    """Write entities (or whole NoteResult objects) as JSONL to a text sink,
    each line byte-equal to json.dumps of `entity_to_dict` (or of the grouped
    object) with ensure_ascii=False."""
    for result in results:
        if group_by_note:
            sink.write(
                f'{{"note_id": {_json_field(result.note_id)}, '
                f'"rejected": {_encode(result.rejected)}, '
                f'"entities": [{", ".join(map(_entity_json, result.entities))}]}}\n'
            )
        elif result.entities:
            sink.write("\n".join(map(_entity_json, result.entities)) + "\n")


def parse_entities(source) -> list[StructuredEntity]:
    """Read entity JSONL (`read_jsonl`); raises on schema violations."""
    return list(read_jsonl(source, entity_from_dict))


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
