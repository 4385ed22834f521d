"""Recognition: lexicon matches in the whole normalized note, filtered to
reportable types, with abbreviations expanded.

The index finds the matches (`TermIndex.scan`, forward maximum matching over
the case-folded note). Matched spans map back to raw-text offsets via the
note's offset map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .preprocess import NormalizedNote
from .terminology import AbbreviationTable, SemanticType, TermIndex, fold_case


@dataclass
class Mention:
    note_id: str
    norm_start: int
    norm_end: int
    raw_start: int
    raw_end: int
    surface: str  # raw casing, internal line breaks rendered as spaces
    canonical_phrase: str
    semantic_type: SemanticType
    concept_id: str | None = None
    ambiguous: bool = False


def recognize(note: NormalizedNote, index: TermIndex) -> list[Mention]:
    """Forward-maximum-match the whole normalized note against the index
    (unfiltered)."""
    text = note.text
    mentions: list[Mention] = []
    # fold_case keeps every character's length, so its spans index text
    for start, end, concept_id, semantic_type in index.scan(fold_case(text)):
        surface = text[start:end]
        raw_start, raw_end = note.raw_span(start, end)
        mentions.append(
            Mention(
                note_id=note.note_id,
                norm_start=start,
                norm_end=end,
                raw_start=raw_start,
                raw_end=raw_end,
                surface=surface,
                canonical_phrase=surface,
                semantic_type=semantic_type,
                concept_id=concept_id,
            )
        )
    return mentions


def filter_reportable(mentions: list[Mention]) -> list[Mention]:
    return [m for m in mentions if m.semantic_type.reportable]


def expand_abbreviation(m: Mention, table: AbbreviationTable) -> Mention:
    """Expand an unambiguous abbreviation in place; flag ambiguous ones."""
    expansions = table.expansions(m.surface)
    if len(expansions) == 1:
        exp = expansions[0]
        m.canonical_phrase = exp.full_form
        if exp.semantic_type is not None:
            m.semantic_type = exp.semantic_type
    elif len(expansions) >= 2:
        m.ambiguous = True
    return m


def recognize_note(
    note: NormalizedNote, index: TermIndex, abbreviations: AbbreviationTable
) -> list[Mention]:
    """Full per-note recognition: match, filter, expand, in document
    order."""
    mentions = filter_reportable(recognize(note, index))
    for m in mentions:
        expand_abbreviation(m, abbreviations)
    return mentions
