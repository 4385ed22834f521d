"""Recognition: the reportable lexicon matches of a whole normalized note,
as mentions in document order, with abbreviations resolved.

`recognize_note` makes one pass over the index's matches (`TermIndex.scan`,
forward maximum matching over the case-folded note). A match of a type that
is not reportable is skipped before a mention is built. A kept match whose
surface has one expansion takes its full form, and its type hint if any; one
with several expansions is flagged ambiguous. Spans map back to raw-text
offsets via the note's offset map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .preprocess import NormalizedNote
from .terminology import AbbreviationTable, SemanticType, TermIndex


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


def recognize_note(
    note: NormalizedNote, index: TermIndex, abbreviations: AbbreviationTable
) -> list[Mention]:
    """The note's reportable mentions, in document order, from one index
    scan: the lexicon type filters first, and an expansion's type hint can
    only change a mention that was kept."""
    text = note.text
    mentions: list[Mention] = []
    for start, end, concept_id, semantic_type in index.scan(note.folded):
        if not semantic_type.reportable:
            continue
        surface = canonical_phrase = text[start:end]
        expansions = abbreviations.expansions(surface)
        if len(expansions) == 1:
            canonical_phrase = expansions[0].full_form
            semantic_type = expansions[0].semantic_type or semantic_type
        raw_start, raw_end = note.raw_span(start, end)
        mentions.append(
            Mention(note.note_id, start, end, raw_start, raw_end, surface, canonical_phrase,
                    semantic_type, concept_id, ambiguous=len(expansions) > 1)
        )
    return mentions
