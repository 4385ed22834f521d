"""Forward maximum matching over the whole normalized note.

Scans left to right, emitting the longest lexicon match at each word-boundary
position and resuming after it. Only a word that is a head word of the index
(`TermIndex.head_words`) can start a match, so every other word is skipped
before the index is asked. Matched spans map back to raw-text offsets via the
note's offset map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .preprocess import NormalizedNote
from .terminology import WORD_RUN, AbbreviationTable, SemanticType, TermIndex, fold_case


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
    lowered = fold_case(text)
    mentions: list[Mention] = []
    heads = index.head_words()
    resume = 0  # end of the last match; a match never ends inside a word
    # fold_case keeps isalnum(), so lowered has the same runs as text
    for word in WORD_RUN.finditer(lowered):
        i = word.start()
        if i < resume or (head := word.group()) not in heads:
            continue
        length = index.longest_match(lowered, i, head)
        if length is None:
            continue
        surface = text[i : i + length]
        key = lowered[i : i + length]
        raw_start, raw_end = note.raw_span(i, i + length)
        mentions.append(
            Mention(
                note_id=note.note_id,
                norm_start=i,
                norm_end=i + length,
                raw_start=raw_start,
                raw_end=raw_end,
                surface=surface,
                canonical_phrase=surface,
                semantic_type=index.semantic_type(key),
                concept_id=index.concept_id(key),
            )
        )
        resume = i + length
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
        m.canonical_phrase = m.surface
        m.ambiguous = True
    return m


def recognize_note(
    note: NormalizedNote,
    index: TermIndex,
    abbreviations: AbbreviationTable | None = None,
) -> list[Mention]:
    """Full per-note recognition: match, filter, expand, in document
    order."""
    mentions = filter_reportable(recognize(note, index))
    if abbreviations is not None:
        for m in mentions:
            expand_abbreviation(m, abbreviations)
    return mentions
