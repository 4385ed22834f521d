"""Per-mention attribute extraction through pluggable annotator backends.

`annotate_note` calls a backend once per note with the note's segmentation,
each mention's sentence and the kinds its type allows (`load_applicability`).
A backend answers one record per mention, a dict from each of those kinds to a
value or None. `annotate_note` then sets every other kind to `NOT_APPLICABLE`:
applicability is decided there, once, and an answer for a kind that does not
apply is discarded. The rule backend (regex values/units, anatomy lexicon
locations, adjacency modifiers, no purposes) fills every applicable kind from
the mention's sentence, read in place in the note and its one case fold, with
tables read from the package data once per process. It scans each sentence
once, on first use, for all the mentions in it: the anatomy matches with their
direction-word display (`SentenceLocations`, which runs the patterns of only
the surfaces whose leading run the sentence holds) and the positions where a
value can start. Each mention then bisects those tables, and its modifiers are
the words next to it, at most two whitespace characters away. The anatomy
surfaces, like the assertion triggers, are keyed by their leading ASCII run
(`terminology.LiteralIndex`). The LLM backend packs the segmentation into
(start, end) chunks under its token budget, marks each chunk's mentions with
double curly braces and renders one prompt per attribute kind over the
mentions that kind applies to. It sends all of a note's prompts at once
(`ChatClient.complete_all`), then parses the answers and aligns the echoed
entity lines back to mention order on the calling thread, in prompt order, so
output and warnings do not depend on the order answers arrive in.
"""

from __future__ import annotations

import functools
import logging
import re
import string
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from itertools import groupby

from .integrate import align
from .llm_client import ChatClient
from .preprocess import NormalizedNote, Sentence, chunk_note
from .recognition import Mention
from .terminology import (
    ATTRIBUTE_KINDS,
    LOCATION,
    MODIFIER,
    NOT_APPLICABLE,
    PURPOSE,
    UNIT,
    VALUE,
    LiteralIndex,
    SemanticType,
    data_path,
    read_lines,
)

log = logging.getLogger(__name__)


class BackendError(RuntimeError):
    """The annotator backend produced no usable output."""


_LIST_KINDS = {LOCATION, MODIFIER}


def _data_text(name: str) -> str:
    return data_path(name).read_text(encoding="utf-8")


@functools.cache
def _anatomy_rows() -> tuple[tuple[str, str], ...]:
    """(surface, display form) rows; a line without a TAB maps a surface to
    itself. Blank and '#' lines are skipped (`read_lines`)."""
    mapping: dict[str, str] = {}
    for _, line in read_lines(_data_text("anatomy.txt").splitlines()):
        surface, _, display = line.strip().partition("\t")
        mapping[surface.strip().lower()] = display.strip() or surface.strip()
    return tuple(mapping.items())


@functools.cache
def _word_list(name: str) -> frozenset[str]:
    """The lowercased words of a data file, less its '#' lines (`read_lines`)."""
    lines = read_lines(_data_text(name).lower().splitlines())
    return frozenset(w for _, line in lines for w in line.split())


DIRECTION_WORDS = {"left", "right", "bilateral", "upper", "lower"}

_VALUE_PATTERN = re.compile(r"(?:(<=|>=|[<>≤≥])\s*)?(\d+(?:,\d{3})*(?:\.\d+)?)")
_UNIT_TOKEN = re.compile(r"\s*([A-Za-z][A-Za-z0-9/%²³]*|%|°[CF]?)")


_VALUE_START = re.compile(r"(?=(?:<=|>=|[<>≤≥])\s*\d|\d)")  # where _VALUE_PATTERN can match
_DIGIT = re.compile(r"\d")


def _value_starts(text: str, sentence: Sentence) -> list[int]:
    """Every position of the sentence where a value can start, ascending.
    Every value holds a digit."""
    if _DIGIT.search(text, sentence.start, sentence.end) is None:
        return []
    return [m.start() for m in _VALUE_START.finditer(text, sentence.start, sentence.end)]


def _value_unit(text: str, value_starts: list[int], end: int, endpos: int, units) -> tuple:
    """The first value starting at or after end, as `_VALUE_PATTERN.search(
    text, end, endpos)` finds it, with its unit."""
    i = bisect_left(value_starts, end)
    if i == len(value_starts):
        return None, None
    m = _VALUE_PATTERN.match(text, value_starts[i], endpos)
    value = (m.group(1) or "") + m.group(2)
    unit = None
    um = _UNIT_TOKEN.match(text, m.end(), endpos)
    if um and um.group(1).lower() in units:
        unit = um.group(1)
    return value, unit


_ASCII_LETTERS = frozenset(string.ascii_letters)
_WORD_AFTER = re.compile(r"\s{0,2}([A-Za-z]+)")


def _word_before(text: str, lo: int, pos: int) -> str | None:
    """The ASCII-letter word of text[lo:pos] that ends before pos, with at
    most two whitespace characters between; None when there is none."""
    end = pos
    while end > lo and text[end - 1].isspace():
        end -= 1
        if pos - end > 2:
            return None  # not adjacent
    start = end
    while start > lo and text[start - 1] in _ASCII_LETTERS:
        start -= 1
    return text[start:end] if start < end else None


def _word_after(text: str, pos: int, endpos: int) -> str | None:
    """The ASCII-letter word of text[:endpos] that starts after pos, with at
    most two whitespace characters between; None when there is none."""
    m = _WORD_AFTER.match(text, pos, endpos)
    return m.group(1) if m else None


@functools.cache
def _default_anatomy() -> LiteralIndex:
    return LiteralIndex(_anatomy_rows())


def _with_next(rows: list[tuple]) -> list[tuple]:
    """Each (start, end, scan order, render) row with the index of the first
    later row whose render differs."""
    out = []
    nxt = len(rows)
    for i in range(len(rows) - 1, -1, -1):
        if i + 1 < len(rows) and rows[i + 1][3] != rows[i][3]:
            nxt = i + 1
        out.append((*rows[i], nxt))
    out.reverse()
    return out


class SentenceLocations:
    """The anatomy matches of one sentence, each rendered with its direction
    word, in two orders for nearest-first lookup.

    A mention's candidates are the matches that do not overlap it, ordered by
    distance, ties in scan order (surface table order, then position). The
    matches after the mention are a suffix of the matches sorted by start,
    those before it a suffix of the matches sorted by end, descending; merging
    the two suffixes gives that order. Each row also holds the next row of
    its order with another render, so the second distinct render is found
    without walking over repeats of the first.
    """

    def __init__(self, note: NormalizedNote, sentence: Sentence, anatomy: LiteralIndex):
        text, folded, lo, hi = note.text, note.folded, sentence.start, sentence.end
        found = []  # (start, end, scan order, render)
        for pattern, display in anatomy.candidates(folded[lo:hi]):
            for m in pattern.finditer(folded, lo, hi):
                start = m.start()
                direction = _word_before(text, lo, start)
                if direction and (direction := direction.lower()) in DIRECTION_WORDS:
                    found.append((start, m.end(), len(found), f"{direction} {display}"))
                else:
                    found.append((start, m.end(), len(found), display))
        if not found:
            self._after = self._before = ()
            return
        self._after = _with_next(sorted(found, key=lambda row: (row[0], row[2])))
        self._after_starts = [row[0] for row in self._after]
        self._before = _with_next(sorted(found, key=lambda row: (-row[1], row[2])))
        self._before_keys = [-row[1] for row in self._before]  # ascending

    def nearest(self, start: int, end: int) -> list[str]:
        """The renders of the matches nearest the mention at start:end, first
        two distinct, nearest first."""
        after, before = self._after, self._before
        out: list[str] = []
        if not after:
            return out
        a = bisect_left(self._after_starts, end)
        b = bisect_left(self._before_keys, -start)  # rows ending at or before start
        skip = None
        while True:
            if a < len(after) and after[a][3] == skip:
                a = after[a][4]
            # rows starting at or after end lie after the mention (when end <= start)
            while b < len(before) and (before[b][3] == skip or before[b][0] >= end):
                b = before[b][4] if before[b][3] == skip else b + 1
            if a < len(after):
                row = after[a]
                if b < len(before) and (start - before[b][1], before[b][2]) < (row[0] - end, row[2]):
                    row = before[b]
            elif b < len(before):
                row = before[b]
            else:
                return out
            out.append(row[3])
            if len(out) == 2:
                return out
            skip = row[3]


def rule_extract_modifiers(text: str, sentence: Sentence, start: int, end: int, words) -> list[str]:
    """Modifier-list words of the sentence immediately adjacent to the
    mention text[start:end]."""
    out: list[str] = []
    before = _word_before(text, sentence.start, start)
    if before and before.lower() in words:
        out.append(before)
    after = _word_after(text, end, sentence.end)
    if after and after.lower() in words:
        out.append(after)
    return out


class RuleBackend:
    """Deterministic attribute annotator; purpose always comes back empty."""

    def __init__(self):
        self.anatomy = _default_anatomy()
        self.units = _word_list("units.txt")
        self.modifier_words = _word_list("modifiers.txt")

    def annotate(self, note: NormalizedNote, segmentation, mentions: list[Mention], sentences, kinds):
        """Fill every applicable kind of each mention from its sentence. The
        mentions of one sentence share its anatomy matches and value starts,
        each made on first use."""
        text = note.text
        records = []
        sentence = locations = value_starts = None
        for m, sent, applicable in zip(mentions, sentences, kinds):
            if sent != sentence:
                sentence, locations, value_starts = sent, None, None
            s, e = m.norm_start, m.norm_end
            record = {}
            if LOCATION in applicable:
                if locations is None:
                    locations = SentenceLocations(note, sent, self.anatomy)
                record[LOCATION] = locations.nearest(s, e) or None
            if MODIFIER in applicable:
                record[MODIFIER] = rule_extract_modifiers(text, sent, s, e, self.modifier_words) or None
            if VALUE in applicable or UNIT in applicable:
                if value_starts is None:
                    value_starts = _value_starts(text, sent)
                value, unit = _value_unit(text, value_starts, e, sent.end, self.units)
                if VALUE in applicable:
                    record[VALUE] = value
                if UNIT in applicable:
                    record[UNIT] = unit
            if PURPOSE in applicable:
                # it needs world knowledge the rule backend lacks
                record[PURPOSE] = None
            records.append(record)
        return records, 0, sum(len(k) for k in kinds)


def mark_mentions(text: str, span: tuple[int, int], mentions: list[Mention]) -> str:
    """text[start:end] with each mention in it (none overlap) wrapped in double curly braces."""
    pos, end = span
    pieces = []
    for m in sorted(mentions, key=lambda m: m.norm_start):
        pieces += (text[pos : m.norm_start], "{{", text[m.norm_start : m.norm_end], "}}")
        pos = m.norm_end
    return "".join(pieces) + text[pos:end]


def default_prompt_template(kind: str) -> str:
    return _prompt_template("prompt_location.txt" if kind == LOCATION else "prompt_generic.txt")


@functools.cache
def _prompt_template(name: str) -> str:
    return _data_text(name)


def render_prompt(template: str, paragraph: str, kind: str, terms: list[str]) -> str:
    return (
        template.replace("{paragraph}", paragraph)
        .replace("{kind}", kind)
        .replace("{terms}", "\n".join(terms))
    )


_LINE = re.compile(r"^(.+?):\s*(.*)$")


def parse_response_lines(response: str) -> tuple[list[tuple[str, object]], int]:
    """Parse "entity: value" lines; returns (lines, unparsable_count)."""
    lines: list[tuple[str, object]] = []
    unparsable = 0
    for raw in response.splitlines():
        raw = raw.strip()
        if not raw:
            continue
        m = _LINE.match(raw)
        if m is None:
            unparsable += 1
            continue
        entity = m.group(1).strip()
        value = m.group(2).strip()
        lines.append((entity, None if value.lower() == "null" else value))
    return lines, unparsable


def llm_prompt(text: str, span: tuple[int, int], mentions: list[Mention], kind: str) -> str:
    """The (chunk, kind) prompt: the chunk text[start:end] with its mentions
    marked, then the mention surfaces one per line."""
    marked = mark_mentions(text, span, mentions)
    return render_prompt(default_prompt_template(kind), marked, kind, [m.surface for m in mentions])


def llm_extract(response: str, mentions: list[Mention], kind: str):
    """Parse one (chunk, kind) answer and align its echoed entities to
    mention order.

    Returns (assignments, dropped_count, total_lines) where assignments are
    (mention_index, value) pairs.
    """
    lines, unparsable = parse_response_lines(response)
    if not lines:
        raise BackendError(f"unusable {kind} response: no parsable entity lines")
    assignments, dropped = align(mentions, lines)
    for line_idx in dropped:
        log.warning("dropped unmatched %s line: %r", kind, lines[line_idx])
    if unparsable:
        log.warning("dropped %d unparsable %s lines", unparsable, kind)
    result = [(m_idx, value) for _, m_idx, value in assignments]
    return result, len(dropped) + unparsable, len(lines) + unparsable


class LlmBackend:
    """Annotator backed by a chat-completion client (live or replay)."""

    def __init__(self, client: ChatClient, max_tokens: int = 800):
        self.client = client
        self.max_tokens = max_tokens

    def annotate(self, note: NormalizedNote, segmentation, mentions: list[Mention], sentences, kinds):
        """Pack the segmentation into chunks under the token budget; render,
        for each chunk with mentions, one prompt per attribute kind listing
        only the chunk's mentions that kind applies to; send them all at
        once, and read the answers back in chunk order, then kind order."""
        chunks = chunk_note(note.text, segmentation, self.max_tokens)
        starts = [start for start, _ in chunks]
        # mentions are in document order, so each chunk's mentions are adjacent
        chunk_of = [bisect_right(starts, m.norm_start) - 1 for m in mentions]
        batch = []  # (kind, mention indices, prompt)
        for chunk_idx, in_chunk in groupby(range(len(mentions)), key=chunk_of.__getitem__):
            in_chunk = list(in_chunk)
            for kind in ATTRIBUTE_KINDS:
                indices = [i for i in in_chunk if kind in kinds[i]]
                if indices:
                    prompt = llm_prompt(note.text, chunks[chunk_idx], [mentions[i] for i in indices], kind)
                    batch.append((kind, indices, prompt))
        responses = self.client.complete_all([prompt for _, _, prompt in batch])
        records = [{kind: None for kind in ATTRIBUTE_KINDS if kind in applicable} for applicable in kinds]
        dropped_total = lines_total = 0
        for (kind, indices, _), response in zip(batch, responses):
            assignments, dropped, total = llm_extract(response, [mentions[i] for i in indices], kind)
            dropped_total += dropped
            lines_total += total
            for local_idx, value in assignments:
                if kind in _LIST_KINDS and isinstance(value, str):
                    value = [value]
                records[indices[local_idx]][kind] = value
        return records, dropped_total, lines_total


def annotate_note(
    note: NormalizedNote,
    segmentation: list[Sentence],
    mentions: list[Mention],
    sentences: list[Sentence],
    backend,
    table: Mapping[SemanticType, frozenset[str]],
):
    """Call the backend once for the note, passing its segmentation, each
    mention's `Sentence` and applicable kinds, and complete each answer into a
    record of every attribute kind: a kind that does not apply is "not
    applicable", an applicable one the backend left out is None.

    Returns (records parallel to mentions, dropped_lines, total_lines).
    """
    kinds = [table[m.semantic_type] for m in mentions]
    answers, dropped, total = backend.annotate(note, segmentation, mentions, sentences, kinds)
    records = [
        {kind: answer.get(kind) if kind in applicable else NOT_APPLICABLE for kind in ATTRIBUTE_KINDS}
        for answer, applicable in zip(answers, kinds)
    ]
    return records, dropped, total
