"""Note normalization, tokenization, segmentation and token-budget chunking.

Clinical notes are full of hard-wrapped lines that break sentences. The
normalizer keeps structural line breaks (paragraph ends, list items, section
headers) and replaces the rest with spaces, while an offset map tracks every
normalized position back to the raw text. Segmentation searches the whole
normalized text between a paragraph's two positions rather than a slice of
it, and returns spans only, as chunking does.
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, groupby
from typing import NamedTuple

from .terminology import fold_case


@dataclass(frozen=True)
class RawNote:
    note_id: str
    text: str


@dataclass
class NormalizedNote:
    note_id: str
    text: str
    # offset_map[i] = raw offset of normalized character i; strictly increasing.
    offset_map: list[int]

    @functools.cached_property
    def folded(self) -> str:
        """fold_case(text), made once per note; its offsets index the text."""
        return fold_case(self.text)

    def raw_span(self, norm_start: int, norm_end: int) -> tuple[int, int]:
        """Map a half-open normalized span to raw offsets."""
        if norm_start >= norm_end:
            raise ValueError("empty span")
        return self.offset_map[norm_start], self.offset_map[norm_end - 1] + 1


_LIST_MARKER = re.compile(r"^\s*(?:[-*•·●]|\d{1,3}[.)])\s")
SECTION_HEADER = re.compile(r"^\s*[A-Z][A-Z0-9 /&'-]*:", re.MULTILINE)
_SENTENCE_END = re.compile(r"[.!?:]\s*$")


def _keep_break(prev_line: str, next_line: str) -> bool:
    if not prev_line.strip() or not next_line.strip():
        return True  # blank line: paragraph boundary
    if _SENTENCE_END.search(prev_line):
        return True
    if _LIST_MARKER.match(next_line):
        return True
    if SECTION_HEADER.match(next_line):
        return True
    return False


def restore_linebreaks(raw: RawNote) -> NormalizedNote:
    """Replace formatting line breaks with single spaces, keeping real ones.

    A break is kept when the previous line ends in sentence-terminal
    punctuation, the next line is a list item or section header, or either
    side is blank. Replaced breaks collapse with adjacent spaces so no
    characters are ever inserted. A "\r\n" is one line break, so a CRLF note
    normalizes to the text of its LF twin; the break's character maps to the
    "\r".
    """
    text = raw.text
    lines = text.split("\n")
    if "\r" in text:  # a "\r\n" is one line break: its "\r" is no part of the line
        lines[:-1] = [line.removesuffix("\r") for line in lines[:-1]]
    out: list[str] = []
    offset_map: list[int] = []
    pos = 0
    for idx, line in enumerate(lines):
        out.append(line)
        offset_map.extend(range(pos, pos + len(line)))
        pos += len(line)
        if idx < len(lines) - 1:  # the break at raw offset pos
            if _keep_break(line, lines[idx + 1]):
                out.append("\n")
                offset_map.append(pos)
            else:
                # line is not blank here, or the break would have been kept
                prev_is_space = line.endswith(" ")
                next_is_space = lines[idx + 1][:1] == " "
                if not prev_is_space and not next_is_space:
                    out.append(" ")
                    offset_map.append(pos)
            pos += 2 if text[pos] == "\r" else 1
    return NormalizedNote(raw.note_id, "".join(out), offset_map)


TOKEN = re.compile(r"[A-Za-z0-9]+|[^\sA-Za-z0-9]")


def count_tokens(text: str) -> int:
    """Deterministic token count: alphanumeric runs plus standalone punctuation."""
    return len(TOKEN.findall(text))


_SENT_SPLIT = re.compile(r"[.!?]['\")\]]*\s+(?=[A-Z0-9])")
_NEWLINE = re.compile("\n")
# A paragraph ends after a run of two or more newlines, or a newline that
# ends the text.
_PARAGRAPH_END = re.compile(r"\n(?:\n+|\Z)")


class Sentence(NamedTuple):  # a sentence span and the span of its paragraph
    start: int
    end: int
    par_start: int
    par_end: int


def segment(text: str, spans=()) -> list[Sentence]:
    """Split the text into sentences within paragraphs, once per note.

    The sentences cover the text exactly. A paragraph ends after each match
    of `_PARAGRAPH_END` and at the end of the text. Within a paragraph, a
    sentence ends after terminal punctuation followed by whitespace and an
    uppercase letter or digit (`_SENT_SPLIT`), after each kept line break and
    at the paragraph's end; both are searched for between the paragraph's
    positions in the whole text, which finds what a search of the paragraph
    alone would. No boundary falls strictly inside one of the given
    (start, end) spans: the pieces on either side of such a cut stay one.
    """
    spans = sorted(spans)
    span_starts = [start for start, _ in spans]
    reach = list(accumulate((end for _, end in spans), max))  # reach[i]: the largest end of spans[:i + 1]

    def blocked(pos: int) -> bool:
        """pos lies strictly inside a span"""
        i = bisect_left(span_starts, pos)  # spans[:i] start before pos
        return i > 0 and reach[i - 1] > pos

    sentences: list[Sentence] = []
    par_start = 0
    for par_end in [*(m.end() for m in _PARAGRAPH_END.finditer(text)), len(text)]:
        if par_end == par_start or blocked(par_end):
            continue  # no text follows the last paragraph, or the next one joins this one
        ends = {m.end() for m in _SENT_SPLIT.finditer(text, par_start, par_end)}
        ends.update(m.end() for m in _NEWLINE.finditer(text, par_start, par_end))
        ends.add(par_end)
        start = par_start
        for end in sorted(ends):
            if not blocked(end):
                sentences.append(Sentence(start, end, par_start, par_end))
                start = end
        par_start = par_end
    return sentences


def chunk_note(text: str, segmentation, max_tokens: int = 800) -> list[tuple[int, int]]:
    """Greedy-pack whole paragraphs of the text's segmentation under the
    token budget, as (start, end) spans.

    Over-budget paragraphs split at their sentences; a single over-budget
    sentence becomes a chunk of its own. Chunks are contiguous and cover the
    text exactly.
    """
    if max_tokens <= 0:
        raise ValueError("max_tokens must be positive")
    units: list[tuple[int, int]] = []  # (end, tokens) of contiguous pieces
    for (par_start, par_end), group in groupby(segmentation, key=lambda s: (s.par_start, s.par_end)):
        tokens = count_tokens(text[par_start:par_end])
        if tokens <= max_tokens:
            units.append((par_end, tokens))
        else:
            units.extend((s.end, count_tokens(text[s.start : s.end])) for s in group)

    chunks: list[tuple[int, int]] = []
    start = end = tokens = 0  # the open chunk is text[start:end]
    for unit_end, unit_tokens in units:
        if end > start and tokens + unit_tokens > max_tokens:
            chunks.append((start, end))
            start, tokens = end, 0
        end = unit_end
        tokens += unit_tokens
        if unit_tokens > max_tokens:  # one sentence, alone in its chunk
            chunks.append((start, end))
            start, tokens = end, 0
    if end > start:
        chunks.append((start, end))
    return chunks
