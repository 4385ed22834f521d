"""Note normalization, tokenization, and token-budget chunking.

Clinical notes are full of hard-wrapped lines that break sentences. The
normalizer keeps structural line breaks (paragraph ends, list items, section
headers) and replaces the rest with spaces, while an offset map tracks every
normalized position back to the raw text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


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

    def raw_span(self, norm_start: int, norm_end: int) -> tuple[int, int]:
        """Map a half-open normalized span to raw offsets."""
        if norm_start >= norm_end:
            raise ValueError("empty span")
        return self.offset_map[norm_start], self.offset_map[norm_end - 1] + 1


@dataclass
class Chunk:
    note_id: str
    chunk_index: int
    norm_start: int
    norm_end: int
    text: str
    token_count: int
    oversize: bool = False


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
    characters are ever inserted.
    """
    text = raw.text
    lines = text.split("\n")
    out: list[str] = []
    offset_map: list[int] = []
    pos = 0
    for idx, line in enumerate(lines):
        out.append(line)
        offset_map.extend(range(pos, pos + len(line)))
        pos += len(line)
        if idx < len(lines) - 1:  # the '\n' at raw offset pos
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
            pos += 1
    return NormalizedNote(raw.note_id, "".join(out), offset_map)


_TOKEN = re.compile(r"[A-Za-z0-9]+|[^\sA-Za-z0-9]")


def count_tokens(text: str) -> int:
    """Deterministic token count: alphanumeric runs plus standalone punctuation."""
    return len(_TOKEN.findall(text))


_SENT_SPLIT = re.compile(r"[.!?]['\")\]]*\s+(?=[A-Z0-9])")


def split_sentences(text: str) -> list[str]:
    """Split into sentences, exactly covering the input.

    Boundaries: terminal punctuation followed by whitespace and an uppercase
    letter or digit, and kept line breaks.
    """
    if not text:
        return []
    cuts = [0]
    for m in _SENT_SPLIT.finditer(text):
        cuts.append(m.end())
    pieces: list[str] = []
    for start, end in zip(cuts, cuts[1:] + [len(text)]):
        piece = text[start:end]
        # kept newlines are hard boundaries too
        sub_start = 0
        for i, ch in enumerate(piece):
            if ch == "\n":
                pieces.append(piece[sub_start : i + 1])
                sub_start = i + 1
        if sub_start < len(piece):
            pieces.append(piece[sub_start:])
    return [p for p in pieces if p]


# A paragraph ends after a run of two or more newlines, or a newline that
# ends the text.
_PARAGRAPH_END = re.compile(r"\n(?:\n+|\Z)")


def split_paragraphs(text: str) -> list[str]:
    """Split at blank-line boundaries, exactly covering the input."""
    paragraphs: list[str] = []
    start = 0
    for m in _PARAGRAPH_END.finditer(text):
        paragraphs.append(text[start : m.end()])
        start = m.end()
    if start < len(text):
        paragraphs.append(text[start:])
    return paragraphs


def chunk_note(note: NormalizedNote, max_tokens: int = 800) -> list[Chunk]:
    """Greedy-pack whole paragraphs under the token budget.

    Over-budget paragraphs split at sentence boundaries; a single over-budget
    sentence becomes its own chunk flagged oversize. Chunks are contiguous and
    cover the text exactly.
    """
    if max_tokens <= 0:
        raise ValueError("max_tokens must be positive")
    units: list[str] = []
    for par in split_paragraphs(note.text):
        if count_tokens(par) <= max_tokens:
            units.append(par)
        else:
            units.extend(split_sentences(par))

    chunks: list[Chunk] = []
    buf: list[str] = []
    buf_tokens = 0
    buf_start = 0

    def flush(oversize: bool = False):
        nonlocal buf, buf_tokens, buf_start
        if buf:
            text = "".join(buf)
            chunks.append(
                Chunk(
                    note_id=note.note_id,
                    chunk_index=len(chunks),
                    norm_start=buf_start,
                    norm_end=buf_start + len(text),
                    text=text,
                    token_count=buf_tokens,
                    oversize=oversize,
                )
            )
            buf_start += len(text)
            buf = []
            buf_tokens = 0

    for text in units:
        tokens = count_tokens(text)
        if tokens > max_tokens:
            flush()
            buf = [text]
            buf_tokens = tokens
            flush(oversize=True)
        elif buf and buf_tokens + tokens > max_tokens:
            flush()
            buf = [text]
            buf_tokens = tokens
        else:
            buf.append(text)
            buf_tokens += tokens
    flush()
    return chunks
