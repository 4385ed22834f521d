"""Per-mention attribute extraction through pluggable annotator backends.

`annotate_note` calls a backend once per note with the note's segmentation,
each mention's sentence and the attribute kinds its semantic type allows.
A backend answers one record per mention, a dict from each of those kinds to
a value or None. `annotate_note` then sets every other kind to "not
applicable": applicability is decided there, once, and an answer for a kind
that does not apply is discarded. The rule backend (regex values/units,
anatomy lexicon locations, adjacency modifiers, no purposes) fills every
applicable kind from the one sentence. Its tables are read from the package
data once per process, and its anatomy scan is a leading-word candidate
scan: `AnatomyIndex` keys each surface by its leading ASCII run, so a
sentence runs the patterns of only the surfaces whose leading run it holds
(plus those with none), in table order. The LLM backend packs the
segmentation into chunks under its token budget, marks each chunk's mentions
with double curly braces and renders one prompt per attribute kind over the
mentions that kind applies to. It sends all of a note's prompts at once
(`ChatClient.complete_all`), then parses the answers and aligns the echoed
entity lines back to mention order on the calling thread, in prompt order,
so output and warnings do not depend on the order answers arrive in.
"""

from __future__ import annotations

import functools
import logging
import re
from bisect import bisect_right
from importlib import resources
from itertools import groupby

from .integrate import align
from .llm_client import ChatClient
from .preprocess import Chunk, NormalizedNote, Sentence, chunk_note
from .recognition import Mention
from .terminology import (
    ATTRIBUTE_KINDS,
    LOCATION,
    MODIFIER,
    NOT_APPLICABLE,
    UNIT,
    VALUE,
    ApplicabilityTable,
    fold_case,
    literal_pattern,
)

log = logging.getLogger(__name__)


class BackendError(RuntimeError):
    """The annotator backend produced no usable output."""


_LIST_KINDS = {LOCATION, MODIFIER}


def _data_text(name: str) -> str:
    return resources.files("ehrstruct.data").joinpath(name).read_text(encoding="utf-8")


@functools.cache
def _anatomy_rows() -> tuple[tuple[str, str], ...]:
    mapping: dict[str, str] = {}
    for line in _data_text("anatomy.txt").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        surface, _, display = line.partition("\t")
        mapping[surface.strip().lower()] = display.strip() or surface.strip()
    return tuple(mapping.items())


@functools.cache
def _word_list(name: str) -> frozenset[str]:
    return frozenset(w for w in _data_text(name).lower().split() if w)


def load_anatomy_lexicon() -> dict[str, str]:
    """surface -> display-form mapping; lines without a TAB map to themselves."""
    return dict(_anatomy_rows())


def default_units() -> set[str]:
    return set(_word_list("units.txt"))


def default_modifier_words() -> set[str]:
    return set(_word_list("modifiers.txt"))


DIRECTION_WORDS = {"left", "right", "bilateral", "upper", "lower"}

_VALUE_PATTERN = re.compile(r"(?:(<=|>=|[<>≤≥])\s*)?(\d+(?:,\d{3})*(?:\.\d+)?)")
_UNIT_TOKEN = re.compile(r"\s*([A-Za-z][A-Za-z0-9/%²³]*|%|°[CF]?)")


def rule_extract_value_unit(sentence: str, start: int, end: int, units: set[str] | None = None):
    """Nearest numeric token after the mention in the sentence, with its unit
    when the following token is in the unit lexicon. Never a unit alone."""
    units = units if units is not None else _word_list("units.txt")
    m = _VALUE_PATTERN.search(sentence, end)
    if m is None:
        return None, None
    value = (m.group(1) or "") + m.group(2)
    unit = None
    um = _UNIT_TOKEN.match(sentence, m.end())
    if um and um.group(1).lower() in units:
        unit = um.group(1)
    return value, unit


_LAST_WORD = re.compile(r"([A-Za-z]+)$")
_FIRST_WORD = re.compile(r"([A-Za-z]+)")


def _word_before(sentence: str, pos: int) -> str | None:
    before = sentence[:pos]
    left = before.rstrip()
    if len(before) - len(left) > 2:
        return None  # not adjacent
    m = _LAST_WORD.search(left)
    return m.group(1) if m else None


def _word_after(sentence: str, pos: int) -> str | None:
    right = sentence[pos:]
    stripped = right.lstrip()
    if len(right) - len(stripped) > 2:
        return None
    m = _FIRST_WORD.match(stripped)
    return m.group(1) if m else None


_ASCII_RUN = re.compile(r"[a-z0-9]+")


class AnatomyIndex:
    """Anatomy surfaces keyed by their leading ASCII run, for the location scan.

    A surface's pattern (`literal_pattern`) can only match where the folded
    sentence has an ASCII-alphanumeric run starting: the lookbehind rules out
    a letter or digit before it, and folded text holds no A-Z. By the
    lookahead, that run then equals the surface's own leading run
    `[a-z0-9]*`. So a scan tries the surfaces whose leading run is one of the
    sentence's runs, plus every surface whose leading run is empty, and it
    tries them in table order, as the unfiltered scan does.
    """

    def __init__(self, anatomy: dict[str, str]):
        self._entries = tuple((literal_pattern(surface), display) for surface, display in anatomy.items())
        by_run: dict[str, list[int]] = {}
        always = []  # surfaces with an empty leading run
        for row, surface in enumerate(anatomy):
            run = m.group() if (m := _ASCII_RUN.match(surface)) else ""
            (by_run.setdefault(run, []) if run else always).append(row)
        self._by_run = {run: tuple(rows) for run, rows in by_run.items()}
        self._always = tuple(always)

    def candidates(self, lowered: str) -> list[tuple[re.Pattern, str]]:
        """(pattern, display) of every surface that can match the folded
        sentence, in table order."""
        rows = list(self._always)
        for run in self._by_run.keys() & _ASCII_RUN.findall(lowered):
            rows += self._by_run[run]
        rows.sort()
        return [self._entries[row] for row in rows]


@functools.cache
def _default_anatomy() -> AnatomyIndex:
    return AnatomyIndex(load_anatomy_lexicon())


def rule_extract_locations(
    sentence: str, start: int, end: int, anatomy: AnatomyIndex | dict[str, str] | None = None
) -> list[str]:
    """Anatomy-lexicon matches in the sentence, nearest first, at most two.

    anatomy is an AnatomyIndex, or a surface -> display mapping to index for
    this call; None selects the shipped lexicon. Adjacent direction words
    (left/right/bilateral/upper/lower) are prefixed onto the display form.
    """
    if anatomy is None:
        anatomy = _default_anatomy()
    elif not isinstance(anatomy, AnatomyIndex):
        anatomy = AnatomyIndex(anatomy)
    lowered = fold_case(sentence)
    found: list[tuple[int, str]] = []  # (distance, display)
    for pattern, display in anatomy.candidates(lowered):
        for m in pattern.finditer(lowered):
            if m.start() < end and m.end() > start:
                continue  # overlaps the mention itself
            distance = m.start() - end if m.start() >= end else start - m.end()
            rendered = display
            direction = _word_before(sentence, m.start())
            if direction and direction.lower() in DIRECTION_WORDS:
                rendered = f"{direction.lower()} {display}"
            found.append((distance, rendered))
    found.sort(key=lambda t: t[0])
    out: list[str] = []
    for _, rendered in found:
        if rendered not in out:
            out.append(rendered)
        if len(out) == 2:
            break
    return out


def rule_extract_modifiers(
    sentence: str, start: int, end: int, words: set[str] | None = None
) -> list[str]:
    """Modifier-list words immediately adjacent to the mention."""
    words = words if words is not None else _word_list("modifiers.txt")
    out: list[str] = []
    before = _word_before(sentence, start)
    if before and before.lower() in words:
        out.append(before)
    after = _word_after(sentence, end)
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
        """Fill every applicable kind of each mention from its sentence."""
        records = []
        for (sent, s, e), applicable in zip(sentences, kinds):
            found = {}
            if VALUE in applicable or UNIT in applicable:
                found[VALUE], found[UNIT] = rule_extract_value_unit(sent, s, e, self.units)
            if LOCATION in applicable:
                found[LOCATION] = rule_extract_locations(sent, s, e, self.anatomy) or None
            if MODIFIER in applicable:
                found[MODIFIER] = rule_extract_modifiers(sent, s, e, self.modifier_words) or None
            # PURPOSE stays None: it needs world knowledge the rule backend lacks
            records.append({kind: found.get(kind) for kind in ATTRIBUTE_KINDS if kind in applicable})
        return records, 0, sum(len(k) for k in kinds)


def mark_mentions(chunk: Chunk, mentions: list[Mention]) -> str:
    """Wrap each mention span in the chunk text with double curly braces."""
    text = chunk.text
    for m in sorted(mentions, key=lambda m: m.norm_start, reverse=True):
        s = m.norm_start - chunk.norm_start
        e = m.norm_end - chunk.norm_start
        text = text[:s] + "{{" + text[s:e] + "}}" + text[e:]
    return text


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


def llm_prompt(chunk: Chunk, mentions: list[Mention], kind: str) -> str:
    """The (chunk, kind) prompt: the chunk with its mentions marked, then
    the mention surfaces one per line."""
    marked = mark_mentions(chunk, mentions)
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
        chunks = chunk_note(note, segmentation, self.max_tokens)
        starts = [chunk.norm_start for chunk in chunks]
        # mentions are in document order, so each chunk's mentions are adjacent
        chunk_of = [bisect_right(starts, m.norm_start) - 1 for m in mentions]
        batch = []  # (kind, mention indices, prompt)
        for chunk_idx, in_chunk in groupby(range(len(mentions)), key=chunk_of.__getitem__):
            in_chunk = list(in_chunk)
            for kind in ATTRIBUTE_KINDS:
                indices = [i for i in in_chunk if kind in kinds[i]]
                if indices:
                    prompt = llm_prompt(chunks[chunk_idx], [mentions[i] for i in indices], kind)
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
    sentences: list[tuple[str, int, int]],
    backend,
    table: ApplicabilityTable,
):
    """Call the backend once for the note, passing its segmentation, each
    mention's (sentence, start, end) and applicable kinds, and complete each
    answer into a record of every attribute kind: a kind that does not apply
    is "not applicable", an applicable one the backend left out is None.

    Returns (records parallel to mentions, dropped_lines, total_lines).
    """
    kinds = [table.applicable_attributes(m.semantic_type) for m in mentions]
    answers, dropped, total = backend.annotate(note, segmentation, mentions, sentences, kinds)
    records = [
        {kind: answer.get(kind) if kind in applicable else NOT_APPLICABLE for kind in ATTRIBUTE_KINDS}
        for answer, applicable in zip(answers, kinds)
    ]
    return records, dropped, total
