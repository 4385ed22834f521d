"""Per-mention attribute extraction through pluggable annotator backends.

`annotate_note` calls a backend once per chunk that has mentions, passing
each mention's sentence (computed once per note by the pipeline) and the
attribute kinds its semantic type allows. Two backends ship: a deterministic
rule backend (regex values/units, anatomy lexicon locations, adjacency
modifiers, no purposes) that fills every applicable kind from the one
sentence, and an LLM backend that marks mentions with double curly braces,
prompts once per attribute kind over only the mentions that kind applies to,
and aligns the echoed entity lines back to the mention order. Applicability
filtering runs last and forces inapplicable kinds to "not applicable".
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from importlib import resources

from .integrate import align
from .llm_client import ChatClient
from .preprocess import Chunk
from .recognition import Mention
from .terminology import (
    ATTRIBUTE_KINDS,
    LOCATION,
    MODIFIER,
    NOT_APPLICABLE,
    PURPOSE,
    UNIT,
    VALUE,
    ApplicabilityTable,
    fold_case,
)

log = logging.getLogger(__name__)


class BackendError(RuntimeError):
    """The annotator backend produced no usable output."""


@dataclass
class AttributeSet:
    locations: object = None
    modifiers: object = None
    value: object = None
    unit: object = None
    purpose: object = None

    def get(self, kind: str):
        return getattr(self, _FIELD_BY_KIND[kind])

    def set(self, kind: str, value) -> None:
        setattr(self, _FIELD_BY_KIND[kind], value)


_FIELD_BY_KIND = {
    LOCATION: "locations",
    MODIFIER: "modifiers",
    VALUE: "value",
    UNIT: "unit",
    PURPOSE: "purpose",
}

_LIST_KINDS = {LOCATION, MODIFIER}


def _data_text(name: str) -> str:
    return resources.files("ehrstruct.data").joinpath(name).read_text(encoding="utf-8")


def load_anatomy_lexicon() -> dict[str, str]:
    """surface -> display-form mapping; lines without a TAB map to themselves."""
    mapping: dict[str, str] = {}
    for line in _data_text("anatomy.txt").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        surface, _, display = line.partition("\t")
        mapping[surface.strip().lower()] = display.strip() or surface.strip()
    return mapping


def default_units() -> set[str]:
    return {w for w in _data_text("units.txt").lower().split() if w}


def default_modifier_words() -> set[str]:
    return {w for w in _data_text("modifiers.txt").lower().split() if w}


DIRECTION_WORDS = {"left", "right", "bilateral", "upper", "lower"}

_VALUE_PATTERN = re.compile(r"(?:(<=|>=|[<>≤≥])\s*)?(\d+(?:,\d{3})*(?:\.\d+)?)")
_UNIT_TOKEN = re.compile(r"\s*([A-Za-z][A-Za-z0-9/%²³]*|%|°[CF]?)")


def rule_extract_value_unit(sentence: str, start: int, end: int, units: set[str] | None = None):
    """Nearest numeric token after the mention in the sentence, with its unit
    when the following token is in the unit lexicon. Never a unit alone."""
    units = units if units is not None else default_units()
    m = _VALUE_PATTERN.search(sentence, end)
    if m is None:
        return None, None
    value = (m.group(1) or "") + m.group(2)
    unit = None
    um = _UNIT_TOKEN.match(sentence, m.end())
    if um and um.group(1).lower() in units:
        unit = um.group(1)
    return value, unit


def _word_before(sentence: str, pos: int) -> str | None:
    left = sentence[:pos].rstrip()
    if len(sentence[:pos]) - len(left) > 2:
        return None  # not adjacent
    m = re.search(r"([A-Za-z]+)$", left)
    return m.group(1) if m else None


def _word_after(sentence: str, pos: int) -> str | None:
    right = sentence[pos:]
    stripped = right.lstrip()
    if len(right) - len(stripped) > 2:
        return None
    m = re.match(r"([A-Za-z]+)", stripped)
    return m.group(1) if m else None


def rule_extract_locations(
    sentence: str, start: int, end: int, anatomy: dict[str, str] | None = None
) -> list[str]:
    """Anatomy-lexicon matches in the sentence, nearest first, at most two.

    Adjacent direction words (left/right/bilateral/upper/lower) are prefixed
    onto the display form.
    """
    anatomy = anatomy if anatomy is not None else load_anatomy_lexicon()
    lowered = fold_case(sentence)
    found: list[tuple[int, str]] = []  # (distance, display)
    for surface, display in anatomy.items():
        for m in re.finditer(
            r"(?<![A-Za-z0-9])" + re.escape(surface) + r"(?![A-Za-z0-9])", lowered
        ):
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
    words = words if words is not None else default_modifier_words()
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
        self.anatomy = load_anatomy_lexicon()
        self.units = default_units()
        self.modifier_words = default_modifier_words()

    def annotate(self, chunk: Chunk, mentions: list[Mention], sentences, kinds):
        """Fill every applicable kind of each mention from its sentence."""
        sets = []
        for (sent, s, e), applicable in zip(sentences, kinds):
            raw = AttributeSet()
            if VALUE in applicable or UNIT in applicable:
                value, unit = rule_extract_value_unit(sent, s, e, self.units)
                if VALUE in applicable:
                    raw.value = value
                if UNIT in applicable:
                    raw.unit = unit
            if LOCATION in applicable:
                raw.locations = rule_extract_locations(sent, s, e, self.anatomy) or None
            if MODIFIER in applicable:
                raw.modifiers = rule_extract_modifiers(sent, s, e, self.modifier_words) or None
            # PURPOSE stays None: it needs world knowledge the rule backend lacks
            sets.append(raw)
        return sets, 0, sum(len(k) for k in kinds)


def mark_mentions(chunk: Chunk, mentions: list[Mention]) -> str:
    """Wrap each mention span in the chunk text with double curly braces."""
    text = chunk.text
    for m in sorted(mentions, key=lambda m: m.norm_start, reverse=True):
        s = m.norm_start - chunk.norm_start
        e = m.norm_end - chunk.norm_start
        text = text[:s] + "{{" + text[s:e] + "}}" + text[e:]
    return text


def default_prompt_template(kind: str) -> str:
    name = "prompt_location.txt" if kind == LOCATION else "prompt_generic.txt"
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


def llm_extract(chunk: Chunk, mentions: list[Mention], kind: str, client: ChatClient):
    """One prompt per (chunk, kind); aligns echoed entities to mention order.

    Returns (assignments, dropped_count, total_lines) where assignments are
    (mention_index, value) pairs.
    """
    marked = mark_mentions(chunk, mentions)
    prompt = render_prompt(default_prompt_template(kind), marked, kind, [m.surface for m in mentions])
    response = client.complete(prompt)
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

    def __init__(self, client: ChatClient):
        self.client = client

    def annotate(self, chunk: Chunk, mentions: list[Mention], sentences, kinds):
        """One prompt per attribute kind, listing only the mentions it applies to."""
        sets = [AttributeSet() for _ in mentions]
        dropped_total = lines_total = 0
        for kind in ATTRIBUTE_KINDS:
            indices = [i for i, applicable in enumerate(kinds) if kind in applicable]
            if not indices:
                continue
            assignments, dropped, total = llm_extract(
                chunk, [mentions[i] for i in indices], kind, self.client
            )
            dropped_total += dropped
            lines_total += total
            for local_idx, value in assignments:
                if kind in _LIST_KINDS and isinstance(value, str):
                    value = [value]
                sets[indices[local_idx]].set(kind, value)
        return sets, dropped_total, lines_total


def apply_applicability(m: Mention, raw: AttributeSet, table: ApplicabilityTable) -> AttributeSet:
    """Force inapplicable kinds to NotApplicable; applicable-but-missing to Null."""
    applicable = table.applicable_attributes(m.semantic_type)
    out = AttributeSet()
    for kind in ATTRIBUTE_KINDS:
        value = raw.get(kind)
        if kind not in applicable:
            out.set(kind, NOT_APPLICABLE)
        else:
            out.set(kind, None if value is NOT_APPLICABLE else value)
    return out


def annotate_note(
    chunks: list[Chunk],
    mentions: list[Mention],
    sentences: list[tuple[str, int, int]],
    backend,
    table: ApplicabilityTable,
):
    """Call the backend once per chunk that has mentions, passing each
    mention's (sentence, start, end) and applicable kinds, and assemble
    AttributeSets.

    Returns (attribute_sets parallel to mentions, dropped_lines, total_lines).
    """
    raw_sets = [AttributeSet() for _ in mentions]
    kinds = [table.applicable_attributes(m.semantic_type) for m in mentions]
    dropped_total = 0
    lines_total = 0
    by_chunk: dict[int, list[int]] = {}
    for idx, m in enumerate(mentions):
        by_chunk.setdefault(m.chunk_index, []).append(idx)
    for chunk in chunks:
        indices = by_chunk.get(chunk.chunk_index)
        if not indices:
            continue
        sets, dropped, total = backend.annotate(
            chunk,
            [mentions[i] for i in indices],
            [sentences[i] for i in indices],
            [kinds[i] for i in indices],
        )
        dropped_total += dropped
        lines_total += total
        for i, raw in zip(indices, sets):
            raw_sets[i] = raw
    attribute_sets = [
        apply_applicability(m, raw, table) for m, raw in zip(mentions, raw_sets)
    ]
    return attribute_sets, dropped_total, lines_total
