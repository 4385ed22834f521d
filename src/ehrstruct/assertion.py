"""Assertion status classification via ordered trigger rules.

A ConText/NegEx-style rule engine assigns one of seven statuses to each
mention. Two post-rules run ahead of the triggers: section titles (capitalized
mention immediately followed by ':') and allergy-list scope (terms after an
'allergy'/'allergies' token become Conditional unless a no-known-allergies
pattern negates the whole block).

The trigger scan tries the rules in priority order. A rule's trigger is
first tested as a plain substring of the folded sentence, and only then
matched as a whole token with its pattern, compiled once per trigger
(`literal_pattern`). Unlike the anatomy scan of the rule attribute backend,
there is no leading-word candidate index here: for the 50 default triggers,
testing each as a substring costs less than looking candidates up did.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

from .preprocess import SECTION_HEADER, count_tokens
from .terminology import fold_case, literal_pattern


class AssertionStatus(enum.Enum):
    PRESENT = "Present"
    ABSENT = "Absent"
    POSSIBLE = "Possible"
    CONDITIONAL = "Conditional"
    HYPOTHETICAL = "Hypothetical"
    NOT_PATIENT = "Not_associated_with_the_patient"
    TITLE = "Title"

    @classmethod
    def from_name(cls, name: str) -> "AssertionStatus":
        for status in cls:
            if status.value.lower() == name.strip().lower():
                return status
        raise ValueError(f"unknown assertion status: {name!r}")


FORWARD = "forward"
BACKWARD = "backward"
BIDIRECTIONAL = "bidirectional"
_SCOPES = (FORWARD, BACKWARD, BIDIRECTIONAL)


@dataclass(frozen=True)
class TriggerRule:
    trigger: str
    scope: str
    window: int  # tokens
    status: AssertionStatus
    priority: int

    def __post_init__(self):
        if self.scope not in _SCOPES:
            raise ValueError(f"bad scope {self.scope!r}")
        if self.window < 1:
            raise ValueError("window must be >= 1")


class RuleFormatError(ValueError):
    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.lineno = lineno


_DEFAULT_RULE_SPECS = [
    # negation
    ("no evidence of", FORWARD, 8, AssertionStatus.ABSENT),
    ("no signs of", FORWARD, 8, AssertionStatus.ABSENT),
    ("no sign of", FORWARD, 8, AssertionStatus.ABSENT),
    ("negative for", FORWARD, 8, AssertionStatus.ABSENT),
    ("free of", FORWARD, 6, AssertionStatus.ABSENT),
    ("absence of", FORWARD, 6, AssertionStatus.ABSENT),
    ("denies", FORWARD, 8, AssertionStatus.ABSENT),
    ("denied", FORWARD, 8, AssertionStatus.ABSENT),
    ("without", FORWARD, 6, AssertionStatus.ABSENT),
    ("ruled out", BACKWARD, 6, AssertionStatus.ABSENT),
    ("resolved", BACKWARD, 4, AssertionStatus.ABSENT),
    ("no", FORWARD, 4, AssertionStatus.ABSENT),
    ("not", FORWARD, 4, AssertionStatus.ABSENT),
    ("never had", FORWARD, 6, AssertionStatus.ABSENT),
    ("unremarkable for", FORWARD, 6, AssertionStatus.ABSENT),
    # possibility
    ("concerning for", FORWARD, 8, AssertionStatus.POSSIBLE),
    ("suspicious for", FORWARD, 8, AssertionStatus.POSSIBLE),
    ("suggestive of", FORWARD, 8, AssertionStatus.POSSIBLE),
    ("consistent with", FORWARD, 8, AssertionStatus.POSSIBLE),
    ("question of", FORWARD, 6, AssertionStatus.POSSIBLE),
    ("questionable", FORWARD, 4, AssertionStatus.POSSIBLE),
    ("possible", FORWARD, 6, AssertionStatus.POSSIBLE),
    ("probable", FORWARD, 6, AssertionStatus.POSSIBLE),
    ("likely", FORWARD, 6, AssertionStatus.POSSIBLE),
    ("may have", FORWARD, 6, AssertionStatus.POSSIBLE),
    ("rule out", FORWARD, 6, AssertionStatus.POSSIBLE),
    ("r/o", FORWARD, 6, AssertionStatus.POSSIBLE),
    ("vs", BIDIRECTIONAL, 3, AssertionStatus.POSSIBLE),
    ("versus", BIDIRECTIONAL, 3, AssertionStatus.POSSIBLE),
    ("cannot exclude", FORWARD, 6, AssertionStatus.POSSIBLE),
    ("differential includes", FORWARD, 10, AssertionStatus.POSSIBLE),
    # hypothetical
    ("if you experience", FORWARD, 10, AssertionStatus.HYPOTHETICAL),
    ("if you develop", FORWARD, 10, AssertionStatus.HYPOTHETICAL),
    ("return if", FORWARD, 10, AssertionStatus.HYPOTHETICAL),
    ("should you develop", FORWARD, 10, AssertionStatus.HYPOTHETICAL),
    ("watch for", FORWARD, 8, AssertionStatus.HYPOTHETICAL),
    ("risk of", FORWARD, 6, AssertionStatus.HYPOTHETICAL),
    ("risk for", FORWARD, 6, AssertionStatus.HYPOTHETICAL),
    # conditional
    ("as needed for", FORWARD, 6, AssertionStatus.CONDITIONAL),
    ("prn for", FORWARD, 6, AssertionStatus.CONDITIONAL),
    ("with exertion", BACKWARD, 6, AssertionStatus.CONDITIONAL),
    # experiencer
    ("family history of", FORWARD, 8, AssertionStatus.NOT_PATIENT),
    ("family history", BIDIRECTIONAL, 8, AssertionStatus.NOT_PATIENT),
    ("mother has", FORWARD, 8, AssertionStatus.NOT_PATIENT),
    ("father has", FORWARD, 8, AssertionStatus.NOT_PATIENT),
    ("mother died of", FORWARD, 8, AssertionStatus.NOT_PATIENT),
    ("father died of", FORWARD, 8, AssertionStatus.NOT_PATIENT),
    ("brother", BIDIRECTIONAL, 6, AssertionStatus.NOT_PATIENT),
    ("sister", BIDIRECTIONAL, 6, AssertionStatus.NOT_PATIENT),
]


def default_rules() -> list[TriggerRule]:
    return [
        TriggerRule(trigger, scope, window, status, priority=(i + 1) * 10)
        for i, (trigger, scope, window, status) in enumerate(_DEFAULT_RULE_SPECS)
    ]


def load_rules(path=None) -> list[TriggerRule]:
    """Load trigger rules from TSV (trigger, scope, window, status, priority);
    None selects the built-in default set. Lower priority number wins."""
    if path is None:
        return default_rules()
    path = Path(path)
    rules: list[TriggerRule] = []
    priorities: set[int] = set()
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 5:
                raise RuleFormatError(path, lineno, f"expected 5 fields, got {len(fields)}")
            trigger, scope, window_s, status_s, priority_s = (f.strip() for f in fields)
            try:
                status = AssertionStatus.from_name(status_s)
            except ValueError as exc:
                raise RuleFormatError(path, lineno, str(exc)) from exc
            try:
                window = int(window_s)
                priority = int(priority_s)
            except ValueError as exc:
                raise RuleFormatError(path, lineno, "window and priority must be integers") from exc
            if priority in priorities:
                raise RuleFormatError(path, lineno, f"duplicate priority {priority}")
            priorities.add(priority)
            try:
                rules.append(TriggerRule(trigger.lower(), scope, window, status, priority))
            except ValueError as exc:
                raise RuleFormatError(path, lineno, str(exc)) from exc
    return sorted(rules, key=lambda r: r.priority)


_ALLERGY_TOKEN = re.compile(r"\ballerg(?:y|ies)\b", re.IGNORECASE)
_NKA_PATTERN = re.compile(r"no known (?:drug )?allergies|nkda|nka\b", re.IGNORECASE)


def _allergy_scope(paragraph: str, mention_start: int) -> str | None:
    """Return the allergy-scope text containing the mention, if any.

    Scope opens after an allergy token and closes at the next blank line or
    section header (other than the allergy header itself).
    """
    # Under IGNORECASE only the ASCII cases match a letter of "allerg", so a
    # paragraph whose lowercase lacks "allerg" holds no allergy token.
    if "allerg" not in paragraph.lower():
        return None
    best_open = None
    for m in _ALLERGY_TOKEN.finditer(paragraph, 0, mention_start):
        best_open = m
    if best_open is None:
        return None
    between = paragraph[best_open.end() : mention_start]
    if "\n\n" in between:
        return None
    for header in SECTION_HEADER.finditer(between):
        if not _ALLERGY_TOKEN.search(header.group(0)):
            return None
    scope_end = len(paragraph)
    blank = paragraph.find("\n\n", mention_start)
    if blank != -1:
        scope_end = blank
    for header in SECTION_HEADER.finditer(paragraph, mention_start):
        if not _ALLERGY_TOKEN.search(header.group(0)):
            scope_end = min(scope_end, header.start())
            break
    return paragraph[best_open.start() : scope_end]


def _trigger_covers(sentence: str, trigger_m: re.Match, start: int, end: int, rule: TriggerRule) -> bool:
    """Token distance between the trigger and the mention within the scope."""
    if rule.scope in (FORWARD, BIDIRECTIONAL) and start >= trigger_m.end():
        gap = count_tokens(sentence[trigger_m.end() : start])
        if gap <= rule.window:
            return True
    if rule.scope in (BACKWARD, BIDIRECTIONAL) and end <= trigger_m.start():
        gap = count_tokens(sentence[end : trigger_m.start()])
        if gap <= rule.window:
            return True
    return False


_COLON_AFTER = re.compile(" *:")


def classify(
    sentence: str,
    start: int,
    end: int,
    rules: list[TriggerRule],
    paragraph: str | None = None,
    paragraph_start: int | None = None,
) -> AssertionStatus:
    """Classify the mention at sentence[start:end].

    Order: Title rule, allergy rule, first matching trigger, default Present.
    rules must be in ascending priority order, as load_rules and
    default_rules return them, so the first match is the highest-priority
    one. paragraph (with paragraph_start = mention offset within it)
    supplies block context for the allergy rule; it defaults to the sentence
    itself.
    """
    if not (0 <= start < end <= len(sentence)):
        raise ValueError("mention span not inside sentence")

    # Title: capitalized mention immediately followed by ':' (ignoring spaces)
    if _COLON_AFTER.match(sentence, end) and any(ch.isupper() for ch in sentence[start:end]):
        return AssertionStatus.TITLE

    if paragraph is None:
        paragraph = sentence
        paragraph_start = start
    scope = _allergy_scope(paragraph, paragraph_start)
    if scope is not None:
        if _NKA_PATTERN.search(scope):
            return AssertionStatus.ABSENT
        return AssertionStatus.CONDITIONAL

    lowered = fold_case(sentence)
    for rule in rules:
        # The pattern is the escaped literal between lookarounds, so it can
        # only match where the literal is a substring.
        if rule.trigger not in lowered:
            continue
        for m in literal_pattern(rule.trigger).finditer(lowered):
            if m.start() >= start and m.end() <= end:
                continue  # trigger inside the mention itself
            if _trigger_covers(sentence, m, start, end, rule):
                return rule.status
    return AssertionStatus.PRESENT


def mention_contexts(note_text: str, segmentation, mentions) -> list[tuple[str, int, int, str, int]]:
    """Sentence and paragraph context of each mention, from the note's
    segmentation (`preprocess.segment`, which keeps every mention inside one
    sentence).

    Returns one (sentence, start, end, paragraph, paragraph_start) per
    mention: the sentence holding it, its span within that sentence, the
    paragraph holding the sentence and the mention's offset within it.
    """
    starts = [sent.start for sent in segmentation]
    paragraphs: dict[int, str] = {}  # one slice per paragraph, shared by its mentions
    contexts = []
    for m in mentions:
        sent = segmentation[bisect_right(starts, m.norm_start) - 1]
        if sent.par_start not in paragraphs:
            paragraphs[sent.par_start] = note_text[sent.par_start : sent.par_end]
        s, e, p = m.norm_start - sent.start, m.norm_end - sent.start, m.norm_start - sent.par_start
        contexts.append((note_text[sent.start : sent.end], s, e, paragraphs[sent.par_start], p))
    return contexts
