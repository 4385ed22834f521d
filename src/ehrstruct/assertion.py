"""Assertion status classification via ordered trigger rules.

A ConText/NegEx-style rule engine assigns one of seven statuses to each
mention. Two post-rules run ahead of the triggers: section titles (capitalized
mention immediately followed by ':') and allergy-list scope (terms after an
'allergy'/'allergies' token become Conditional unless a no-known-allergies
pattern negates the whole block).

`classify_mentions` classifies each mention in its sentence, a span of the
note (`mention_sentences`). It scans each sentence once, in place in the
note's one case fold, for its trigger matches (`SentenceTriggers`) and each
paragraph once for its allergy scopes (`AllergyScopes`); each mention looks
its status up in those tables by bisection. The rules are keyed by the leading
ASCII run of their trigger (`terminology.LiteralIndex`, built by
`load_triggers`), so a sentence runs the patterns, compiled once per trigger,
of only the rules its words can start.

The trigger rules are read from a rules file (`load_rules`). The default
set is the packaged `data/assertion_rules.tsv`, in the format a user's file
takes, so the defaults and a user's rules go through one parser and one set
of checks.
"""

from __future__ import annotations

import enum
import functools
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice

from .preprocess import SECTION_HEADER, TOKEN, NormalizedNote, Sentence
from .terminology import InputFormatError, LiteralIndex, data_path, read_lines


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
        if not self.trigger.strip():
            raise ValueError("empty trigger")
        if self.scope not in _SCOPES:
            raise ValueError(f"bad scope {self.scope!r}")
        if self.window < 1:
            raise ValueError("window must be >= 1")


def load_rules(path) -> list[TriggerRule]:
    """Load trigger rules from TSV (trigger, scope, window, status, priority;
    `read_lines`: blank and '#' lines are skipped). Lower priority number
    wins."""
    rules: list[TriggerRule] = []
    priorities: set[int] = set()
    for lineno, line in read_lines(path):
        fields = line.split("\t")
        try:
            if len(fields) != 5:
                raise ValueError(f"expected 5 fields, got {len(fields)}")
            trigger, scope, window_s, status_s, priority_s = (f.strip() for f in fields)
            status = AssertionStatus.from_name(status_s)
            window, priority = int(window_s), int(priority_s)
            if priority in priorities:
                raise ValueError(f"duplicate priority {priority}")
            priorities.add(priority)
            rules.append(TriggerRule(trigger.lower(), scope, window, status, priority))
        except ValueError as exc:
            raise InputFormatError(path, lineno, str(exc)) from exc
    return sorted(rules, key=lambda r: r.priority)


_ALLERGY_TOKEN = re.compile(r"\ballerg(?:y|ies)\b", re.IGNORECASE)
_NKA_PATTERN = re.compile(r"no known (?:drug )?allergies|nkda|nka\b", re.IGNORECASE)
_BLANK = re.compile(r"(?=\n\n)")


class AllergyScopes:
    """The allergy scopes of one paragraph, found once for all its mentions.

    A mention's scope opens at the last allergy token before it and closes at
    the next blank line or at the next section header that is not an allergy
    header; a blank line or such a header between the token and the mention
    leaves the mention out of scope. The scope says no known allergies when a
    no-known-allergies phrase lies in it or holds its opening token, as "No
    known allergies" holds "allergies". An allergy header holds an allergy
    token (`ALLERGIES:`, `DRUG ALLERGIES AND INTOLERANCES:`), so only a header
    whose line starts after the token can close its scope. The paragraph's
    tokens, blank lines, non-allergy headers and no-known-allergies phrases
    are each found once, and a mention looks them up by bisection. A header
    is also known by the last line start before its first letter
    (`header_lines`): a scan for headers that begins at or before that line
    start meets the header.
    """

    def __init__(self, paragraph: str):
        self.paragraph = paragraph
        # Under IGNORECASE only the ASCII cases match a letter of "allerg",
        # so a paragraph whose lowercase lacks "allerg" holds no allergy token.
        self.tokens = None
        if "allerg" not in paragraph.lower():
            return
        self.tokens = [m.span() for m in _ALLERGY_TOKEN.finditer(paragraph)]
        self.token_ends = [end for _, end in self.tokens]
        self.blanks = [m.start() for m in _BLANK.finditer(paragraph)]
        self.header_lines, self.header_starts, self.header_ends = [], [], []
        for header in SECTION_HEADER.finditer(paragraph):
            if _ALLERGY_TOKEN.search(header.group()):
                continue
            first_letter = header.end() - len(header.group().lstrip())
            newline = paragraph.rfind("\n", header.start(), first_letter)
            self.header_lines.append(header.start() if newline == -1 else newline + 1)
            self.header_starts.append(header.start())
            self.header_ends.append(header.end())
        self.nka_ends = [m.end() for m in _NKA_PATTERN.finditer(paragraph)]

    def _opening(self, pos: int) -> tuple[int, int] | None:
        """The last allergy token in paragraph[:pos], read as if the
        paragraph ended at pos."""
        k = bisect_right(self.token_ends, pos) - 1
        if pos < len(self.paragraph) and (k < 0 or self.token_ends[k] != pos):
            # a token cut off at pos, in the middle of a word
            for length in (7, 9):
                if pos >= length and (m := _ALLERGY_TOKEN.match(self.paragraph, pos - length, pos)):
                    if m.end() == pos:
                        return m.span()
        return self.tokens[k] if k >= 0 else None

    def status(self, pos: int) -> AssertionStatus | None:
        """Absent or Conditional for a mention at pos inside an allergy scope
        (Absent when the scope says no known allergies); None outside one."""
        if self.tokens is None or (opening := self._opening(pos)) is None:
            return None
        open_end = opening[1]
        i = bisect_left(self.blanks, open_end)
        if i < len(self.blanks) and self.blanks[i] + 2 <= pos:
            return None  # a blank line between the token and the mention
        j = bisect_right(self.header_lines, open_end)
        if j < len(self.header_ends) and self.header_ends[j] <= pos:
            return None  # another section header between
        scope_end = len(self.paragraph)
        i = bisect_left(self.blanks, pos)
        if i < len(self.blanks):
            scope_end = self.blanks[i]
        j = bisect_left(self.header_lines, pos)
        if j < len(self.header_starts):
            # A header that starts before pos, in whitespace lines, ends the
            # scope at its own start: that moves the end over whitespace
            # only, which no no-known-allergies phrase can end in.
            scope_end = min(scope_end, self.header_starts[j])
        # a phrase that ends at or after the opening token's end lies in the
        # scope or, as "no known allergies" does, holds that token
        k = bisect_left(self.nka_ends, open_end)
        if k < len(self.nka_ends) and self.nka_ends[k] <= scope_end:
            return AssertionStatus.ABSENT
        return AssertionStatus.CONDITIONAL


@functools.cache
def _default_triggers() -> LiteralIndex:
    return load_triggers(data_path("assertion_rules.tsv"))


def load_triggers(path=None) -> LiteralIndex:
    """The rules of load_rules(path), in priority order, indexed by trigger;
    None selects the packaged rules file, which is parsed and indexed once
    per process and shared: an index is never changed."""
    if path is None:
        return _default_triggers()
    return LiteralIndex((rule.trigger, rule) for rule in load_rules(path))


class SentenceTriggers:
    """The trigger matches of one sentence, found once for all its mentions.

    For each rule with a match, in priority order, it keeps the match starts
    and ends in the note, ascending. A rule covers a mention when, in its
    scope, its nearest match before the mention (forward) or after it
    (backward) lies within the rule's window of tokens; a match inside the
    mention does not count. A gap is within the window when a search for
    tokens between its ends (`preprocess.TOKEN`, as `count_tokens` counts
    them) finds no more than window of them; it stops at the one past the
    window. A sentence starts at the note's start or right after whitespace,
    so a pattern's lookbehind, searching the note's fold from there, sees what
    it would at the start of the sentence alone.
    """

    def __init__(self, note: NormalizedNote, sentence: Sentence, triggers: LiteralIndex):
        self.text = note.text
        folded, start, end = note.folded, sentence.start, sentence.end
        self.matches = []  # (rule, starts, ends)
        for pattern, rule in triggers.candidates(folded[start:end]):
            spans = [m.span() for m in pattern.finditer(folded, start, end)]
            if spans:
                self.matches.append((rule, [a for a, _ in spans], [b for _, b in spans]))

    def _within(self, a: int, b: int, window: int) -> bool:
        """count_tokens(text[a:b]) <= window"""
        return next(islice(TOKEN.finditer(self.text, a, b), window, None), None) is None

    def status(self, start: int, end: int) -> AssertionStatus | None:
        """The status of the first rule covering the mention text[start:end], or None."""
        for rule, starts, ends in self.matches:
            if rule.scope != BACKWARD:
                k = bisect_right(ends, start) - 1
                if k >= 0 and self._within(ends[k], start, rule.window):
                    return rule.status
            if rule.scope != FORWARD:
                k = bisect_left(starts, end)
                if k < len(starts) and self._within(end, starts[k], rule.window):
                    return rule.status
        return None


_COLON_AFTER = re.compile(" *:")


def classify_mentions(note, mentions, sentences, triggers: LiteralIndex) -> list[AssertionStatus]:
    """Classify each mention of the normalized note in its sentence, as
    `mention_sentences` finds them.

    Order: Title rule, allergy rule, first matching trigger, default Present.
    triggers holds the rules in the order they are tried, as `load_triggers`
    indexes them. Consecutive mentions of one sentence share its trigger
    matches, and of one paragraph its allergy scopes.
    """
    text = note.text
    statuses = []
    sentence = paragraph_start = sentence_triggers = scopes = None
    for m, sent in zip(mentions, sentences):
        start, end = m.norm_start, m.norm_end
        if not (sent.start <= start < end <= sent.end):
            raise ValueError("mention span not inside sentence")
        # Title: capitalized mention immediately followed by ':' (ignoring spaces)
        if _COLON_AFTER.match(text, end, sent.end) and any(ch.isupper() for ch in text[start:end]):
            statuses.append(AssertionStatus.TITLE)
            continue
        if sent.par_start != paragraph_start:
            paragraph_start, scopes = sent.par_start, AllergyScopes(text[sent.par_start : sent.par_end])
        status = scopes.status(start - paragraph_start)
        if status is None:
            if sent != sentence:
                sentence, sentence_triggers = sent, SentenceTriggers(note, sent, triggers)
            status = sentence_triggers.status(start, end) or AssertionStatus.PRESENT
        statuses.append(status)
    return statuses


def mention_sentences(segmentation: list[Sentence], mentions) -> list[Sentence]:
    """The sentence of each mention, by bisection of the note's segmentation
    (`preprocess.segment`, which keeps every mention inside one sentence)."""
    starts = [sent.start for sent in segmentation]
    return [segmentation[bisect_right(starts, m.norm_start) - 1] for m in mentions]
