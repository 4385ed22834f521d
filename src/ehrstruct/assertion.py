"""Assertion status classification via ordered trigger rules.

A ConText/NegEx-style rule engine assigns one of seven statuses to each
mention. Two post-rules run ahead of the triggers: section titles (capitalized
mention immediately followed by ':') and allergy-list scope (terms after an
'allergy'/'allergies' token become Conditional unless a no-known-allergies
pattern negates the whole block).

`classify_mentions` classifies the mentions of a note from their contexts
(`mention_contexts`). It scans each sentence once for its trigger matches
(`SentenceTriggers`) and each paragraph once for its allergy scopes
(`AllergyScopes`), and each mention looks its status up in those tables by
bisection; `classify` does the same for a single mention. The rules are
keyed by the leading ASCII run of their trigger (`terminology.LiteralIndex`,
built by `load_triggers`), so a sentence runs the patterns, compiled once
per trigger, of only the rules its words can start.
"""

from __future__ import annotations

import enum
import functools
import re
import string
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .preprocess import SECTION_HEADER, TOKEN
from .terminology import InputFormatError, LiteralIndex, fold_case, read_lines


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
    leaves the mention out of scope. An allergy header holds an allergy token
    (`ALLERGIES:`, `DRUG ALLERGIES AND INTOLERANCES:`), so only a header whose
    line starts after the token can close its scope. The paragraph's tokens,
    blank lines, non-allergy headers and no-known-allergies phrases are each
    found once, and a mention looks them up by bisection. A header is also
    known by the last line start before its first letter (`header_lines`): a
    scan for headers that begins at or before that line start meets the
    header.
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
        self.nka = [m.span() for m in _NKA_PATTERN.finditer(paragraph)]

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
        open_start, open_end = opening
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
        k = bisect_left(self.nka, (open_start,))
        if k < len(self.nka) and self.nka[k][1] <= scope_end:
            return AssertionStatus.ABSENT
        return AssertionStatus.CONDITIONAL


_TOKEN_CHARS = frozenset(string.ascii_letters + string.digits)


@functools.cache
def _default_triggers() -> LiteralIndex:
    return LiteralIndex((rule.trigger, rule) for rule in default_rules())


def load_triggers(path=None) -> LiteralIndex:
    """The rules of load_rules(path), in priority order, indexed by trigger;
    None selects the built-in default set, which is indexed once per process
    and shared: an index is never changed."""
    if path is None:
        return _default_triggers()
    return LiteralIndex((rule.trigger, rule) for rule in load_rules(path))


class SentenceTriggers:
    """The trigger matches of one sentence, found once for all its mentions.

    For each rule with a match, in priority order, it keeps the match starts
    and ends, ascending. A rule covers a mention when, in its scope, its
    nearest match before the mention (forward) or after it (backward) lies
    within the rule's window of tokens; a match inside the mention does not
    count. A gap's token count (`preprocess.count_tokens` of the gap) comes
    from the sentence's token starts, found once, and only when the gap is
    longer than the window.
    """

    def __init__(self, sentence: str, triggers: LiteralIndex):
        self.sentence = sentence
        lowered = fold_case(sentence)
        self.matches = []  # (rule, starts, ends)
        for pattern, rule in triggers.candidates(lowered):
            spans = [m.span() for m in pattern.finditer(lowered)]
            if spans:
                self.matches.append((rule, [a for a, _ in spans], [b for _, b in spans]))
        self._token_starts = None

    def _tokens(self, a: int, b: int) -> int:
        """count_tokens(sentence[a:b])"""
        if a >= b:
            return 0
        if self._token_starts is None:
            self._token_starts = [m.start() for m in TOKEN.finditer(self.sentence)]
        sentence = self.sentence
        count = bisect_left(self._token_starts, b) - bisect_left(self._token_starts, a)
        # a word run that the cut at a splits starts a token there
        return count + (a > 0 and sentence[a - 1] in _TOKEN_CHARS and sentence[a] in _TOKEN_CHARS)

    def status(self, start: int, end: int) -> AssertionStatus | None:
        """The status of the first rule covering sentence[start:end], or None."""
        for rule, starts, ends in self.matches:
            if rule.scope != BACKWARD:
                k = bisect_right(ends, start) - 1
                if k >= 0 and starts[k] >= start and ends[k] <= end:
                    k -= 1  # an empty match at the mention start is inside it
                # a gap of n characters holds at most n tokens
                if k >= 0 and (start - ends[k] <= rule.window or self._tokens(ends[k], start) <= rule.window):
                    return rule.status
            if rule.scope != FORWARD:
                k = bisect_left(starts, end)
                if k < len(starts) and starts[k] >= start and ends[k] <= end:
                    k += 1  # an empty match at the mention end is inside it
                if k < len(starts) and (
                    starts[k] - end <= rule.window or self._tokens(end, starts[k]) <= rule.window
                ):
                    return rule.status
        return None


_COLON_AFTER = re.compile(" *:")


def classify_mentions(contexts, triggers: LiteralIndex) -> list[AssertionStatus]:
    """Classify each mention of (sentence, start, end, paragraph,
    paragraph_start) contexts, as `mention_contexts` returns them.

    Order: Title rule, allergy rule, first matching trigger, default Present.
    triggers holds the rules in the order they are tried, as `load_triggers`
    indexes them. Consecutive mentions of one sentence share its trigger
    matches, and of one paragraph its allergy scopes.
    """
    statuses = []
    sentence = paragraph = sentence_triggers = scopes = None
    for sent, start, end, par, par_start in contexts:
        if not (0 <= start < end <= len(sent)):
            raise ValueError("mention span not inside sentence")
        # Title: capitalized mention immediately followed by ':' (ignoring spaces)
        if _COLON_AFTER.match(sent, end) and any(ch.isupper() for ch in sent[start:end]):
            statuses.append(AssertionStatus.TITLE)
            continue
        if par is not paragraph:
            paragraph, scopes = par, AllergyScopes(par)
        status = scopes.status(par_start)
        if status is None:
            if sent is not sentence:
                sentence, sentence_triggers = sent, SentenceTriggers(sent, triggers)
            status = sentence_triggers.status(start, end) or AssertionStatus.PRESENT
        statuses.append(status)
    return statuses


def classify(
    sentence: str,
    start: int,
    end: int,
    triggers: LiteralIndex,
    paragraph: str | None = None,
    paragraph_start: int | None = None,
) -> AssertionStatus:
    """Classify the mention at sentence[start:end] (see classify_mentions).

    paragraph (with paragraph_start = mention offset within it) supplies
    block context for the allergy rule; it defaults to the sentence itself.
    """
    if paragraph is None:
        paragraph = sentence
        paragraph_start = start
    return classify_mentions([(sentence, start, end, paragraph, paragraph_start)], triggers)[0]


def mention_contexts(note_text: str, segmentation, mentions) -> list[tuple[str, int, int, str, int]]:
    """Sentence and paragraph context of each mention, from the note's
    segmentation (`preprocess.segment`, which keeps every mention inside one
    sentence).

    Returns one (sentence, start, end, paragraph, paragraph_start) per
    mention: the sentence holding it, its span within that sentence, the
    paragraph holding the sentence and the mention's offset within it.
    """
    starts = [sent.start for sent in segmentation]
    contexts = []
    # one slice per sentence and per paragraph, shared by their consecutive
    # mentions
    sent = sentence = paragraph = None
    for m in mentions:
        if sent is None or not sent.start <= m.norm_start < sent.end:
            sent = segmentation[bisect_right(starts, m.norm_start) - 1]
            if paragraph is None or paragraph_start != sent.par_start:
                paragraph_start, paragraph = sent.par_start, note_text[sent.par_start : sent.par_end]
            sentence = note_text[sent.start : sent.end]
        s, e, p = m.norm_start - sent.start, m.norm_end - sent.start, m.norm_start - sent.par_start
        contexts.append((sentence, s, e, paragraph, p))
    return contexts
