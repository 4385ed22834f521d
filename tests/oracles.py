"""Reference implementations that tests compare the pipeline against."""

import re

from ehrstruct.assertion import _ALLERGY_TOKEN, _NKA_PATTERN, AssertionStatus
from ehrstruct.attributes import _UNIT_TOKEN, _VALUE_PATTERN, DIRECTION_WORDS
from ehrstruct.preprocess import _SENT_SPLIT, SECTION_HEADER, count_tokens
from ehrstruct.terminology import LiteralIndex, fold_case, literal_pattern


def word_start(text: str, i: int) -> bool:
    """True when position i does not fall inside an alphanumeric run."""
    if i <= 0:
        return True
    if i >= len(text):
        return True
    return not (text[i - 1].isalnum() and text[i].isalnum())


def brute_force_recognize(text: str, surfaces: list[str]) -> list[tuple[int, int]]:
    """Independent longest-match scanner used as the matching oracle.

    At each word-boundary position tries every surface by string comparison
    and keeps the longest that ends at a word boundary, then resumes after it.
    """
    spans: list[tuple[int, int]] = []
    i = 0
    n = len(text)
    while i < n:
        if not text[i].isalnum() or not word_start(text, i):
            i += 1
            continue
        best = 0
        for s in surfaces:
            if len(s) > best and text[i : i + len(s)].lower() == s and word_start(text, i + len(s)):
                best = len(s)
        if best:
            spans.append((i, i + best))
            i += best
        else:
            while i < n and text[i].isalnum():
                i += 1
    return spans


def reference_split_paragraphs(text: str) -> list[str]:
    """The paragraphs of `preprocess.segment` as a loop over characters: cut
    after a run of two or more newlines, or a newline that ends the text."""
    if not text:
        return []
    paragraphs = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        if text[i] == "\n":
            j = i + 1
            while j < n and text[j] == "\n":
                j += 1
            if j > i + 1 or j == n:
                paragraphs.append(text[start:j])
                start = j
                i = j
                continue
        i += 1
    if start < n:
        paragraphs.append(text[start:])
    return paragraphs


def reference_split_sentences(text: str) -> list[str]:
    """The sentences of one paragraph of `preprocess.segment` as a character
    walk: cut after each terminal-punctuation match, then after every '\\n'
    inside each piece."""
    if not text:
        return []
    cuts = [0]
    for m in _SENT_SPLIT.finditer(text):
        cuts.append(m.end())
    pieces: list[str] = []
    for start, end in zip(cuts, cuts[1:] + [len(text)]):
        piece = text[start:end]
        sub_start = 0
        for i, ch in enumerate(piece):
            if ch == "\n":
                pieces.append(piece[sub_start : i + 1])
                sub_start = i + 1
        if sub_start < len(piece):
            pieces.append(piece[sub_start:])
    return [p for p in pieces if p]


# The rule path's per-mention scans as they were before the per-sentence
# scans replaced them: each rescans (and slices) the sentence or paragraph.


def reference_word_before(sentence: str, pos: int) -> str | None:
    before = sentence[:pos]
    left = before.rstrip()
    if len(before) - len(left) > 2:
        return None  # not adjacent
    m = re.search(r"([A-Za-z]+)$", left)
    return m.group(1) if m else None


def reference_word_after(sentence: str, pos: int) -> str | None:
    right = sentence[pos:]
    stripped = right.lstrip()
    if len(right) - len(stripped) > 2:
        return None
    m = re.match(r"([A-Za-z]+)", stripped)
    return m.group(1) if m else None


def reference_value_unit(sentence: str, start: int, end: int, units) -> tuple:
    m = _VALUE_PATTERN.search(sentence, end)
    if m is None:
        return None, None
    value = (m.group(1) or "") + m.group(2)
    unit = None
    um = _UNIT_TOKEN.match(sentence, m.end())
    if um and um.group(1).lower() in units:
        unit = um.group(1)
    return value, unit


def reference_locations(sentence: str, start: int, end: int, anatomy: LiteralIndex) -> list[str]:
    lowered = fold_case(sentence)
    found: list[tuple[int, str]] = []  # (distance, display)
    for pattern, display in anatomy.candidates(lowered):
        for m in pattern.finditer(lowered):
            if m.start() < end and m.end() > start:
                continue  # overlaps the mention itself
            distance = m.start() - end if m.start() >= end else start - m.end()
            rendered = display
            direction = reference_word_before(sentence, m.start())
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


def reference_modifiers(sentence: str, start: int, end: int, words) -> list[str]:
    out: list[str] = []
    before = reference_word_before(sentence, start)
    if before and before.lower() in words:
        out.append(before)
    after = reference_word_after(sentence, end)
    if after and after.lower() in words:
        out.append(after)
    return out


def reference_allergy_scope(paragraph: str, mention_start: int) -> tuple[re.Match, int] | None:
    """The opening token of the allergy scope holding the mention, and the
    scope's end, rescanning the paragraph."""
    if "allerg" not in paragraph.lower():
        return None
    best_open = None
    for m in _ALLERGY_TOKEN.finditer(paragraph, 0, mention_start):
        best_open = m
    if best_open is None:
        return None
    if "\n\n" in paragraph[best_open.end() : mention_start]:
        return None
    # not in the slice: there "^" would match at the slice start, mid-line
    for header in SECTION_HEADER.finditer(paragraph, best_open.end(), mention_start):
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
    return best_open, scope_end


def reference_allergy_status(paragraph: str, mention_start: int) -> AssertionStatus | None:
    """Absent when a no-known-allergies phrase lies in the scope or holds
    its opening token, else Conditional; None outside a scope."""
    scope = reference_allergy_scope(paragraph, mention_start)
    if scope is None:
        return None
    opening, scope_end = scope
    holds = any(m.start() <= opening.start() and opening.end() <= m.end() for m in _NKA_PATTERN.finditer(paragraph))
    if holds or _NKA_PATTERN.search(paragraph[opening.start() : scope_end]):
        return AssertionStatus.ABSENT
    return AssertionStatus.CONDITIONAL


def reference_trigger_covers(sentence: str, trigger_m, start: int, end: int, rule) -> bool:
    """Token distance between the trigger and the mention within the scope."""
    if rule.scope in ("forward", "bidirectional") and start >= trigger_m.end():
        if count_tokens(sentence[trigger_m.end() : start]) <= rule.window:
            return True
    if rule.scope in ("backward", "bidirectional") and end <= trigger_m.start():
        if count_tokens(sentence[end : trigger_m.start()]) <= rule.window:
            return True
    return False


def reference_classify(sentence, start, end, rules, paragraph=None, paragraph_start=None):
    if not (0 <= start < end <= len(sentence)):
        raise ValueError("mention span not inside sentence")
    if re.compile(" *:").match(sentence, end) and any(ch.isupper() for ch in sentence[start:end]):
        return AssertionStatus.TITLE
    if paragraph is None:
        paragraph = sentence
        paragraph_start = start
    status = reference_allergy_status(paragraph, paragraph_start)
    if status is not None:
        return status
    lowered = fold_case(sentence)
    for rule in rules:
        if rule.trigger not in lowered:
            continue
        for m in literal_pattern(rule.trigger).finditer(lowered):
            if m.start() >= start and m.end() <= end:
                continue  # trigger inside the mention itself
            if reference_trigger_covers(sentence, m, start, end, rule):
                return rule.status
    return AssertionStatus.PRESENT
