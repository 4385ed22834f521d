"""The trigger scan of `classify` and the anatomy scan of
`rule_extract_locations` against the unfiltered scans they replaced: every
trigger rule and every anatomy surface, each pattern compiled per call."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrstruct.assertion import (
    AssertionStatus,
    _allergy_scope,
    _NKA_PATTERN,
    _trigger_covers,
    classify,
    default_rules,
    load_rules,
)
from ehrstruct.attributes import (
    DIRECTION_WORDS,
    _word_before,
    load_anatomy_lexicon,
    rule_extract_locations,
)
from ehrstruct.terminology import fold_case

RULES = default_rules()
# The shipped lexicon plus a surface that nests another one ("chest").
ANATOMY = {**load_anatomy_lexicon(), "chest wall": "chest wall"}


def reference_classify(sentence, start, end, rules):
    """classify with the sentence as its own paragraph, trying every rule."""
    if not (0 <= start < end <= len(sentence)):
        raise ValueError("mention span not inside sentence")
    if any(ch.isupper() for ch in sentence[start:end]):
        if sentence[end:].lstrip(" ").startswith(":"):
            return AssertionStatus.TITLE
    scope = _allergy_scope(sentence, start)
    if scope is not None:
        return AssertionStatus.ABSENT if _NKA_PATTERN.search(scope) else AssertionStatus.CONDITIONAL
    lowered = fold_case(sentence)
    for rule in sorted(rules, key=lambda r: r.priority):
        pattern = re.compile(r"(?<![A-Za-z0-9])" + re.escape(rule.trigger) + r"(?![A-Za-z0-9])")
        for m in pattern.finditer(lowered):
            if m.start() >= start and m.end() <= end:
                continue
            if _trigger_covers(sentence, m, start, end, rule):
                return rule.status
    return AssertionStatus.PRESENT


def reference_locations(sentence, start, end, anatomy):
    """rule_extract_locations, running every surface's pattern."""
    lowered = fold_case(sentence)
    found = []
    for surface, display in anatomy.items():
        for m in re.finditer(r"(?<![A-Za-z0-9])" + re.escape(surface) + r"(?![A-Za-z0-9])", lowered):
            if m.start() < end and m.end() > start:
                continue
            distance = m.start() - end if m.start() >= end else start - m.end()
            rendered = display
            direction = _word_before(sentence, m.start())
            if direction and direction.lower() in DIRECTION_WORDS:
                rendered = f"{direction.lower()} {display}"
            found.append((distance, rendered))
    found.sort(key=lambda t: t[0])
    out = []
    for _, rendered in found:
        if rendered not in out:
            out.append(rendered)
        if len(out) == 2:
            break
    return out


_PIECES = sorted(
    {r.trigger for r in RULES}
    | set(ANATOMY)
    | DIRECTION_WORDS
    | {"pain", "mass", "fever", "of", "the", "and", "vs.", "r/o", "x", "2", "İ", "İnce", "é", "café"}
    | set(",.;:/()-")
)
_CASES = (str, str, str.upper, str.capitalize)
_SEPARATORS = (" ", " ", " ", "", "  ", ", ", "-", ". ", "/")


@st.composite
def sentences_with_spans(draw, pieces=_PIECES):
    words = draw(
        st.lists(
            st.tuples(st.sampled_from(pieces), st.sampled_from(_CASES), st.sampled_from(_SEPARATORS)),
            min_size=1,
            max_size=20,
        )
    )
    spans = []
    sentence = ""
    for piece, case, sep in words:
        spans.append((len(sentence), len(sentence) + len(piece)))
        sentence += case(piece) + sep
    if draw(st.booleans()):
        start, end = draw(st.sampled_from(spans))  # a mention that is one piece
    else:
        start = draw(st.integers(0, len(sentence) - 1))
        end = draw(st.integers(start + 1, len(sentence)))
    return sentence, start, end


@given(sentences_with_spans())
@settings(max_examples=400, deadline=None)
def test_classify_matches_unfiltered_trigger_scan(case):
    sentence, start, end = case
    assert classify(sentence, start, end, RULES) == reference_classify(sentence, start, end, RULES)


@given(sentences_with_spans())
@settings(max_examples=400, deadline=None)
def test_locations_match_unfiltered_anatomy_scan(case):
    sentence, start, end = case
    assert rule_extract_locations(sentence, start, end, ANATOMY) == reference_locations(
        sentence, start, end, ANATOMY
    )


# Entries the leading-run index must get right: no leading ASCII run (a
# non-alphanumeric or non-ASCII first character, a surface as stored without
# lowercasing), a leading digit, and surfaces nested in one another.
EDGE_ENTRIES = ("-x", "(l) arm", "+ve", "é-ring", "İnce", "2nd toe", "chest", "chest wall", "wall")
EDGE_ANATOMY = {
    **load_anatomy_lexicon(),
    **{entry: f"<{entry}>" for entry in EDGE_ENTRIES},
    "left arm": "arm",  # a display shared with another surface
}
_EDGE_PIECES = sorted(set(_PIECES) | set(EDGE_ENTRIES) | {e.lower() for e in EDGE_ENTRIES} | {"toe", "ring"})


@pytest.fixture(scope="module")
def edge_rules(tmp_path_factory):
    """Trigger rules loaded from a TSV holding the edge entries."""
    path = tmp_path_factory.mktemp("rules") / "edge_rules.tsv"
    scopes = ("forward", "backward", "bidirectional")
    statuses = ("Absent", "Possible", "Hypothetical", "Not_associated_with_the_patient")
    lines = [
        f"{entry}\t{scopes[i % 3]}\t{2 + i % 4}\t{statuses[i % 4]}\t{(i + 1) * 10}"
        for i, entry in enumerate(EDGE_ENTRIES)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return load_rules(path)


@given(sentences_with_spans(_EDGE_PIECES))
@settings(max_examples=400, deadline=None)
def test_classify_with_edge_triggers_matches_unfiltered_scan(edge_rules, case):
    sentence, start, end = case
    assert classify(sentence, start, end, edge_rules) == reference_classify(sentence, start, end, edge_rules)


@given(sentences_with_spans(_EDGE_PIECES))
@settings(max_examples=400, deadline=None)
def test_locations_with_edge_surfaces_match_unfiltered_scan(case):
    sentence, start, end = case
    assert rule_extract_locations(sentence, start, end, EDGE_ANATOMY) == reference_locations(
        sentence, start, end, EDGE_ANATOMY
    )
