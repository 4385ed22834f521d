"""The rule path's scans against references.

The trigger scan of `classify_mentions` and the anatomy scan of `SentenceLocations`
against unfiltered scans (every trigger rule and every anatomy surface, each
pattern compiled per call); the scans made once per sentence or paragraph
against the per-mention scans of tests/oracles.py; and a sentence searched
where it stands in its note against the references run on the sentence
alone."""

import re
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehrstruct.assertion import (
    AllergyScopes,
    AssertionStatus,
    SentenceTriggers,
    TriggerRule,
    classify_mentions,
    load_rules,
    load_triggers,
)
from ehrstruct.attributes import (
    DIRECTION_WORDS,
    RuleBackend,
    SentenceLocations,
    _anatomy_rows,
    _word_after,
    _word_before,
    rule_extract_modifiers,
)
from ehrstruct.preprocess import NormalizedNote, Sentence, count_tokens
from ehrstruct.terminology import (
    ATTRIBUTE_KINDS,
    LOCATION,
    MODIFIER,
    UNIT,
    VALUE,
    InputFormatError,
    LiteralIndex,
    ascii_runs,
    data_path,
    fold_case,
)
from oracles import (
    reference_allergy_status,
    reference_classify,
    reference_locations,
    reference_modifiers,
    reference_trigger_covers,
    reference_value_unit,
    reference_word_after,
    reference_word_before,
)

RULES = load_rules(data_path("assertion_rules.tsv"))
# The shipped lexicon plus a surface that nests another one ("chest").
ANATOMY = {**dict(_anatomy_rows()), "chest wall": "chest wall"}


def triggers(rules):
    """The rules indexed in the order given, as load_triggers indexes a file's."""
    return LiteralIndex((rule.trigger, rule) for rule in rules)


def in_note(sentence, prefix="", suffix=""):
    """A note of the sentence between prefix and suffix, and the sentence's
    span in it, the sentence its own paragraph."""
    text = prefix + sentence + suffix
    start, end = len(prefix), len(prefix) + len(sentence)
    return NormalizedNote("n", text, list(range(len(text)))), Sentence(start, end, start, end)


def span(start, end):
    """A mention as the rule path reads one: its span in the note."""
    return SimpleNamespace(norm_start=start, norm_end=end)


def classify(sentence, start, end, rules):
    """classify_mentions of the one mention sentence[start:end], in a note of that one sentence."""
    note, sent = in_note(sentence)
    return classify_mentions(note, [span(start, end)], [sent], rules)[0]


def locations(sentence, start, end, anatomy):
    note, sent = in_note(sentence)
    return SentenceLocations(note, sent, LiteralIndex(anatomy.items())).nearest(start, end)


def unfiltered_classify(sentence, start, end, rules):
    """classify with the sentence as its own paragraph, trying every rule."""
    if not (0 <= start < end <= len(sentence)):
        raise ValueError("mention span not inside sentence")
    if any(ch.isupper() for ch in sentence[start:end]):
        if sentence[end:].lstrip(" ").startswith(":"):
            return AssertionStatus.TITLE
    status = reference_allergy_status(sentence, start)
    if status is not None:
        return status
    lowered = fold_case(sentence)
    for rule in sorted(rules, key=lambda r: r.priority):
        pattern = re.compile(r"(?<![A-Za-z0-9])" + re.escape(rule.trigger) + r"(?![A-Za-z0-9])")
        for m in pattern.finditer(lowered):
            if m.start() >= start and m.end() <= end:
                continue
            if reference_trigger_covers(sentence, m, start, end, rule):
                return rule.status
    return AssertionStatus.PRESENT


def unfiltered_locations(sentence, start, end, anatomy):
    """The nearest locations, running every surface's pattern."""
    lowered = fold_case(sentence)
    found = []
    for surface, display in anatomy.items():
        for m in re.finditer(r"(?<![A-Za-z0-9])" + re.escape(surface) + r"(?![A-Za-z0-9])", lowered):
            if m.start() < end and m.end() > start:
                continue
            distance = m.start() - end if m.start() >= end else start - m.end()
            rendered = display
            direction = reference_word_before(sentence, m.start())
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
    assert classify(sentence, start, end, load_triggers()) == unfiltered_classify(sentence, start, end, RULES)


@given(sentences_with_spans())
@settings(max_examples=400, deadline=None)
def test_locations_match_unfiltered_anatomy_scan(case):
    sentence, start, end = case
    assert locations(sentence, start, end, ANATOMY) == unfiltered_locations(
        sentence, start, end, ANATOMY
    )


# Entries the leading-run index must get right: no leading ASCII run (a
# non-alphanumeric or non-ASCII first character, a surface as stored without
# lowercasing), a leading digit, and surfaces nested in one another.
EDGE_ENTRIES = ("-x", "(l) arm", "+ve", "é-ring", "İnce", "2nd toe", "chest", "chest wall", "wall")
EDGE_ANATOMY = {
    **dict(_anatomy_rows()),
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
    got = classify(sentence, start, end, triggers(edge_rules))
    assert got == unfiltered_classify(sentence, start, end, edge_rules)


@given(sentences_with_spans(_EDGE_PIECES))
@settings(max_examples=400, deadline=None)
def test_locations_with_edge_surfaces_match_unfiltered_scan(case):
    sentence, start, end = case
    assert locations(sentence, start, end, EDGE_ANATOMY) == unfiltered_locations(
        sentence, start, end, EDGE_ANATOMY
    )


# Per-sentence and per-paragraph scans against the per-mention scans they
# replaced (tests/oracles.py), with every mention of a text asking the one
# scan of its sentence or paragraph.

_ALLERGY_PIECES = (
    "allergy", "Allergies", "ALLERGIES", "allergic", "allergyx", "x_allergy", "NKA", "nka", "nkda",
    "NKDA", "no known allergies", "No known drug allergies", "penicillin", "rash", "hives",
    "ALLERGIES:", "MEDICATIONS:", "PLAN:", "HPI:", "ALLERGIES AND MEDS:", "Drug allergies:",
    "A:", "B1 /C:", "pain", "ok", ":", "-", "ſ",
)
_ALLERGY_SEPARATORS = (" ", " ", "", "\n", "\n\n", "\n \n", "\n\n\n", ", ", ": ", "\t", "  \n")


@st.composite
def allergy_paragraphs(draw):
    pieces = draw(
        st.lists(st.tuples(st.sampled_from(_ALLERGY_PIECES), st.sampled_from(_ALLERGY_SEPARATORS)), max_size=14)
    )
    return "".join(piece + sep for piece, sep in pieces)


@given(allergy_paragraphs())
@example("ALLERGIES: penicillin\nNKA\n\nPLAN: rash")
@example("Allergies\n \nMEDICATIONS: x allergyx allergiesy NKA")
@example("allergy\n\n  \nPLAN: hives")
@example("ALLERGIES AND MEDS: rash")
@example("ALLERGIES: No known drug allergies\nrash NKDA allergy hives")
@settings(max_examples=500, deadline=None)
def test_allergy_scopes_match_the_per_mention_rescan(paragraph):
    scopes = AllergyScopes(paragraph)
    for pos in range(len(paragraph) + 1):
        assert scopes.status(pos) == reference_allergy_status(paragraph, pos), pos


@pytest.mark.parametrize("phrase", ["No known allergies", "no known drug allergies", "NKDA"])
def test_reference_allergy_status_counts_a_phrase_that_holds_the_opening(phrase):
    paragraph = f"ALLERGIES: {phrase}.\nrash"
    assert reference_allergy_status(paragraph, paragraph.index("rash")) is AssertionStatus.ABSENT
    assert reference_allergy_status("ALLERGIES:\n- rash", 13) is AssertionStatus.CONDITIONAL


_SCAN_PIECES = sorted(
    set(_PIECES)
    | {"12", "3.5", "12,345", "1,23", "0", "٣", "mg", "mmHg", "%", "°C", "cm", "severe", "mild", "acute"}
    | {"<=", ">=", "<", ">", "≤", "≥", "≤ 4", ">= 10", "no", "denies", "brother", "ALLERGIES"}
)
_SCAN_SEPARATORS = _SEPARATORS + ("\u00a0", "\u2003", " \u00a0 ", "\u2003\u2003\u2003", "", ",")


@st.composite
def sentences_with_mentions(draw, pieces=_SCAN_PIECES):
    """A sentence and several mention spans in it: most are pieces, some
    arbitrary spans, so they repeat, nest and touch numbers and operators."""
    words = draw(
        st.lists(
            st.tuples(st.sampled_from(pieces), st.sampled_from(_CASES), st.sampled_from(_SCAN_SEPARATORS)),
            min_size=1,
            max_size=30,
        )
    )
    spans = []
    sentence = ""
    for piece, case, sep in words:
        spans.append((len(sentence), len(sentence) + len(piece)))
        sentence += case(piece) + sep
    mentions = draw(st.lists(st.sampled_from(spans), min_size=1, max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, len(sentence) - 1))
        mentions.append((start, draw(st.integers(start + 1, len(sentence)))))
    return sentence, mentions


# "chest wall" ahead of "chest" in table order, so scan order and position
# order disagree where both match
SCAN_ANATOMY = LiteralIndex({"chest wall": "chest wall", **EDGE_ANATOMY}.items())
ALL_KINDS = [frozenset(ATTRIBUTE_KINDS)]


@given(sentences_with_mentions())
@example(("left chest, chest wall, right chest 12,345 mg", [(0, 4), (36, 38), (37, 40)]))
@example(("painful a b c d resolved", [(0, 4)]))  # a backward gap that starts mid-word
@settings(max_examples=400, deadline=None)
def test_one_sentence_scan_answers_every_mention_as_the_per_mention_scans(case):
    sentence, mentions = case
    backend = RuleBackend()
    backend.anatomy = SCAN_ANATOMY
    note, sent = in_note(sentence)
    spans = [span(s, e) for s, e in mentions]
    records, _, _ = backend.annotate(note, None, spans, [sent] * len(spans), ALL_KINDS * len(spans))
    scan = SentenceLocations(note, sent, SCAN_ANATOMY)
    for (s, e), record in zip(mentions, records):
        expected_locations = reference_locations(sentence, s, e, SCAN_ANATOMY)
        assert scan.nearest(s, e) == expected_locations
        assert record[LOCATION] == (expected_locations or None)
        value_unit = reference_value_unit(sentence, s, e, backend.units)
        assert (record[VALUE], record[UNIT]) == value_unit
        modifiers = reference_modifiers(sentence, s, e, backend.modifier_words)
        assert rule_extract_modifiers(note.text, sent, s, e, backend.modifier_words) == modifiers
        assert record[MODIFIER] == (modifiers or None)
    for rules in (RULES, sorted(RULES, key=lambda r: r.trigger)):
        expected = [reference_classify(sentence, s, e, rules) for s, e in mentions]
        assert classify_mentions(note, spans, [sent] * len(spans), triggers(rules)) == expected
        assert [classify(sentence, s, e, triggers(rules)) for s, e in mentions] == expected


# What lies around a sentence in its note: triggers, direction and modifier
# words, digits and the letters whose fold depends on their neighbours.
_CONTEXT_PIECES = sorted(set(_SCAN_PIECES) | {"Σ", "ΟΔΟΣ", "σ", "ς", "İ", "İΣ", "5 mg"})
# segment starts a sentence at the note's start or right after whitespace,
# and ends it at the note's end or right after whitespace
_WHITESPACE = (" ", "\n", "\n\n", "\u00a0", "\u2003", "  ")


@st.composite
def context(draw):
    words = draw(st.lists(st.tuples(st.sampled_from(_CONTEXT_PIECES), st.sampled_from(_CASES)), max_size=8))
    return " ".join(case(piece) for piece, case in words)


@given(sentences_with_mentions(_CONTEXT_PIECES), context(), context(), st.sampled_from(_WHITESPACE),
       st.sampled_from(_WHITESPACE))
@example(("knee pain ", [(5, 9)]), "Exam left", "", "\n\n", " ")
@example(("ΟΔΟΣ 105 F ", [(0, 4)]), "İ", "İΣ", " ", " ")
@example(("fever today ", [(0, 5)]), "Patient says no", "denies", "\n", "\n")
@example(("fever ", [(0, 5)]), "denies", "", " ", " ")  # a trigger before the sentence
@example(("fever ruled", [(0, 5)]), "", "out", " ", " ")  # a trigger across the sentence's end
@settings(max_examples=400, deadline=None)
def test_a_sentence_scanned_in_its_note_answers_as_the_sentence_alone(case, prefix, suffix, before, after):
    sentence, mentions = case
    sentence += after if suffix else ""
    note, sent = in_note(sentence, prefix + before if prefix else "", suffix)
    spans = [span(sent.start + s, sent.start + e) for s, e in mentions]
    backend = RuleBackend()
    backend.anatomy = SCAN_ANATOMY
    records, _, _ = backend.annotate(note, None, spans, [sent] * len(spans), ALL_KINDS * len(spans))
    for (s, e), record in zip(mentions, records):
        assert record[LOCATION] == (reference_locations(sentence, s, e, SCAN_ANATOMY) or None)
        assert (record[VALUE], record[UNIT]) == reference_value_unit(sentence, s, e, backend.units)
        assert record[MODIFIER] == (reference_modifiers(sentence, s, e, backend.modifier_words) or None)
    expected = [reference_classify(sentence, s, e, RULES) for s, e in mentions]
    assert classify_mentions(note, spans, [sent] * len(spans), load_triggers()) == expected


@given(st.text(st.sampled_from("ab Z1-\t\n\u00a0\u2003\u2028é"), max_size=12))
@settings(max_examples=300, deadline=None)
def test_adjacent_words_match_the_slicing_scans(sentence):
    # in a note that goes on past the sentence's ends with a word on either side
    text, lo, hi = f"left{sentence}right", 4, 4 + len(sentence)
    for pos in range(len(sentence) + 1):
        assert _word_before(text, lo, lo + pos) == reference_word_before(sentence, pos)
        assert _word_after(text, lo + pos, hi) == reference_word_after(sentence, pos)


@given(st.text(st.sampled_from("ab Z1-.\t é"), max_size=14))
@settings(max_examples=300, deadline=None)
def test_token_counts_from_token_starts_match_count_tokens(sentence):
    scan = SentenceTriggers(*in_note(sentence), LiteralIndex([]))
    for a in range(len(sentence) + 1):
        for b in range(a, len(sentence) + 1):
            for window in range(4):
                assert scan._within(a, b, window) == (count_tokens(sentence[a:b]) <= window)


@pytest.mark.parametrize("trigger", ["", "  "])
def test_an_empty_trigger_fails_at_its_line(tmp_path, trigger):
    # An empty trigger matches at every position between two characters that
    # are not letters or digits: alone in a rules file, it made "Vitals: -
    # fever today." give fever Absent.
    with pytest.raises(ValueError, match="empty trigger"):
        TriggerRule(trigger, "forward", 4, AssertionStatus.ABSENT, 10)
    path = tmp_path / "rules.tsv"
    path.write_text(f"denies\tforward\t8\tAbsent\t10\n{trigger}\tforward\t4\tAbsent\t20\n", encoding="utf-8")
    with pytest.raises(InputFormatError, match=f"^{re.escape(str(path))}:2: empty trigger$"):
        load_rules(path)


@given(st.text(st.sampled_from("az09AZ _-éİ\u212a\u00a0\U0001d7ce\udc80")))
@example("x\udc80y")  # a lone surrogate
def test_ascii_runs_are_the_regex_runs(text):
    assert ascii_runs(text) == [run.encode() for run in re.findall(r"[a-z0-9]+", text)]
