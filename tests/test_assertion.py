import re
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrstruct.assertion import (
    AssertionStatus,
    TriggerRule,
    classify,
    classify_mentions,
    default_rules,
    load_rules,
    load_triggers,
    mention_contexts,
)
from ehrstruct.preprocess import RawNote, restore_linebreaks, segment, split_paragraphs, split_sentences
from ehrstruct.terminology import InputFormatError


@pytest.fixture(scope="module")
def rules():
    return load_triggers()


def classify_in(text, phrase, rules, paragraph=None):
    start = text.index(phrase)
    if paragraph is not None:
        p_start = paragraph.index(text) + start
        return classify(text, start, start + len(phrase), rules,
                        paragraph=paragraph, paragraph_start=p_start)
    return classify(text, start, start + len(phrase), rules)


class TestCaseStudyBehaviors:
    def test_concerning_for_gives_possible(self, rules):
        text = "concerning for partial small bowel obstruction and/or ileus"
        assert classify_in(text, "small bowel obstruction", rules) is AssertionStatus.POSSIBLE

    def test_no_known_allergies_gives_absent(self, rules):
        text = "Allergies: Patient recorded as having No Known Allergies to Drugs"
        start = text.index("Allergies", 1)  # the occurrence inside the negation
        assert classify(text, start, start + len("Allergies"), rules) is AssertionStatus.ABSENT

    def test_allergy_list_term_conditional(self, rules):
        text = "ALLERGIES: penicillin"
        assert classify_in(text, "penicillin", rules) is AssertionStatus.CONDITIONAL

    def test_section_header_is_title(self, rules):
        text = "FAMILY HISTORY:"
        assert classify_in(text, "FAMILY HISTORY", rules) is AssertionStatus.TITLE


class TestRuleEngine:
    def test_denies_forward(self, rules):
        assert classify_in("denies chest pain", "chest pain", rules) is AssertionStatus.ABSENT

    def test_trigger_after_lengthening_lowercase(self, rules):
        # "İ".lower() is two characters; trigger offsets must still index the sentence
        text = "İİ denies chest pain"
        assert classify_in(text, "chest pain", rules) is AssertionStatus.ABSENT

    def test_default_present(self, rules):
        assert classify_in("chest pain", "chest pain", rules) is AssertionStatus.PRESENT

    def test_family_history_experiencer(self, rules):
        text = "family history of heart failure"
        assert classify_in(text, "heart failure", rules) is AssertionStatus.NOT_PATIENT

    def test_hypothetical(self, rules):
        text = "return if fever develops"
        assert classify_in(text, "fever", rules) is AssertionStatus.HYPOTHETICAL

    def test_trigger_outside_window_ignored(self, rules):
        filler = "one two three four five six seven eight nine ten"
        text = f"no {filler} fever"
        assert classify_in(text, "fever", rules) is AssertionStatus.PRESENT

    def test_backward_scope(self, rules):
        text = "pneumonia was ruled out"
        assert classify_in(text, "pneumonia", rules) is AssertionStatus.ABSENT

    def test_mention_outside_sentence_raises(self, rules):
        with pytest.raises(ValueError):
            classify("short", 2, 99, rules)

    def test_determinism(self, rules):
        text = "denies possible chest pain"
        results = {classify_in(text, "chest pain", rules) for _ in range(5)}
        assert len(results) == 1

    def test_only_known_statuses_emitted(self, rules):
        sentences = [
            ("denies fever", "fever"),
            ("possible fever", "fever"),
            ("FEVER:", "FEVER"),
            ("fever", "fever"),
            ("risk of fever", "fever"),
            ("sister had fever", "fever"),
            ("prn for fever", "fever"),
        ]
        for text, phrase in sentences:
            assert classify_in(text, phrase, rules) in set(AssertionStatus)


class TestPrecedence:
    def test_title_overrides_triggers(self, rules):
        # 'denies' would fire Absent, but the colon-capital rule wins
        text = "denies PAIN:"
        assert classify_in(text, "PAIN", rules) is AssertionStatus.TITLE

    def test_allergy_overrides_triggers(self, rules):
        # 'denies' in scope cannot undo the allergy-list Conditional
        text = "ALLERGIES: denies penicillin reaction"
        assert classify_in(text, "penicillin", rules) is AssertionStatus.CONDITIONAL

    def test_allergy_scope_ends_at_blank_line(self, rules):
        # 'aspirin' lives in a later paragraph, so no allergy scope applies
        assert classify_in("aspirin given", "aspirin", rules) is AssertionStatus.PRESENT

    def test_allergy_scope_ends_at_next_header(self, rules):
        paragraph = "ALLERGIES: sulfa\nMEDICATIONS: aspirin daily"
        sentence = "MEDICATIONS: aspirin daily"
        start = paragraph.index("aspirin")
        s_start = sentence.index("aspirin")
        got = classify(sentence, s_start, s_start + len("aspirin"), rules,
                       paragraph=paragraph, paragraph_start=start)
        assert got is AssertionStatus.PRESENT

    @pytest.mark.parametrize(
        "text, phrase",
        [("ALLERGIES AND MEDS: rash", "rash"), ("DRUG ALLERGIES AND INTOLERANCES: hives", "hives")],
    )
    def test_allergy_header_that_goes_on_after_the_token_keeps_the_scope(self, rules, text, phrase):
        # the header holding the token is an allergy header, as "ALLERGIES:" is
        assert classify_in(text, phrase, rules) is AssertionStatus.CONDITIONAL
        assert classify_in("ALLERGIES: rash", "rash", rules) is AssertionStatus.CONDITIONAL

    def test_nkda_absent(self, rules):
        text = "Allergies: NKDA penicillin listed historically"
        assert classify_in(text, "penicillin", rules) is AssertionStatus.ABSENT


class TestLoadRules:
    def test_parse_single_rule(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("denies\tforward\t6\tAbsent\t10\n", encoding="utf-8")
        rules = load_rules(path)
        assert rules == [TriggerRule("denies", "forward", 6, AssertionStatus.ABSENT, 10)]

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(OSError):
            load_rules(tmp_path / "nope.tsv")

    def test_duplicate_priority_errors(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text(
            "denies\tforward\t6\tAbsent\t10\nno\tforward\t4\tAbsent\t10\n", encoding="utf-8"
        )
        with pytest.raises(InputFormatError):
            load_rules(path)

    def test_default_set_size_and_priorities(self):
        rules = default_rules()
        assert len(rules) >= 40
        priorities = [r.priority for r in rules]
        assert len(priorities) == len(set(priorities))

    def test_triggers_index_the_default_set_once_and_a_file_on_each_load(self, tmp_path):
        assert load_triggers() is load_triggers()
        path = tmp_path / "rules.tsv"
        path.write_text("zork\tforward\t2\tAbsent\t10\n", encoding="utf-8")
        assert load_triggers(path) is not load_triggers(path)
        context = ("zork fever", 5, 10, "zork fever", 5)
        assert classify_mentions([context], load_triggers(path)) == [AssertionStatus.ABSENT]
        assert classify_mentions([context], load_triggers()) == [AssertionStatus.PRESENT]


@st.composite
def notes_with_spans(draw):
    """A normalized note and spans that each lie inside one of its sentences,
    as every recognized mention does."""
    raw = draw(st.text(alphabet="aZ9 .!?:'\n-é", min_size=1, max_size=300))
    text = restore_linebreaks(RawNote("n", raw)).text
    sentence_ends = []
    pos = 0
    for sent in (s for par in split_paragraphs(text) for s in split_sentences(par)):
        pos += len(sent)
        sentence_ends += [pos] * len(sent)
    starts = draw(st.lists(st.integers(0, len(text) - 1), max_size=8))
    spans = [(s, draw(st.integers(s + 1, sentence_ends[s]))) for s in starts]
    return text, spans


@given(notes_with_spans())
@settings(max_examples=300, deadline=None)
def test_mention_contexts_agree_with_the_splitters(note):
    text, spans = note
    pieces = []  # (offset, sentence, paragraph offset, paragraph)
    pos = 0
    for par in split_paragraphs(text):
        par_start = pos
        for sent in split_sentences(par):
            pieces.append((pos, sent, par_start, par))
            pos += len(sent)
    mentions = [SimpleNamespace(norm_start=s, norm_end=e) for s, e in spans]
    contexts = mention_contexts(text, segment(text, spans), mentions)
    assert len(contexts) == len(spans)
    for (start, end), (sentence, s, e, paragraph, p) in zip(spans, contexts):
        offset, expected, par_start, expected_par = next(
            piece for piece in pieces if piece[0] <= start < piece[0] + len(piece[1])
        )
        assert (sentence, s) == (expected, start - offset)
        assert (paragraph, p) == (expected_par, start - par_start)
        assert sentence[s:e] == text[start : min(end, offset + len(sentence))]
        assert paragraph[p : p + e - s] == sentence[s:e]


def test_only_ascii_cases_match_an_allergy_letter():
    """The premise of the pre-check in `_allergy_scope`: under IGNORECASE no
    code point other than its two ASCII cases matches a letter of "allerg"."""
    every_code_point = "".join(map(chr, range(sys.maxunicode + 1)))
    for letter in "alerg":
        assert re.findall(letter, every_code_point, re.IGNORECASE) == [letter.upper(), letter]
