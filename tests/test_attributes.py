from importlib import resources

import pytest

from ehrstruct import attributes
from ehrstruct.attributes import (
    BackendError,
    LlmBackend,
    RuleBackend,
    SentenceLocations,
    annotate_note,
    llm_extract,
    llm_prompt,
    mark_mentions,
    parse_response_lines,
    render_prompt,
    rule_extract_modifiers,
)
from ehrstruct.llm_client import ChatClient, Transcript
from ehrstruct.pipeline import PipelineConfig
from ehrstruct.preprocess import NormalizedNote, Sentence, segment
from ehrstruct.recognition import Mention
from ehrstruct.terminology import (
    ATTRIBUTE_KINDS,
    LOCATION,
    MODIFIER,
    NOT_APPLICABLE,
    PURPOSE,
    REPORTABLE_TYPES,
    UNIT,
    VALUE,
    SemanticType,
    load_applicability,
)


def mention(phrase, text, sem=SemanticType.SIGN_SYMPTOM_OR_FINDING, note_id="n"):
    start = text.index(phrase)
    return Mention(note_id, start, start + len(phrase), start,
                   start + len(phrase), phrase, phrase, sem)


def sentence(m, text):
    """The whole text as the mention's sentence, and its paragraph."""
    return Sentence(0, len(text), 0, len(text))


def note_for(text, note_id="n"):
    return NormalizedNote(note_id, text, list(range(len(text))))


def span_mention(text, start, end):
    """The mention text[start:end]."""
    surface = text[start:end]
    return Mention("n", start, end, start, end, surface, surface, SemanticType.SIGN_SYMPTOM_OR_FINDING)


def rule_record(text, start, end):
    """RuleBackend's record, every kind asked, for the mention text[start:end]
    of a note of the one sentence text."""
    m = span_mention(text, start, end)
    records, _, _ = RuleBackend().annotate(note_for(text), None, [m], [sentence(m, text)], [ATTRIBUTE_KINDS])
    return records[0]


def value_unit(text, start, end):
    record = rule_record(text, start, end)
    return record[VALUE], record[UNIT]


def locations(text, start, end):
    """The locations of the mention text[start:end] in a note of the one sentence text."""
    whole = sentence(None, text)
    return SentenceLocations(note_for(text), whole, RuleBackend().anatomy).nearest(start, end)


def modifiers(text, start, end):
    """The modifiers of the mention text[start:end] in a note of the one sentence text."""
    return rule_extract_modifiers(text, sentence(None, text), start, end, RuleBackend().modifier_words)


class TestValueUnit:
    def test_parenthesized_value_no_unit(self):
        text = "resultant high fever (105)"
        m = text.index("fever")
        value, unit = value_unit(text, m, m + 5)
        assert (value, unit) == ("105", None)

    def test_dose_with_unit(self):
        text = "Lisinopril 10 mg daily"
        value, unit = value_unit(text, 0, len("Lisinopril"))
        assert (value, unit) == ("10", "mg")

    def test_no_numeral(self):
        text = "no acute distress"
        s = text.index("acute distress")
        assert value_unit(text, s, s + 14) == (None, None)

    def test_comparator_kept(self):
        text = "a1c < 7 % goal"
        value, unit = value_unit(text, 0, 3)
        assert value == "<7"
        assert unit == "%"

    def test_number_before_mention_ignored(self):
        text = "10 mg of aspirin"
        s = text.index("aspirin")
        assert value_unit(text, s, s + 7) == (None, None)

    def test_never_unit_without_value(self):
        for text, phrase in [("fever mg", "fever"), ("bp stable", "bp")]:
            s = text.index(phrase)
            value, unit = value_unit(text, s, s + len(phrase))
            assert not (value is None and unit is not None)


class TestLocations:
    def test_abbreviated_lobe(self):
        text = "aspirated to the LLL with resultant hypoxemia"
        s = text.index("hypoxemia")
        got = locations(text, s, s + len("hypoxemia"))
        assert got == ["Left Lower Lobe"]

    def test_no_anatomy_in_sentence(self):
        text = "edema noted"
        assert locations(text, 0, 5) == []

    def test_direction_prefix(self):
        text = "pain in left knee"
        got = locations(text, 0, 4)
        assert got == ["left knee"]

    def test_direction_after_lengthening_lowercase(self):
        text = "İİİİ pain in left knee"
        s = text.index("pain")
        assert locations(text, s, s + 4) == ["left knee"]

    def test_at_most_two_nearest_first(self):
        text = "pain radiating to chest, arm, and knee"
        got = locations(text, 0, 4)
        assert len(got) == 2
        assert got[0] == "chest"

    def test_overlap_with_mention_excluded(self):
        text = "chest pain reported"
        s = text.index("chest pain")
        got = locations(text, s, s + len("chest pain"))
        assert "chest" not in got


class TestModifiers:
    def test_adjacent_modifier(self):
        text = "severe chest pain"
        s = text.index("chest pain")
        assert modifiers(text, s, s + 10) == ["severe"]

    def test_distant_modifier_ignored(self):
        text = "severe and worsening chest pain"
        s = text.index("chest pain")
        assert "severe" not in modifiers(text, s, s + 10)

    def test_comment_lines_are_not_modifiers(self):
        words = RuleBackend().modifier_words
        assert modifiers("pain side", 0, 4) == []
        data = resources.files("ehrstruct.data").joinpath("modifiers.txt").read_text(encoding="utf-8")
        comment_words = {
            w for line in data.lower().splitlines() if line.lstrip().startswith("#") for w in line.split()
        }
        assert comment_words >= {"side", "severity", "laterality", "#", "/"}
        assert not comment_words & words


class TestRuleBackend:
    def test_purpose_always_null(self):
        text = "levothyroxine to treat thyroid hormone deficiency"
        m = mention("levothyroxine", text, sem=SemanticType.CHEMICAL_OR_DRUG)
        backend = RuleBackend()
        sets, dropped, total = backend.annotate(
            note_for(text), segment(text), [m], [sentence(m, text)], [{PURPOSE}]
        )
        assignments = [(i, s["purpose"]) for i, s in enumerate(sets)]
        assert assignments == [(0, None)]
        assert dropped == 0

    def test_deterministic(self):
        text = "Lisinopril 10 mg daily for severe hypertension"
        m = mention("Lisinopril", text, sem=SemanticType.CHEMICAL_OR_DRUG)
        backend = RuleBackend()
        runs = [
            backend.annotate(note_for(text), segment(text), [m], [sentence(m, text)], [{"value"}])
            for _ in range(3)
        ]
        assert all(r == runs[0] for r in runs)


class Answering:
    """Fake backend: answers each kind in `answered` for every mention,
    whether or not the kind applies, and keeps the kinds it was given."""

    def __init__(self, answered=ATTRIBUTE_KINDS):
        self.answered = answered

    def annotate(self, note, segmentation, mentions, sentences, kinds):
        self.kinds = kinds
        return [{kind: f"{kind} of {m.surface}" for kind in self.answered} for m in mentions], 0, 0


def one_of_each_type():
    """A text with one mention of every reportable type."""
    text = " ".join(f"t{i}" for i in range(len(REPORTABLE_TYPES)))
    return text, [mention(f"t{i}", text, sem=sem) for i, sem in enumerate(REPORTABLE_TYPES)]


def annotate(text, mentions, backend, table=None):
    records, _, _ = annotate_note(
        note_for(text), segment(text), mentions, [sentence(m, text) for m in mentions],
        backend, load_applicability() if table is None else table,
    )
    return records


class TestAnnotateNote:
    def test_disease_purpose_forced_not_applicable(self):
        m = mention("fever", "fever", sem=SemanticType.DISEASE)
        assert annotate("fever", [m], Answering([PURPOSE]))[0][PURPOSE] is NOT_APPLICABLE

    def test_drug_missing_purpose_becomes_null(self):
        m = mention("colace", "colace", sem=SemanticType.CHEMICAL_OR_DRUG)
        assert annotate("colace", [m], Answering(()))[0][PURPOSE] is None

    def test_drug_purpose_kept(self):
        m = mention("levothyroxine", "levothyroxine", sem=SemanticType.CHEMICAL_OR_DRUG)
        record = annotate("levothyroxine", [m], Answering([PURPOSE]))[0]
        assert record[PURPOSE] == "purpose of levothyroxine"

    def test_exhaustive_over_types_and_kinds(self):
        table = load_applicability()
        text, mentions = one_of_each_type()
        for answered in (ATTRIBUTE_KINDS, ()):
            for m, record in zip(mentions, annotate(text, mentions, Answering(answered), table)):
                applicable = table[m.semantic_type]
                assert list(record) == list(ATTRIBUTE_KINDS)
                for kind in ATTRIBUTE_KINDS:
                    if kind not in applicable:
                        assert record[kind] is NOT_APPLICABLE
                    elif answered:
                        assert record[kind] == f"{kind} of {m.surface}"
                    else:
                        assert record[kind] is None

    def test_looked_up_once_per_mention(self):
        calls = []

        class Counting(dict):
            def __getitem__(self, t):
                calls.append(t)
                return super().__getitem__(t)

        backend = Answering()
        text, mentions = one_of_each_type()
        annotate(text, mentions, backend, Counting(load_applicability()))
        assert calls == [m.semantic_type for m in mentions]
        assert backend.kinds == [load_applicability()[m.semantic_type] for m in mentions]

    @pytest.mark.parametrize(
        "backend", [RuleBackend, lambda: LlmBackend(StubClient("x: null"))], ids=["rule", "llm"]
    )
    def test_backends_answer_exactly_the_kinds_given(self, backend):
        table = load_applicability()
        text, mentions = one_of_each_type()
        kinds = [table[m.semantic_type] for m in mentions]
        answers, _, _ = backend().annotate(
            note_for(text), segment(text), mentions, [sentence(m, text) for m in mentions], kinds
        )
        assert [list(a) for a in answers] == [[k for k in ATTRIBUTE_KINDS if k in ks] for ks in kinds]

    def test_each_kind_sees_only_applicable_mentions(self):
        text = "aspirin for fever"
        drug = mention("aspirin", text, sem=SemanticType.CHEMICAL_OR_DRUG)
        disease = mention("fever", text, sem=SemanticType.DISEASE)
        prompts = []

        class Recorder:
            def complete(self, prompt):
                prompts.append(prompt)
                terms = prompt.rsplit("Here are the terms:", 1)[1].splitlines()
                return "\n".join(f"{t}: null" for t in terms if t)

            def complete_all(self, batch):
                return [self.complete(prompt) for prompt in batch]

        sets, dropped, total = annotate_note(
            note_for(text),
            segment(text),
            [drug, disease],
            [sentence(drug, text), sentence(disease, text)],
            LlmBackend(Recorder()),
            load_applicability(),
        )
        assert len(prompts) == len(ATTRIBUTE_KINDS)  # one call per kind, in kind order
        prompts = dict(zip(ATTRIBUTE_KINDS, prompts))
        purpose = prompts[PURPOSE]
        assert purpose.endswith("terms:aspirin")
        assert "{{aspirin}}" in purpose and "{{fever}}" not in purpose
        location = prompts["location"]
        assert location.endswith("terms:fever")
        assert "{{fever}}" in location and "{{aspirin}}" not in location
        assert dropped == 0
        assert sets[0]["location"] is NOT_APPLICABLE and sets[0][PURPOSE] is None
        assert sets[1][PURPOSE] is NOT_APPLICABLE and sets[1]["location"] is None


def replay_client(pairs):
    transcript = Transcript()
    for prompt, response in pairs:
        transcript.put(prompt, response)
    return ChatClient(PipelineConfig(), mode="replay", transcript=transcript)


class StubClient:
    """complete() returns a canned response regardless of prompt."""

    def __init__(self, response):
        self.response = response
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        return self.response

    def complete_all(self, prompts):
        return [self.complete(prompt) for prompt in prompts]


class TestLlmExtract:
    def setup_method(self):
        self.text = "aspirated to the LLL with resultant high fever (105) and hypoxemia"
        self.chunk = (0, len(self.text))
        self.mentions = [mention("fever", self.text), mention("hypoxemia", self.text)]

    def test_parses_and_aligns(self):
        response = "fever: null\nhypoxemia: Left Lower Lobe"
        assignments, dropped, total = llm_extract(response, self.mentions, "location")
        assert assignments == [(0, None), (1, "Left Lower Lobe")]
        assert dropped == 0
        assert total == 2

    def test_extra_line_dropped(self):
        response = "fever: null\nxyz: chest\nhypoxemia: Left Lower Lobe"
        assignments, dropped, total = llm_extract(response, self.mentions, "location")
        assert assignments == [(0, None), (1, "Left Lower Lobe")]
        assert dropped == 1
        assert total == 3

    def test_empty_response_errors(self):
        with pytest.raises(BackendError):
            llm_extract("\n\n", self.mentions, "location")

    def test_prompt_marks_mentions_with_braces(self):
        prompt = llm_prompt(self.text, self.chunk, self.mentions, "location")
        assert "{{fever}}" in prompt
        assert "{{hypoxemia}}" in prompt
        assert "double curly braces" in prompt
        assert "body location" in prompt

    def test_shuffling_adversary_stays_monotone(self):
        # echoes mentions out of order; alignment must stay order-monotone
        response = "hypoxemia: lung\nfever: head"
        assignments, dropped, total = llm_extract(response, self.mentions, "location")
        mention_idxs = [i for i, _ in assignments]
        assert all(a < b for a, b in zip(mention_idxs, mention_idxs[1:]))
        assert len(assignments) + dropped == total


class TestMarkMentions:
    def test_wraps_spans(self):
        text = "fever and chills"
        marked = mark_mentions(text, (0, len(text)), [mention("fever", text)])
        assert marked == "{{fever}} and chills"

    def test_marks_a_chunk_in_note_offsets(self):
        text = "Fever noted. Chest pain and chills today."
        mentions = [mention("chills", text), mention("Chest pain", text)]
        marked = mark_mentions(text, (text.index("Chest"), len(text)), mentions)
        assert marked == "{{Chest pain}} and {{chills}} today."


class TestParseResponseLines:
    def test_null_maps_to_none(self):
        lines, bad = parse_response_lines("a: null\nb: X")
        assert lines == [("a", None), ("b", "X")]
        assert bad == 0

    def test_unparsable_counted(self):
        lines, bad = parse_response_lines("garbage without separator\na: 1")
        assert lines == [("a", "1")]
        assert bad == 1


def test_llm_backend_wraps_location_values_in_lists():
    text = "pain in the left knee"
    m = mention("pain", text)
    backend = LlmBackend(StubClient("pain: left knee"))
    sets, dropped, total = backend.annotate(
        note_for(text), segment(text), [m], [sentence(m, text)], [{"location"}]
    )
    assignments = [(i, s["location"]) for i, s in enumerate(sets)]
    assert assignments == [(0, ["left knee"])]


def test_llm_backend_prompts_each_chunk_with_its_own_mentions():
    text = "Fever noted. Chest pain today."
    fever, chest_pain = mention("Fever", text), mention("Chest pain", text)
    client = StubClient("x: null")
    LlmBackend(client, max_tokens=1).annotate(
        note_for(text), segment(text), [fever, chest_pain], [], [{"location"}, {"location"}]
    )
    # one chunk per sentence; a mention that opens a chunk belongs to it
    assert len(client.prompts) == 2
    assert "{{Fever}} noted. " in client.prompts[0] and "Chest" not in client.prompts[0]
    assert "{{Chest pain}} today." in client.prompts[1] and "Fever" not in client.prompts[1]


def test_prompt_templates_read_once(monkeypatch):
    text = "Fever noted. Chest pain today."
    mentions = [mention("Fever", text), mention("Chest pain", text)]
    data = resources.files("ehrstruct.data")
    expected = {
        kind: render_prompt(
            data.joinpath("prompt_location.txt" if kind == "location" else "prompt_generic.txt")
            .read_text(encoding="utf-8"),
            mark_mentions(text, (0, len(text)), mentions),
            kind,
            ["Fever", "Chest pain"],
        )
        for kind in ATTRIBUTE_KINDS
    }
    reads = []
    read = attributes._data_text
    monkeypatch.setattr(attributes, "_data_text", lambda name: reads.append(name) or read(name))
    attributes._prompt_template.cache_clear()
    for _ in range(3):
        for kind in ATTRIBUTE_KINDS:
            assert llm_prompt(text, (0, len(text)), mentions, kind) == expected[kind]
    assert sorted(reads) == ["prompt_generic.txt", "prompt_location.txt"]


def rule_answers(text, start, end):
    record = rule_record(text, start, end)
    return (record[VALUE], record[UNIT]), record[LOCATION], record[MODIFIER]


def test_rule_tables_read_once(monkeypatch):
    text = "Severe pain in left knee, 5 mg daily."
    s = text.index("pain")
    expected = rule_answers(text, s, s + 4)
    assert expected == (("5", "mg"), ["left knee"], ["Severe"])
    reads = []
    read = attributes._data_text
    monkeypatch.setattr(attributes, "_data_text", lambda name: reads.append(name) or read(name))
    for cached in (attributes._anatomy_rows, attributes._word_list, attributes._default_anatomy):
        cached.cache_clear()
    for _ in range(3):
        assert rule_answers(text, s, s + 4) == expected
        RuleBackend()
    assert sorted(reads) == ["anatomy.txt", "modifiers.txt", "units.txt"]


def test_anatomy_lexicon_has_display_mapping():
    anatomy = dict(attributes._anatomy_rows())
    assert anatomy["lll"] == "Left Lower Lobe"
    assert anatomy["knee"] == "knee"
