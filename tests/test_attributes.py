import pytest

from ehrstruct.attributes import (
    AttributeSet,
    BackendError,
    LlmBackend,
    RuleBackend,
    annotate_note,
    apply_applicability,
    llm_extract,
    load_anatomy_lexicon,
    mark_mentions,
    parse_response_lines,
    rule_extract_locations,
    rule_extract_modifiers,
    rule_extract_value_unit,
)
from ehrstruct.llm_client import ChatClient, EndpointConfig, Transcript
from ehrstruct.preprocess import Chunk, count_tokens
from ehrstruct.recognition import Mention
from ehrstruct.terminology import (
    ATTRIBUTE_KINDS,
    NOT_APPLICABLE,
    PURPOSE,
    REPORTABLE_TYPES,
    ApplicabilityTable,
    SemanticType,
)


def mention(phrase, text, sem=SemanticType.SIGN_SYMPTOM_OR_FINDING, note_id="n", chunk_index=0):
    start = text.index(phrase)
    return Mention(note_id, chunk_index, start, start + len(phrase), start,
                   start + len(phrase), phrase, phrase, sem)


def sentence(m, text):
    """The whole text as the mention's sentence."""
    return text, m.norm_start, m.norm_end


def chunk_for(text, note_id="n"):
    return Chunk(note_id, 0, 0, len(text), text, count_tokens(text))


class TestValueUnit:
    def test_parenthesized_value_no_unit(self):
        text = "resultant high fever (105)"
        m = text.index("fever")
        value, unit = rule_extract_value_unit(text, m, m + 5)
        assert (value, unit) == ("105", None)

    def test_dose_with_unit(self):
        text = "Lisinopril 10 mg daily"
        value, unit = rule_extract_value_unit(text, 0, len("Lisinopril"))
        assert (value, unit) == ("10", "mg")

    def test_no_numeral(self):
        text = "no acute distress"
        s = text.index("acute distress")
        assert rule_extract_value_unit(text, s, s + 14) == (None, None)

    def test_comparator_kept(self):
        text = "a1c < 7 % goal"
        value, unit = rule_extract_value_unit(text, 0, 3)
        assert value == "<7"
        assert unit == "%"

    def test_number_before_mention_ignored(self):
        text = "10 mg of aspirin"
        s = text.index("aspirin")
        assert rule_extract_value_unit(text, s, s + 7) == (None, None)

    def test_never_unit_without_value(self):
        for text, phrase in [("fever mg", "fever"), ("bp stable", "bp")]:
            s = text.index(phrase)
            value, unit = rule_extract_value_unit(text, s, s + len(phrase))
            assert not (value is None and unit is not None)


class TestLocations:
    def test_abbreviated_lobe(self):
        text = "aspirated to the LLL with resultant hypoxemia"
        s = text.index("hypoxemia")
        got = rule_extract_locations(text, s, s + len("hypoxemia"))
        assert got == ["Left Lower Lobe"]

    def test_no_anatomy_in_sentence(self):
        text = "edema noted"
        assert rule_extract_locations(text, 0, 5) == []

    def test_direction_prefix(self):
        text = "pain in left knee"
        got = rule_extract_locations(text, 0, 4)
        assert got == ["left knee"]

    def test_direction_after_lengthening_lowercase(self):
        text = "İİİİ pain in left knee"
        s = text.index("pain")
        assert rule_extract_locations(text, s, s + 4) == ["left knee"]

    def test_at_most_two_nearest_first(self):
        text = "pain radiating to chest, arm, and knee"
        got = rule_extract_locations(text, 0, 4)
        assert len(got) == 2
        assert got[0] == "chest"

    def test_overlap_with_mention_excluded(self):
        text = "chest pain reported"
        s = text.index("chest pain")
        got = rule_extract_locations(text, s, s + len("chest pain"))
        assert "chest" not in got


class TestModifiers:
    def test_adjacent_modifier(self):
        text = "severe chest pain"
        s = text.index("chest pain")
        assert rule_extract_modifiers(text, s, s + 10) == ["severe"]

    def test_distant_modifier_ignored(self):
        text = "severe and worsening chest pain"
        s = text.index("chest pain")
        assert "severe" not in rule_extract_modifiers(text, s, s + 10)


class TestRuleBackend:
    def test_purpose_always_null(self):
        text = "levothyroxine to treat thyroid hormone deficiency"
        m = mention("levothyroxine", text, sem=SemanticType.CHEMICAL_OR_DRUG)
        backend = RuleBackend()
        sets, dropped, total = backend.annotate(chunk_for(text), [m], [sentence(m, text)], [{PURPOSE}])
        assignments = [(i, s.purpose) for i, s in enumerate(sets)]
        assert assignments == [(0, None)]
        assert dropped == 0

    def test_deterministic(self):
        text = "Lisinopril 10 mg daily for severe hypertension"
        m = mention("Lisinopril", text, sem=SemanticType.CHEMICAL_OR_DRUG)
        backend = RuleBackend()
        runs = [
            backend.annotate(chunk_for(text), [m], [sentence(m, text)], [{"value"}]) for _ in range(3)
        ]
        assert all(r == runs[0] for r in runs)


class TestApplyApplicability:
    def test_disease_purpose_forced_not_applicable(self):
        m = mention("fever", "fever", sem=SemanticType.DISEASE)
        raw = AttributeSet(purpose="to treat X")
        out = apply_applicability(m, raw, ApplicabilityTable())
        assert out.purpose is NOT_APPLICABLE

    def test_drug_missing_purpose_becomes_null(self):
        m = mention("colace", "colace", sem=SemanticType.CHEMICAL_OR_DRUG)
        out = apply_applicability(m, AttributeSet(), ApplicabilityTable())
        assert out.purpose is None

    def test_drug_purpose_kept(self):
        m = mention("levothyroxine", "levothyroxine", sem=SemanticType.CHEMICAL_OR_DRUG)
        raw = AttributeSet(purpose="treat thyroid hormone deficiency")
        out = apply_applicability(m, raw, ApplicabilityTable())
        assert out.purpose == "treat thyroid hormone deficiency"

    def test_exhaustive_over_types_and_kinds(self):
        table = ApplicabilityTable()
        for sem in REPORTABLE_TYPES:
            m = mention("x", "x", sem=sem)
            out = apply_applicability(m, AttributeSet(), table)
            applicable = table.applicable_attributes(sem)
            for kind in ATTRIBUTE_KINDS:
                value = out.get(kind)
                if kind in applicable:
                    assert value is not NOT_APPLICABLE
                else:
                    assert value is NOT_APPLICABLE


class TestAnnotateNote:
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

        sets, dropped, total = annotate_note(
            [chunk_for(text)],
            [drug, disease],
            [sentence(drug, text), sentence(disease, text)],
            LlmBackend(Recorder()),
            ApplicabilityTable(),
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
        assert sets[0].locations is NOT_APPLICABLE and sets[0].purpose is None
        assert sets[1].purpose is NOT_APPLICABLE and sets[1].locations is None


def replay_client(pairs):
    transcript = Transcript()
    for prompt, response in pairs:
        transcript.put(prompt, response)
    return ChatClient(EndpointConfig(), mode="replay", transcript=transcript)


class StubClient:
    """complete() returns a canned response regardless of prompt."""

    def __init__(self, response):
        self.response = response
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        return self.response


class TestLlmExtract:
    def setup_method(self):
        self.text = "aspirated to the LLL with resultant high fever (105) and hypoxemia"
        self.chunk = chunk_for(self.text)
        self.mentions = [mention("fever", self.text), mention("hypoxemia", self.text)]

    def test_parses_and_aligns(self):
        client = StubClient("fever: null\nhypoxemia: Left Lower Lobe")
        assignments, dropped, total = llm_extract(self.chunk, self.mentions, "location", client)
        assert assignments == [(0, None), (1, "Left Lower Lobe")]
        assert dropped == 0
        assert total == 2

    def test_extra_line_dropped(self):
        client = StubClient("fever: null\nxyz: chest\nhypoxemia: Left Lower Lobe")
        assignments, dropped, total = llm_extract(self.chunk, self.mentions, "location", client)
        assert assignments == [(0, None), (1, "Left Lower Lobe")]
        assert dropped == 1
        assert total == 3

    def test_empty_response_errors(self):
        with pytest.raises(BackendError):
            llm_extract(self.chunk, self.mentions, "location", StubClient("\n\n"))

    def test_prompt_marks_mentions_with_braces(self):
        client = StubClient("fever: null\nhypoxemia: null")
        llm_extract(self.chunk, self.mentions, "location", client)
        prompt = client.prompts[0]
        assert "{{fever}}" in prompt
        assert "{{hypoxemia}}" in prompt
        assert "double curly braces" in prompt
        assert "body location" in prompt

    def test_shuffling_adversary_stays_monotone(self):
        # echoes mentions out of order; alignment must stay order-monotone
        client = StubClient("hypoxemia: lung\nfever: head")
        assignments, dropped, total = llm_extract(self.chunk, self.mentions, "location", client)
        mention_idxs = [i for i, _ in assignments]
        assert all(a < b for a, b in zip(mention_idxs, mention_idxs[1:]))
        assert len(assignments) + dropped == total


class TestMarkMentions:
    def test_wraps_spans(self):
        text = "fever and chills"
        marked = mark_mentions(chunk_for(text), [mention("fever", text)])
        assert marked == "{{fever}} and chills"


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
    sets, dropped, total = backend.annotate(chunk_for(text), [m], [sentence(m, text)], [{"location"}])
    assignments = [(i, s.locations) for i, s in enumerate(sets)]
    assert assignments == [(0, ["left knee"])]


def test_anatomy_lexicon_has_display_mapping():
    anatomy = load_anatomy_lexicon()
    assert anatomy["lll"] == "Left Lower Lobe"
    assert anatomy["knee"] == "knee"
