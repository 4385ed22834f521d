import random

from ehrstruct.preprocess import NormalizedNote
from ehrstruct.recognition import (
    Mention,
    expand_abbreviation,
    filter_reportable,
    recognize,
)
from ehrstruct.terminology import AbbreviationTable, Expansion, SemanticType, TermIndex
from oracles import brute_force_recognize


def note_for(text):
    return NormalizedNote("n", text, list(range(len(text))))


def index_of(*surfaces, sem=SemanticType.DISEASE):
    return TermIndex((s.lower(), f"C{i}", sem) for i, s in enumerate(surfaces))


def random_lexicon_and_text(rng, max_entries=200, max_text=2000):
    vocab = [
        "pain", "chest", "fever", "acute", "left", "lobe", "mass", "renal",
        "bowel", "heart", "rate", "high", "x", "a1c", "edema", "scan",
        # '_' and 'é' are where Unicode and ASCII word rules differ; the
        # rest start with a digit or end in punctuation
        "_", "é", "2nd", "x-", "r/o",
    ]
    n = rng.randint(1, max_entries)
    surfaces = set()
    while len(surfaces) < n:
        surfaces.add(" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 4))))
    words = [rng.choice(vocab + [",", "(", ")", "/", "and"]) for _ in range(rng.randint(0, 300))]
    # mostly spaces, sometimes nothing, so words and punctuation also touch
    text = "".join(w + rng.choice(("", " ", " ", " ")) for w in words)[:max_text]
    return sorted(surfaces), text


class TestRecognize:
    def test_case_study_sentence(self, sample_index):
        text = "concerning for partial small bowel obstruction and/or ileus"
        note = note_for(text)
        mentions = recognize(note, sample_index)
        phrases = [m.surface for m in mentions]
        assert "small bowel obstruction" in phrases
        assert "ileus" in phrases
        # oracle agreement on the exact spans
        surfaces = ["small bowel obstruction", "bowel obstruction", "ileus"]
        index = index_of(*surfaces)
        got = [(m.norm_start, m.norm_end) for m in recognize(note, index)]
        assert got == brute_force_recognize(text, surfaces)

    def test_longest_match(self):
        index = index_of("heart", "heart failure")
        note = note_for("heart failure")
        mentions = recognize(note, index)
        assert [m.surface for m in mentions] == ["heart failure"]

    def test_empty_lexicon(self):
        note = note_for("anything at all")
        assert recognize(note, TermIndex()) == []

    def test_no_match_inside_words(self):
        index = index_of("ra")
        note = note_for("thoRAcic films")
        assert recognize(note, index) == []

    def test_case_insensitive_with_raw_casing_kept(self):
        index = index_of("chest pain")
        note = note_for("c/o Chest Pain today")
        mentions = recognize(note, index)
        assert mentions[0].surface == "Chest Pain"
        assert mentions[0].canonical_phrase == "Chest Pain"

    def test_lowercase_that_lengthens_keeps_offsets(self):
        # "İ".lower() is two characters; offsets must still index the raw note
        index = index_of("chest pain")
        note = note_for("İİ chest pain today")
        mentions = recognize(note, index)
        assert [(m.surface, m.raw_start) for m in mentions] == [("chest pain", 3)]

    def test_oracle_offsets_survive_lengthening_lowercase(self):
        assert brute_force_recognize("İİ chest pain today", ["chest pain"]) == [(3, 13)]

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(1234)
        for _ in range(300):
            surfaces, text = random_lexicon_and_text(rng, max_entries=50)
            index = index_of(*surfaces)
            note = note_for(text)
            got = [(m.norm_start, m.norm_end) for m in recognize(note, index)]
            assert got == brute_force_recognize(text, surfaces)

    def test_oracle_equivalence_with_lengthening_lowercase(self):
        rng = random.Random(4321)
        for _ in range(100):
            surfaces, text = random_lexicon_and_text(rng, max_entries=50)
            words = text.split(" ")
            for _ in range(3):
                words.insert(rng.randint(0, len(words)), "İ" * rng.randint(1, 3))
            text = " ".join(words)
            index = index_of(*surfaces)
            note = note_for(text)
            got = [(m.norm_start, m.norm_end) for m in recognize(note, index)]
            assert got == brute_force_recognize(text, surfaces)
            assert all(text[s:e].lower() in surfaces for s, e in got)

    def test_nul_after_term_does_not_crash(self, sample_index):
        # NUL is an ordinary non-alphanumeric character, also right after a term
        text = "Patient has fever\x00 today."
        mentions = recognize(note_for(text), sample_index)
        assert [(m.surface, m.norm_start) for m in mentions] == [("fever", 12)]
        assert brute_force_recognize(text, ["fever"]) == [(12, 17)]

    def test_mentions_ordered_and_non_overlapping(self, sample_index):
        text = "fever and chest pain with nausea, vomiting and fever"
        note = note_for(text)
        mentions = recognize(note, sample_index)
        for a, b in zip(mentions, mentions[1:]):
            assert a.norm_end <= b.norm_start

    def test_offset_fidelity(self, sample_index):
        text = "Severe Chest Pain and HSM"
        note = note_for(text)
        for m in recognize(note, sample_index):
            assert m.surface.lower() == text[m.norm_start : m.norm_end].lower()


class TestFilterReportable:
    def make(self, sem):
        return Mention("n", 0, 1, 0, 1, "x", "x", sem)

    def test_other_removed(self):
        assert filter_reportable([self.make(SemanticType.OTHER)]) == []

    def test_disease_kept(self):
        kept = filter_reportable([self.make(SemanticType.DISEASE)])
        assert len(kept) == 1

    def test_order_preserved(self):
        seq = [
            self.make(SemanticType.DISEASE),
            self.make(SemanticType.OTHER),
            self.make(SemanticType.CHEMICAL_OR_DRUG),
            self.make(SemanticType.OTHER),
            self.make(SemanticType.PHYSIOLOGY),
        ]
        kept = filter_reportable(seq)
        assert kept == [seq[0], seq[2], seq[4]]


class TestExpandAbbreviation:
    def mention(self, surface):
        return Mention("n", 0, len(surface), 0, len(surface), surface, surface,
                       SemanticType.SIGN_SYMPTOM_OR_FINDING)

    def test_hsm(self, abbrev_table):
        m = expand_abbreviation(self.mention("HSM"), abbrev_table)
        assert m.canonical_phrase == "hepatosplenomegaly"
        assert not m.ambiguous

    def test_nph(self, abbrev_table):
        m = expand_abbreviation(self.mention("NPH"), abbrev_table)
        assert m.canonical_phrase == "neutral protamine hagedorn"
        assert m.semantic_type is SemanticType.CHEMICAL_OR_DRUG

    def test_ambiguous_ra_flagged(self, abbrev_table):
        m = expand_abbreviation(self.mention("RA"), abbrev_table)
        assert m.canonical_phrase == "RA"
        assert m.ambiguous

    def test_case_sensitive(self):
        table = AbbreviationTable({"HSM": [Expansion("hepatosplenomegaly")]})
        m = expand_abbreviation(self.mention("hsm"), table)
        assert m.canonical_phrase == "hsm"

    def test_unknown_unchanged(self, abbrev_table):
        m = expand_abbreviation(self.mention("fever"), abbrev_table)
        assert m.canonical_phrase == "fever"
        assert not m.ambiguous

