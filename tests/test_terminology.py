import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehrstruct.terminology import (
    ATTRIBUTE_KINDS,
    PURPOSE,
    REPORTABLE_TYPES,
    ApplicabilityTable,
    LexiconEntry,
    LexiconFormatError,
    SemanticType,
    build_index,
    load_lexicon,
)


def write_lexicon(tmp_path, lines):
    path = tmp_path / "lex.tsv"
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return path


class TestLoadLexicon:
    def test_single_entry(self, tmp_path):
        path = write_lexicon(
            tmp_path, ["heart failure\tC42\tDisease, Syndrome or Pathologic Function"]
        )
        entries, report = load_lexicon(path)
        assert len(entries) == 1
        assert entries[0].surface == "heart failure"
        assert entries[0].concept_id == "C42"
        assert entries[0].semantic_type is SemanticType.DISEASE
        assert report.duplicates == 0

    def test_empty_file(self, tmp_path):
        entries, report = load_lexicon(write_lexicon(tmp_path, []))
        assert entries == []
        assert report.entries == 0

    def test_duplicate_lines_deduplicated(self, tmp_path):
        line = "fever\tC1\tSign, Symptom, or Finding"
        path = write_lexicon(tmp_path, [line, line])
        entries, report = load_lexicon(path)
        # oracle: unique (surface, concept_id) pairs by set construction
        assert len(entries) == len({("fever", "C1")})
        assert report.duplicates == 1

    def test_surfaces_lowercased(self, tmp_path):
        path = write_lexicon(tmp_path, ["Heart Failure\tC1\tDisease, Syndrome or Pathologic Function"])
        entries, _ = load_lexicon(path)
        assert entries[0].surface == "heart failure"

    def test_unknown_type_maps_to_other(self, tmp_path):
        path = write_lexicon(tmp_path, ["thing\tC1\tNot A Real Type"])
        entries, report = load_lexicon(path)
        assert entries[0].semantic_type is SemanticType.OTHER
        assert report.unknown_types == 1

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = write_lexicon(tmp_path, ["good\tC1\tOther", "bad line without tabs"])
        with pytest.raises(LexiconFormatError) as exc:
            load_lexicon(path)
        assert exc.value.lineno == 2

    def test_fields_stripped_and_counted(self, tmp_path):
        path = write_lexicon(
            tmp_path,
            [
                " Fever \t C1 \t Sign, Symptom, or Finding ",
                "",
                "fever\tC1\tSign, Symptom, or Finding",
                "fever\tC2\t Other ",
                "rash\tC3\tNot A Real Type",
            ],
        )
        entries, report = load_lexicon(path)
        assert [(e.surface, e.concept_id, e.semantic_type) for e in entries] == [
            ("fever", "C1", SemanticType.SIGN_SYMPTOM_OR_FINDING),
            ("fever", "C2", SemanticType.OTHER),
            ("rash", "C3", SemanticType.OTHER),
        ]
        assert (report.total_lines, report.entries, report.duplicates, report.unknown_types) == (
            4, 3, 1, 1,
        )

    @pytest.mark.parametrize(
        "line, message",
        [
            ("a\tb", ":1: expected 3 tab-separated fields, got 2"),
            ("a\tb\tc\td", ":1: expected 3 tab-separated fields, got 4"),
            (" \tC1\tOther", ":1: empty surface"),
        ],
    )
    def test_format_errors(self, tmp_path, line, message):
        with pytest.raises(LexiconFormatError, match=message):
            load_lexicon(write_lexicon(tmp_path, [line]))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(OSError):
            load_lexicon(tmp_path / "missing.tsv")


class TestTermIndex:
    def test_longest_match_wins(self, tmp_path):
        path = write_lexicon(
            tmp_path,
            [
                "heart\tC1\tOther",
                "heart failure\tC2\tDisease, Syndrome or Pathologic Function",
            ],
        )
        entries, _ = load_lexicon(path)
        index = build_index(entries)
        assert index.longest_match("heart failure now", 0) == len("heart failure")

    def test_empty_index_matches_nothing(self):
        index = build_index([])
        assert index.longest_match("heart failure", 0) is None

    def test_match_must_end_at_word_boundary(self, tmp_path):
        path = write_lexicon(tmp_path, ["ra\tC1\tOther"])
        entries, _ = load_lexicon(path)
        index = build_index(entries)
        assert index.longest_match("ra level", 0) == 2
        assert index.longest_match("rapid", 0) is None

    def test_first_entry_wins_for_a_surface(self, tmp_path):
        path = write_lexicon(tmp_path, ["fever\tC1\tOther", "Fever\tC2\tOther"])
        entries, _ = load_lexicon(path)
        assert build_index(entries).entry_for("fever").concept_id == "C1"

    def test_loaded_surface_lookup_succeeds(self, sample_index, sample_entries):
        for e in sample_entries:
            assert sample_index.longest_match(e.surface, 0) is not None

    def test_deterministic_build(self, sample_entries):
        a = build_index(sample_entries)
        b = build_index(sample_entries)
        probes = ["heart failure", "hsm noted", "no ileus today", "xyzzy"]
        for text in probes:
            assert a.longest_match(text, 0) == b.longest_match(text, 0)


# Pieces where matching is easy to get wrong: 'i\u0307' is what 'İ' lowercases
# to, and U+0307 is not alphanumeric; '_' and '\0' are not alphanumeric
# either; 'é' and '2' are; 'st.' and '-x' end or start in punctuation.
_PIECES = ["a", "b", "ab", "é", "2", " ", ".", "-", "_", "\0", "i\u0307", "İ", "st.", "-x"]
_pieces = st.lists(st.sampled_from(_PIECES), max_size=5).map("".join)


def _brute_longest_match(text, start, surfaces):
    """Longest surface equal to text[start:start+len] that ends where no
    alphanumeric pair straddles the end; None when there is none."""
    best = None
    for s in surfaces:
        end = start + len(s)
        if not s or text[start:end] != s:
            continue
        if 0 < end < len(text) and text[end - 1].isalnum() and text[end].isalnum():
            continue
        if best is None or len(s) > best:
            best = len(s)
    return best


@given(
    surfaces=st.lists(_pieces, max_size=12),
    text=st.lists(st.one_of(_pieces, st.sampled_from(_PIECES)), max_size=12).map("".join),
)
@example(surfaces=["fever"], text="fever\0 today")  # NUL right after a surface
@example(surfaces=[""], text=" a.")  # an empty surface never matches, not even with length 0
@settings(max_examples=400, deadline=None)
def test_longest_match_agrees_with_brute_force(surfaces, text):
    index = build_index([LexiconEntry(s, f"C{i}", SemanticType.DISEASE) for i, s in enumerate(surfaces)])
    for start in range(len(text) + 1):
        expected = _brute_longest_match(text, start, surfaces)
        run_end = start
        while run_end < len(text) and text[run_end].isalnum():
            run_end += 1
        assert index.longest_match(text, start) == expected
        assert index.longest_match(text, start, text[start:run_end]) == expected


class TestApplicability:
    def test_disease_has_no_purpose(self):
        kinds = ApplicabilityTable().applicable_attributes(SemanticType.DISEASE)
        assert kinds == {"location", "modifier", "value", "unit"}
        assert PURPOSE not in kinds

    def test_drug_has_purpose_but_no_location(self):
        kinds = ApplicabilityTable().applicable_attributes(SemanticType.CHEMICAL_OR_DRUG)
        assert kinds == {"modifier", "value", "unit", "purpose"}

    def test_other_raises(self):
        with pytest.raises(ValueError, match="non-reportable"):
            ApplicabilityTable().applicable_attributes(SemanticType.OTHER)

    def test_totality(self):
        table = ApplicabilityTable()
        for t in REPORTABLE_TYPES:
            kinds = table.applicable_attributes(t)
            assert kinds <= set(ATTRIBUTE_KINDS)
            assert kinds

    def test_purpose_excluded_exactly_for_configured_types(self):
        table = ApplicabilityTable()
        with_purpose = {t for t in REPORTABLE_TYPES if PURPOSE in table.applicable_attributes(t)}
        assert with_purpose == {
            SemanticType.CHEMICAL_OR_DRUG,
            SemanticType.DIAGNOSTIC_PROCEDURE,
            SemanticType.THERAPEUTIC_OR_PREVENTIVE_PROCEDURE,
            SemanticType.LABORATORY_PROCEDURE,
        }

    def test_override_file(self, tmp_path):
        path = tmp_path / "applic.cfg"
        path.write_text("Chemical or Drug = value, unit\n", encoding="utf-8")
        table = ApplicabilityTable.load(path)
        assert table.applicable_attributes(SemanticType.CHEMICAL_OR_DRUG) == {"value", "unit"}
        # unmentioned types keep defaults
        assert table.applicable_attributes(SemanticType.DISEASE) == {
            "location", "modifier", "value", "unit",
        }

    def test_override_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "applic.cfg"
        path.write_text("Chemical or Drug = flavor\n", encoding="utf-8")
        with pytest.raises(LexiconFormatError):
            ApplicabilityTable.load(path)


def test_semantic_type_names_serialize_with_commas():
    assert SemanticType.DISEASE.value == "Disease, Syndrome or Pathologic Function"
    assert SemanticType.SIGN_SYMPTOM_OR_FINDING.value == "Sign, Symptom, or Finding"
    assert SemanticType.from_name("Sign, Symptom, or Finding") is SemanticType.SIGN_SYMPTOM_OR_FINDING
