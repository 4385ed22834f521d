import gc
import os
import re
import sys
import tempfile
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehrstruct.assertion import load_rules
from ehrstruct.integrate import parse_entities
from ehrstruct.llm_client import Transcript
from ehrstruct import terminology
from ehrstruct.pipeline import PipelineConfig, read_notes
from ehrstruct.terminology import (
    ATTRIBUTE_KINDS,
    PURPOSE,
    REPORTABLE_TYPES,
    AbbreviationTable,
    ApplicabilityTable,
    InputFormatError,
    LoadReport,
    SemanticType,
    TermIndex,
    load_lexicon,
)


def write_lexicon(tmp_path, lines):
    path = tmp_path / "lex.tsv"
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return path


def answer(index, surface):
    return index.concept_id(surface), index.semantic_type(surface)


class TestLoadLexicon:
    def test_single_entry(self, tmp_path):
        path = write_lexicon(
            tmp_path, ["heart failure\tC42\tDisease, Syndrome or Pathologic Function"]
        )
        index, report = load_lexicon(path)
        assert len(index) == 1
        assert answer(index, "heart failure") == ("C42", SemanticType.DISEASE)
        assert report.duplicates == 0

    def test_empty_file(self, tmp_path):
        index, report = load_lexicon(write_lexicon(tmp_path, []))
        assert len(index) == 0
        assert report.entries == 0

    def test_duplicate_lines_deduplicated(self, tmp_path):
        line = "fever\tC1\tSign, Symptom, or Finding"
        path = write_lexicon(tmp_path, [line, line])
        index, report = load_lexicon(path)
        # oracle: unique (surface, concept_id) pairs by set construction
        assert report.entries == len({("fever", "C1")})
        assert len(index) == 1
        assert report.duplicates == 1

    def test_surfaces_lowercased(self, tmp_path):
        path = write_lexicon(tmp_path, ["Heart Failure\tC1\tDisease, Syndrome or Pathologic Function"])
        index, _ = load_lexicon(path)
        assert index.concept_id("heart failure") == "C1"
        assert index.concept_id("Heart Failure") is None

    def test_unknown_type_maps_to_other(self, tmp_path):
        path = write_lexicon(tmp_path, ["thing\tC1\tNot A Real Type"])
        index, report = load_lexicon(path)
        assert index.semantic_type("thing") is SemanticType.OTHER
        assert report.unknown_types == 1

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
        index, report = load_lexicon(path)
        # the alternate ("fever", "C2") counts as an entry but is not kept
        assert [(s, *answer(index, s)) for s in ("fever", "rash")] == [
            ("fever", "C1", SemanticType.SIGN_SYMPTOM_OR_FINDING),
            ("rash", "C3", SemanticType.OTHER),
        ]
        assert len(index) == 2
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
        with pytest.raises(InputFormatError, match=message):
            load_lexicon(write_lexicon(tmp_path, [line]))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(OSError):
            load_lexicon(tmp_path / "missing.tsv")

    def test_index_tracks_almost_no_objects(self, tmp_path):
        # the collector walks every tracked object on a full pass, so the
        # index must not keep one per line
        names = [t.value for t in REPORTABLE_TYPES]
        lines = [f"term{i} word{i % 97}\tC{i}\t{names[i % len(names)]}" for i in range(20_000)]
        path = write_lexicon(tmp_path, lines)
        gc.collect()
        before = len(gc.get_objects())
        index, report = load_lexicon(path)
        added = len(gc.get_objects()) - before
        assert len(index) == report.entries == 20_000
        assert added < 1_000


def tables(loaded):
    index, report = loaded
    return index._rows, index._concept_ids, index._types, index._lengths, report


_SIDECAR_LINES = [
    "Heart Failure\tC1\tDisease, Syndrome or Pathologic Function",
    "heart failure\tC1\tDisease, Syndrome or Pathologic Function",
    "heart failure\tC9\tOther",
    "",
    "fever\tC2\tSign, Symptom, or Finding",
    "rash\tC3\tNot A Real Type",
    "st. john's wort\tC4\tChemical or Drug",
]


class TestLexiconSidecar:
    """A lexicon of at least terminology._SIDECAR_MIN_BYTES keeps its built
    tables in <lexicon>.ehrstruct-index; the threshold is lowered here so
    that small lexicons take that path."""

    @pytest.fixture
    def lexicon(self, tmp_path, monkeypatch):
        monkeypatch.setattr(terminology, "_SIDECAR_MIN_BYTES", 1)
        return write_lexicon(tmp_path, _SIDECAR_LINES)

    @staticmethod
    def sidecar(path):
        return path.with_name(path.name + ".ehrstruct-index")

    @staticmethod
    def without_parsing(monkeypatch):
        def fail(*args):
            raise AssertionError("the lexicon was parsed")

        monkeypatch.setattr(terminology, "_read_rows", fail)

    def test_warm_load_equals_cold(self, lexicon, monkeypatch):
        cold = tables(load_lexicon(lexicon))
        assert self.sidecar(lexicon).stat().st_size > 0
        assert cold[-1] == LoadReport(total_lines=6, entries=5, duplicates=1, unknown_types=1)
        self.without_parsing(monkeypatch)
        warm = load_lexicon(lexicon)
        assert tables(warm) == cold
        assert type(warm[0]._types) is bytearray
        assert warm[0].longest_match("st. john's wort tea", 0) == len("st. john's wort")

    def test_changed_byte_is_reloaded(self, lexicon, monkeypatch):
        load_lexicon(lexicon)
        data = lexicon.read_bytes()
        lexicon.write_bytes(data.replace(b"fever\tC2", b"fever\tC7"))
        index, _ = load_lexicon(lexicon)
        assert index.concept_id("fever") == "C7"
        self.without_parsing(monkeypatch)
        assert load_lexicon(lexicon)[0].concept_id("fever") == "C7"

    @pytest.mark.parametrize("damage", ["garbage", "empty", "truncated", "other-python"])
    def test_bad_sidecar_is_rebuilt(self, lexicon, monkeypatch, damage):
        cold = tables(load_lexicon(lexicon))
        sidecar = self.sidecar(lexicon)
        if damage == "other-python":
            with monkeypatch.context() as m:
                m.setattr(sys, "version", sys.version + " (another build)")
                sidecar.unlink()
                load_lexicon(lexicon)
        else:
            data = sidecar.read_bytes()
            sidecar.write_bytes({"garbage": b"\x00not marshal", "empty": b"", "truncated": data[:-7]}[damage])
        bad = sidecar.read_bytes()
        assert tables(load_lexicon(lexicon)) == cold
        assert sidecar.read_bytes() != bad
        self.without_parsing(monkeypatch)
        assert tables(load_lexicon(lexicon)) == cold

    @pytest.mark.parametrize("failing", ["mkstemp", "fsync", "replace"])
    def test_unwritable_directory_skips_the_sidecar(self, lexicon, monkeypatch, failing):
        # mkstemp: a read-only directory; fsync and replace: a full disk
        def fail(*args, **kwargs):
            raise OSError(28, "No space left on device")

        cold = tables(load_lexicon(lexicon))
        self.sidecar(lexicon).unlink()
        monkeypatch.setattr(tempfile if failing == "mkstemp" else os, failing, fail)
        assert tables(load_lexicon(lexicon)) == cold
        assert [p.name for p in lexicon.parent.iterdir()] == [lexicon.name]

    def test_malformed_lexicon_fails_every_time(self, lexicon):
        lexicon.write_text("\n".join(_SIDECAR_LINES) + "\nbad line\n", encoding="utf-8")
        for _ in range(2):
            with pytest.raises(InputFormatError, match=f"^{re.escape(str(lexicon))}:8: expected 3"):
                load_lexicon(lexicon)
        assert not self.sidecar(lexicon).exists()

    def test_file_changed_while_parsed_keeps_no_sidecar(self, lexicon, monkeypatch):
        read_rows = terminology._read_rows

        def appending(lines, path, report):
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("cough\tC5\tOther\n")
            return read_rows(lines, path, report)

        monkeypatch.setattr(terminology, "_read_rows", appending)
        load_lexicon(lexicon)
        assert not self.sidecar(lexicon).exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_is_read_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(terminology, "_SIDECAR_MIN_BYTES", 0)
        pipe = tmp_path / "lexicon.fifo"
        os.mkfifo(pipe)
        loaded = []
        # daemon threads: a loader that opened the pipe a second time would
        # wait for a writer forever
        writer = threading.Thread(
            target=pipe.write_text, args=("\n".join(_SIDECAR_LINES),), kwargs={"encoding": "utf-8"}, daemon=True
        )
        reader = threading.Thread(target=lambda: loaded.append(load_lexicon(pipe)), daemon=True)
        writer.start()
        reader.start()
        reader.join(timeout=10)
        writer.join(timeout=10)
        assert not reader.is_alive() and not writer.is_alive()
        index, report = loaded[0]
        assert index.concept_id("fever") == "C2" and report.entries == 5
        assert not self.sidecar(pipe).exists()

    def test_threshold(self, tmp_path):
        # blank lines are skipped, so newlines pad a file to an exact size
        lines = [f"term{i}\tC{i}\tOther" for i in range(40_000)]
        body = "\n".join(lines) + "\n"
        minimum = terminology._SIDECAR_MIN_BYTES
        for size, kept in ((minimum - 1, False), (minimum, True)):
            path = tmp_path / f"{size}.tsv"
            path.write_text(body + "\n" * (size - len(body)), encoding="utf-8")
            assert path.stat().st_size == size
            assert len(load_lexicon(path)[0]) == 40_000
            assert self.sidecar(path).exists() is kept


# Lines whose surfaces differ in case and surrounding whitespace, repeat
# (surface, concept_id) pairs, give one surface alternate ids, or carry
# unknown and Other types; plus blank lines, which are skipped.
_SURFACE_PIECES = ["fever", "Fever", "FEVER", "chest", " ", "  ", "İ", "\0", "_", "é"]
_surfaces = (
    st.lists(st.sampled_from(_SURFACE_PIECES), min_size=1, max_size=3)
    .map("".join)
    .filter(str.strip)
)
_TYPE_NAMES = [
    SemanticType.DISEASE.value,
    f" {SemanticType.CHEMICAL_OR_DRUG.value} ",
    "Other",
    " Other",
    "other",
    "Not A Real Type",
    "",
]
_lines = st.one_of(
    st.builds(
        "{}\t{}\t{}".format,
        _surfaces,
        st.sampled_from(["C1", "C2", " C1 ", "c1", "C3"]),
        st.sampled_from(_TYPE_NAMES),
    ),
    st.sampled_from(["", "   ", "\t\t", " \t \t "]),
)


def _reference_load(lines):
    """Naive loader: a set of (surface, concept_id) pairs and a first-wins
    dict of surface -> (concept_id, type)."""
    pairs, first = set(), {}
    total = duplicates = unknown = 0
    for line in lines:
        if not line.strip():
            continue
        total += 1
        surface, concept_id, type_name = (f.strip() for f in line.split("\t"))
        surface = surface.lower()
        sem_type = SemanticType.from_name(type_name)
        if sem_type is SemanticType.OTHER and type_name != "Other":
            unknown += 1
        if (surface, concept_id) in pairs:
            duplicates += 1
            continue
        pairs.add((surface, concept_id))
        first.setdefault(surface, (concept_id, sem_type))
    return first, (total, len(pairs), duplicates, unknown)


@given(lines=st.lists(_lines, max_size=30))
@settings(max_examples=300, deadline=None)
def test_loader_agrees_with_reference(lines, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "oracle.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    index, report = load_lexicon(path)
    first, counts = _reference_load(lines)
    assert (report.total_lines, report.entries, report.duplicates, report.unknown_types) == counts
    assert len(index) == len(first)
    for surface, expected in first.items():
        assert answer(index, surface) == expected
        assert index.longest_match(surface, 0) == len(surface)
    assert answer(index, "not a surface") == (None, None)


class TestTermIndex:
    def test_longest_match_wins(self, tmp_path):
        path = write_lexicon(
            tmp_path,
            [
                "heart\tC1\tOther",
                "heart failure\tC2\tDisease, Syndrome or Pathologic Function",
            ],
        )
        index, _ = load_lexicon(path)
        assert index.longest_match("heart failure now", 0) == len("heart failure")

    def test_empty_index_matches_nothing(self):
        index = TermIndex()
        assert index.longest_match("heart failure", 0) is None

    def test_match_must_end_at_word_boundary(self, tmp_path):
        path = write_lexicon(tmp_path, ["ra\tC1\tOther"])
        index, _ = load_lexicon(path)
        assert index.longest_match("ra level", 0) == 2
        assert index.longest_match("rapid", 0) is None

    def test_first_entry_wins_for_a_surface(self, tmp_path):
        path = write_lexicon(tmp_path, ["fever\tC1\tOther", "Fever\tC2\tOther"])
        index, _ = load_lexicon(path)
        assert index.concept_id("fever") == "C1"

    def test_loaded_surface_lookup_succeeds(self, sample_index, lexicon_path):
        with open(lexicon_path, encoding="utf-8") as fh:
            surfaces = [line.split("\t")[0].strip().lower() for line in fh if line.strip()]
        assert len(surfaces) == len(sample_index)
        for surface in surfaces:
            assert sample_index.longest_match(surface, 0) is not None

    def test_deterministic_build(self, lexicon_path):
        a, _ = load_lexicon(lexicon_path)
        b, _ = load_lexicon(lexicon_path)
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
    index = TermIndex((s, f"C{i}", SemanticType.DISEASE) for i, s in enumerate(surfaces))
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
        with pytest.raises(InputFormatError):
            ApplicabilityTable.load(path)


def test_semantic_type_names_serialize_with_commas():
    assert SemanticType.DISEASE.value == "Disease, Syndrome or Pathologic Function"
    assert SemanticType.SIGN_SYMPTOM_OR_FINDING.value == "Sign, Symptom, or Finding"
    assert SemanticType.from_name("Sign, Symptom, or Finding") is SemanticType.SIGN_SYMPTOM_OR_FINDING


_ENTITY = '{"note_id": "n", "phrase": "fever", "span": {"start": 0, "end": 5}}'

# One reader per input file: a valid line 1 and a malformed line 2.
_MALFORMED_LINE_2 = {
    "lexicon": (load_lexicon, "fever\tC1\tOther", "bad line without tabs"),
    "lexicon-empty-surface": (load_lexicon, "fever\tC1\tOther", " \tC2\tOther"),
    "abbreviations": (AbbreviationTable.load, "CHF\tcongestive heart failure", "CHF"),
    "abbreviations-empty": (AbbreviationTable.load, "CHF\tcongestive heart failure", "CHF\t "),
    "abbreviations-type": (AbbreviationTable.load, "CHF\tcongestive heart failure", "RA\trheumatoid arthritis\tBogus Type"),
    "abbreviations-type-other": (AbbreviationTable.load, "CHF\tcongestive heart failure", "RA\trheumatoid arthritis\tOther"),
    "rules-fields": (load_rules, "denies\tforward\t6\tAbsent\t10", "no\tforward\t4"),
    "rules-status": (load_rules, "denies\tforward\t6\tAbsent\t10", "no\tforward\t4\tNope\t20"),
    "rules-window": (load_rules, "denies\tforward\t6\tAbsent\t10", "no\tforward\tfour\tAbsent\t20"),
    "rules-scope": (load_rules, "denies\tforward\t6\tAbsent\t10", "no\tsideways\t4\tAbsent\t20"),
    "rules-priority": (load_rules, "denies\tforward\t6\tAbsent\t10", "no\tforward\t4\tAbsent\t10"),
    "applicability": (ApplicabilityTable.load, "Eukaryote = modifier", "Eukaryote = flavor"),
    "applicability-type": (ApplicabilityTable.load, "Eukaryote = modifier", "Fungus = modifier"),
    "config": (PipelineConfig.load, "workers = 2", "workers = four"),
    "config-key": (PipelineConfig.load, "workers = 2", "validate = yes"),
    "notes": (read_notes, '{"note_id": "a", "text": "x"}', '{"note_id": "b"}'),
    "notes-text": (read_notes, '{"note_id": "a", "text": "x"}', '{"note_id": "b", "text": 5}'),
    "notes-json": (read_notes, '{"note_id": "a", "text": "x"}', "not json"),
    "notes-deep": (read_notes, '{"note_id": "a", "text": "x"}', "[" * 100_000 + "]" * 100_000),
    "notes-repeated-id": (read_notes, '{"note_id": "a", "text": "x"}', '{"note_id": "a", "text": "y"}'),
    "entities": (parse_entities, _ENTITY, '["n", "fever"]'),
    "entities-span-list": (parse_entities, _ENTITY, '{"note_id": "n", "phrase": "fever", "span": [0, 5]}'),
    "entities-span-start": (parse_entities, _ENTITY, '{"note_id": "n", "phrase": "fever", "span": {"start": "1", "end": 5}}'),
    "entities-note-id": (parse_entities, _ENTITY, '{"note_id": 1, "phrase": "fever"}'),
    "entities-phrase": (parse_entities, _ENTITY, '{"note_id": "n", "phrase": 5}'),
    "entities-surface": (parse_entities, _ENTITY, '{"note_id": "n", "phrase": "fever", "surface": ["fever"]}'),
    "entities-semantic-type": (parse_entities, _ENTITY, '{"note_id": "n", "phrase": "fever", "semantic_type": 5}'),
    "entities-status": (parse_entities, _ENTITY, '{"note_id": "n", "phrase": "fever", "assertion_status": true}'),
    "entities-value": (parse_entities, _ENTITY, '{"note_id": "n", "phrase": "fever", "value": 5}'),
    "entities-locations": (parse_entities, _ENTITY, '{"note_id": "n", "phrase": "fever", "locations": ["chest", 1]}'),
    "transcript": (Transcript.load, '{"prompt": "p", "response": "r"}', '{"prompt": "x"}'),
    "transcript-list": (Transcript.load, '{"prompt": "p", "response": "r"}', '["a", "b"]'),
    "transcript-type": (Transcript.load, '{"prompt": "p", "response": "r"}', '{"prompt": 1, "response": "r"}'),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_LINE_2))
def test_malformed_line_2_names_file_and_line(tmp_path, case):
    read, good, bad = _MALFORMED_LINE_2[case]
    path = tmp_path / "input.txt"
    path.write_text(f"{good}\n", encoding="utf-8")
    read(path)
    path.write_text(f"{good}\n{bad}\n{good}\n", encoding="utf-8")
    with pytest.raises(InputFormatError) as exc:
        read(path)
    assert exc.value.lineno == 2
    assert str(exc.value.path) == str(path)
    assert str(exc.value).startswith(f"{path}:2: ")


@pytest.mark.parametrize(
    "read, line",
    [
        (lambda path: AbbreviationTable.load(path).expansions("CHF"), "CHF\tcongestive heart failure"),
        (load_rules, "denies\tforward\t6\tAbsent\t10"),
        (ApplicabilityTable.load, "Eukaryote = modifier"),
        (PipelineConfig.load, "workers = 2"),
    ],
    ids=["abbreviations", "rules", "applicability", "config"],
)
def test_blank_and_comment_lines_are_skipped(tmp_path, read, line):
    path = tmp_path / "input.txt"
    path.write_text(f"{line}\n", encoding="utf-8")
    expected = read(path)
    path.write_text(f"# a comment\n\n \t# an indented comment\n{line}\n  \n#\n", encoding="utf-8")
    assert read(path) == expected
