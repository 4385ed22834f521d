import codecs
import errno
import gc
import hashlib
import io
import logging
import marshal
import mmap
import os
import re
import sys
import tempfile
import threading
import zlib
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehrstruct.assertion import load_rules
from ehrstruct.integrate import parse_entities
from ehrstruct.llm_client import Transcript
from ehrstruct import terminology
from ehrstruct.pipeline import PipelineConfig, read_notes
from ehrstruct.preprocess import segment
from ehrstruct.terminology import (
    ATTRIBUTE_KINDS,
    PURPOSE,
    REPORTABLE_TYPES,
    AbbreviationTable,
    Expansion,
    InputFormatError,
    LoadReport,
    SemanticType,
    TermIndex,
    fold_case,
    load_applicability,
    load_lexicon,
)


def write_lexicon(tmp_path, lines):
    path = tmp_path / "lex.tsv"
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return path


def answer(index, surface):
    """(concept_id, semantic type) the index holds for surface, or (None,
    None). A scan of the surface alone matches it whole exactly when the
    index holds it, for the whole surface is the longest match possible at
    0; a surface with no leading letter or digit is never matched."""
    matches = index.scan(surface)
    if matches and matches[0][:2] == (0, len(surface)):
        return matches[0][2:]
    return None, None


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
        assert answer(index, "heart failure")[0] == "C1"
        assert answer(index, "Heart Failure") == (None, None)

    def test_unknown_type_maps_to_other(self, tmp_path):
        path = write_lexicon(tmp_path, ["thing\tC1\tNot A Real Type"])
        index, report = load_lexicon(path)
        assert answer(index, "thing")[1] is SemanticType.OTHER
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


_SIDECAR_LINES = [
    "Heart Failure\tC1\tDisease, Syndrome or Pathologic Function",
    "heart failure\tC1\tDisease, Syndrome or Pathologic Function",
    "heart failure\tC9\tOther",
    "",
    "fever\tC2\tSign, Symptom, or Finding",
    "rash\tC3\tNot A Real Type",
    "st. john's wort\tC4\tChemical or Drug",
]
# the surfaces of _SIDECAR_LINES, and strings that share a head word with one
_SIDECAR_PROBES = ["heart failure", "heart", "fever", "fever now", "rash", "st. john's wort", "st", "cough"]


def tables(loaded):
    """What a load answers, read through the index's queries: each probe's
    concept id and type and its scan's matches, the size, the head words and
    the report."""
    index, report = loaded
    answers = [(p, *answer(index, p), index.scan(p)) for p in _SIDECAR_PROBES]
    return answers, len(index), head_words(index), report


def head_words(index):
    """Every head word the index holds a surface table for."""
    return sorted(index._tables)


def decoded_heads(index):
    """The head words whose surface table the index holds decoded."""
    return sorted(head for head, table in index._tables.items() if isinstance(table, dict))


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

    @staticmethod
    def parses(monkeypatch):
        """A list that grows by one entry for each parse of a lexicon."""
        read_rows, calls = terminology._read_rows, []

        def counting(*args):
            calls.append(1)
            return read_rows(*args)

        monkeypatch.setattr(terminology, "_read_rows", counting)
        return calls

    @staticmethod
    def parsed(path):
        """What a parse of the lexicon as it now is gives, its sidecar passed by."""
        with pytest.MonkeyPatch.context() as m:
            m.setattr(terminology, "_SIDECAR_MIN_BYTES", sys.maxsize)
            return tables(load_lexicon(path))

    def test_warm_load_equals_cold(self, lexicon, monkeypatch):
        cold = tables(load_lexicon(lexicon))
        assert self.sidecar(lexicon).stat().st_size > 0
        assert cold[-1] == LoadReport(total_lines=6, entries=5, duplicates=1, unknown_types=1)
        self.without_parsing(monkeypatch)
        warm = load_lexicon(lexicon)
        assert tables(warm) == cold
        assert answer(warm[0], "fever") == ("C2", SemanticType.SIGN_SYMPTOM_OR_FINDING)
        assert warm[0].scan("st. john's wort tea") == [(0, len("st. john's wort"), "C4", SemanticType.CHEMICAL_OR_DRUG)]

    def test_warm_load_decodes_a_head_on_its_first_lookup(self, lexicon):
        cold, _ = load_lexicon(lexicon)
        assert decoded_heads(cold) == ["fever", "heart", "rash", "st"]
        index, _ = load_lexicon(lexicon)
        assert decoded_heads(index) == []
        assert len(index) == 4 and head_words(index) == ["fever", "heart", "rash", "st"]
        assert index.scan("fever now") == [(0, len("fever"), "C2", SemanticType.SIGN_SYMPTOM_OR_FINDING)]
        assert decoded_heads(index) == ["fever"]
        assert answer(index, "fever") == ("C2", SemanticType.SIGN_SYMPTOM_OR_FINDING)
        assert answer(index, "heart failure")[0] == "C1"
        assert decoded_heads(index) == ["fever", "heart"]
        assert answer(index, "cough") == (None, None) and index.scan("cough") == []
        assert decoded_heads(index) == ["fever", "heart"]

    def test_decoded_tables_are_not_tracked(self, tmp_path, monkeypatch):
        # as test_index_tracks_almost_no_objects, for an index read from its
        # sidecar with every head's table then decoded
        monkeypatch.setattr(terminology, "_SIDECAR_MIN_BYTES", 1)
        lines = [f"term{i} word{i % 97}\tC{i}\tOther" for i in range(20_000)]
        path = write_lexicon(tmp_path, lines)
        load_lexicon(path)
        gc.collect()
        before = len(gc.get_objects())
        index, _ = load_lexicon(path)
        assert decoded_heads(index) == []
        assert all(index.scan(f"term{i} word{i % 97}") for i in range(20_000))
        assert decoded_heads(index) == head_words(index)
        assert len(gc.get_objects()) - before < 1_000

    def test_threads_share_a_warm_index(self, lexicon):
        # each round's threads race to decode the same heads of a fresh index
        cold = tables(load_lexicon(lexicon))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                loaded = load_lexicon(lexicon)
                barrier = threading.Barrier(8)
                results = []

                def look():
                    barrier.wait(timeout=10)
                    results.append(tables(loaded))

                threads = [threading.Thread(target=look) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert results == [cold] * 8
        finally:
            sys.setswitchinterval(interval)

    def test_changed_byte_is_reloaded(self, lexicon, monkeypatch):
        load_lexicon(lexicon)
        data = lexicon.read_bytes()
        lexicon.write_bytes(data.replace(b"fever\tC2", b"fever\tC7"))
        index, _ = load_lexicon(lexicon)
        assert answer(index, "fever")[0] == "C7"
        self.without_parsing(monkeypatch)
        assert answer(load_lexicon(lexicon)[0], "fever")[0] == "C7"

    @pytest.mark.parametrize(
        "damage",
        [
            "garbage", "empty", "truncated", "grown", "other-python", "byte-in-a-blob", "last-blob-cut",
            "byte-in-the-copy", "copyless-lexicon-hash", "copyless-same-tag",
        ],
    )
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
            # the last "C2" is fever's concept id, inside the encoded table of
            # its head; the last surface is written inside the last head's. The
            # first "fever\tC2" is in the copy of the lexicon, which comes before
            # the tables, and they hold no "\tC".
            c2 = data.rindex(b"C2")
            # the layout before the copy was kept: a 32-byte key, which hashed
            # the lexicon's bytes too, then the header and tables
            tables_part = data[terminology._COPY_START + lexicon.stat().st_size :]
            source = Path(terminology.__file__).read_bytes()
            lexicon_hash = hashlib.sha256(source + sys.version.encode() + lexicon.read_bytes()).digest()
            sidecar.write_bytes({
                "garbage": b"\x00not marshal",
                "empty": b"",
                "truncated": data[:-7],
                "grown": data + b"\0",
                "byte-in-a-blob": data[:c2] + b"C7" + data[c2 + 2 :],
                "last-blob-cut": data[: data.rindex(b"st. john's wort")],
                "byte-in-the-copy": data.replace(b"fever\tC2", b"fever\tC7", 1),
                "copyless-lexicon-hash": lexicon_hash + tables_part,
                "copyless-same-tag": data[:32] + tables_part,
            }[damage])
        bad = sidecar.read_bytes()
        loaded = load_lexicon(lexicon)
        # a damaged sidecar is rewritten: damage inside a table when a scan
        # first decodes that table, any other at set-up
        assert (sidecar.read_bytes() == bad) is (damage == "byte-in-a-blob")
        assert tables(loaded) == cold
        assert sidecar.read_bytes() != bad
        self.without_parsing(monkeypatch)
        assert tables(load_lexicon(lexicon)) == cold

    @pytest.mark.parametrize(
        "damage, warns",
        [
            # the tag and the copy match; a checksum fails, or the size the header gives
            ("truncated", True), ("grown", True), ("byte-in-a-blob", True), ("last-blob-cut", True),
            # foreign or stale: another module or Python, or a copy unlike the lexicon
            ("garbage", False), ("empty", False), ("other-python", False), ("byte-in-the-copy", False),
            ("copyless-lexicon-hash", False), ("copyless-same-tag", False),
        ],
    )
    def test_only_a_damaged_sidecar_warns(self, lexicon, monkeypatch, caplog, damage, warns):
        self.test_bad_sidecar_is_rebuilt(lexicon, monkeypatch, damage)
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        damaged = f"lexicon sidecar {self.sidecar(lexicon)} is damaged (its checksum or header fails); rebuilding it"
        assert warnings == ([damaged] if warns else [])

    @staticmethod
    def damage_table(sidecar, concept_id):
        """Change concept_id's last occurrence in the sidecar, inside the
        table of its surface's head word: the copy of the lexicon comes
        before the tables."""
        data = sidecar.read_bytes()
        at = data.rindex(concept_id)
        sidecar.write_bytes(data[:at] + b"C7" + data[at + 2 :])
        return sidecar.read_bytes()

    def test_warm_load_checks_the_header_and_each_table_it_decodes(self, lexicon, monkeypatch):
        load_lexicon(lexicon)
        crc32, checked = zlib.crc32, []

        def counting(data, *args):
            checked.append(bytes(data))
            return crc32(data, *args)

        monkeypatch.setattr(zlib, "crc32", counting)
        index, _ = load_lexicon(lexicon)
        assert len(checked) == 1  # the header
        for text, checks in [("fever now", 2), ("fever", 2), ("heart failure", 3), ("cough", 3), ("rash", 4)]:
            index.scan(text)
            assert len(checked) == checks
        # each check covers the bytes that are then decoded, and only those
        assert marshal.loads(checked[0])[:2] == (4, index._lengths)
        assert [marshal.loads(data) for data in checked[1:]] == [index._tables[h] for h in ("fever", "heart", "rash")]

    def test_damage_no_scan_reaches_never_surfaces(self, lexicon, monkeypatch, caplog):
        cold = load_lexicon(lexicon)[0]
        bad = self.damage_table(self.sidecar(lexicon), b"C3")  # rash's table
        with monkeypatch.context() as m:
            self.without_parsing(m)
            index, _ = load_lexicon(lexicon)
            for probe in ["heart failure", "fever now", "st. john's wort", "cough"]:
                assert index.scan(probe) == cold.scan(probe)
        assert self.sidecar(lexicon).read_bytes() == bad
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        # the damage is there, for a scan that reaches it
        assert index.scan("rash") == cold.scan("rash")
        assert self.sidecar(lexicon).read_bytes() != bad
        assert len([r for r in caplog.records if r.levelno >= logging.WARNING]) == 1

    @pytest.mark.parametrize("failing", ["compare", "map"])
    def test_a_sidecar_that_cannot_be_read_is_passed_by(self, lexicon, monkeypatch, failing):
        cold = tables(load_lexicon(lexicon))

        def fail(*args, **kwargs):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(*((terminology, "_same_bytes") if failing == "compare" else (mmap, "mmap")), fail)
        parses = self.parses(monkeypatch)
        assert tables(load_lexicon(lexicon)) == cold
        assert parses == [1]

    def test_threads_meeting_a_damaged_table_mend_it_once(self, lexicon, monkeypatch, caplog):
        cold = tables(load_lexicon(lexicon))
        parses = self.parses(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for rounds in range(1, 6):
                bad = self.damage_table(self.sidecar(lexicon), b"C2")  # fever's table
                loaded = load_lexicon(lexicon)
                barrier = threading.Barrier(8)
                results = []

                def look():
                    barrier.wait(timeout=10)
                    results.append((loaded[0].scan("fever now"), tables(loaded)))

                threads = [threading.Thread(target=look) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert results == [([(0, 5, "C2", SemanticType.SIGN_SYMPTOM_OR_FINDING)], cold)] * 8
                assert parses == [1] * rounds and self.sidecar(lexicon).read_bytes() != bad
        finally:
            sys.setswitchinterval(interval)
        damaged = f"lexicon sidecar {self.sidecar(lexicon)} is damaged (its checksum or header fails); rebuilding it"
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == [damaged] * 5

    @pytest.mark.parametrize("failing", ["mkstemp", "write", "fsync", "replace"])
    def test_unwritable_directory_skips_the_sidecar(self, lexicon, monkeypatch, failing):
        # mkstemp: a read-only directory; write, fsync and replace: a full disk
        def fail(*args, **kwargs):
            raise OSError(28, "No space left on device")

        class Full:
            """A file open for writing on a full disk."""

            def __init__(self, fh):
                self.fh = fh

            def __getattr__(self, name):
                return fail if name in ("write", "writelines") else getattr(self.fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        cold = tables(load_lexicon(lexicon))
        self.sidecar(lexicon).unlink()
        if failing == "write":
            fdopen = os.fdopen
            monkeypatch.setattr(os, "fdopen", lambda *args, **kwargs: Full(fdopen(*args, **kwargs)))
        else:
            monkeypatch.setattr(tempfile if failing == "mkstemp" else os, failing, fail)
        assert tables(load_lexicon(lexicon)) == cold
        assert [p.name for p in lexicon.parent.iterdir()] == [lexicon.name]

    @pytest.mark.parametrize("room", [0, 40, 300_000, 1_000_000])
    def test_disk_that_fills_during_the_copy(self, tmp_path, monkeypatch, room):
        # the draft's file takes room bytes of a lexicon longer than any room,
        # then every write fails, also the flush when the draft is closed
        path = write_lexicon(tmp_path, [f"term{i}\tC{i}\tOther" for i in range(60_000)])
        assert path.stat().st_size > max(1_000_000, terminology._SIDECAR_MIN_BYTES)
        written = 0

        class Filling(io.FileIO):
            def write(self, data):
                nonlocal written
                n = min(len(data), room - written)
                if n <= 0:
                    raise OSError(errno.ENOSPC, "No space left on device")
                written += n
                return super().write(memoryview(data)[:n])

        with monkeypatch.context() as m:
            m.setattr(os, "fdopen", lambda fd, *args: io.BufferedWriter(Filling(fd, "w"), terminology._CHUNK_BYTES))
            loaded = load_lexicon(path)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert len(loaded[0]) == 60_000 and answer(loaded[0], "term59999") == ("C59999", SemanticType.OTHER)
        assert tables(loaded) == self.parsed(path)

    def test_malformed_lexicon_fails_every_time(self, lexicon):
        lexicon.write_text("\n".join(_SIDECAR_LINES) + "\nbad line\n", encoding="utf-8")
        for _ in range(2):
            with pytest.raises(InputFormatError, match=f"^{re.escape(str(lexicon))}:8: expected 3"):
                load_lexicon(lexicon)
        assert not self.sidecar(lexicon).exists()

    @pytest.mark.parametrize("change", ["append", "rewrite", "truncate"])
    def test_file_changed_while_parsed_is_never_misread(self, lexicon, monkeypatch, change):
        # the file grows before the parse reads it, or is rewritten or cut
        # after the parse read its bytes: no later load may answer from tables
        # of bytes the file no longer holds
        read_rows = terminology._read_rows
        data = lexicon.read_bytes()

        def changing(lines, path, report):
            if change == "append":
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write("cough\tC5\tOther\n")
            rows = read_rows(lines, path, report)
            yield next(rows)
            if change == "rewrite":
                lexicon.write_bytes(data.replace(b"fever\tC2", b"fever\tC7"))
            elif change == "truncate":
                lexicon.write_bytes(data[: data.index(b"st. john's wort")])
            yield from rows

        with monkeypatch.context() as m:
            m.setattr(terminology, "_read_rows", changing)
            load_lexicon(lexicon)
        for _ in ("next", "then"):
            assert tables(load_lexicon(lexicon)) == self.parsed(lexicon)

    @pytest.mark.parametrize("edit", ["first", "middle", "last", "longer", "shorter"])
    def test_edited_lexicon_is_a_miss(self, lexicon, monkeypatch, edit):
        # "Heart" -> "Jeart", "heart" -> "hxart", the last line break -> a
        # space, one more line break, one line break fewer: the last three
        # parse to the same tables, only the file's bytes change
        load_lexicon(lexicon)
        data = lexicon.read_bytes()
        middle = len(data) // 2
        lexicon.write_bytes({
            "first": b"J" + data[1:],
            "middle": data[:middle] + b"x" + data[middle + 1 :],
            "last": data[:-1] + b" ",
            "longer": data + b"\n",
            "shorter": data[:-1],
        }[edit])
        parses = self.parses(monkeypatch)
        loaded = tables(load_lexicon(lexicon))
        assert parses == [1]
        assert loaded == self.parsed(lexicon)

    def test_warm_load_hashes_no_lexicon_byte(self, lexicon, monkeypatch):
        load_lexicon(lexicon)
        sha256, fed = hashlib.sha256, []

        class Counting:
            def __init__(self, data=b""):
                self.inner = sha256()
                self.update(data)

            def update(self, data):
                fed.append(bytes(data))
                self.inner.update(data)

            def digest(self):
                return self.inner.digest()

        monkeypatch.setattr(hashlib, "sha256", Counting)
        self.without_parsing(monkeypatch)
        assert answer(load_lexicon(lexicon)[0], "fever")[0] == "C2"
        # the tag hashes this module's source and the Python version only
        assert b"".join(fed) == Path(terminology.__file__).read_bytes() + sys.version.encode()

    @pytest.mark.parametrize("bad", [b"bad line", b"caf\xe9\tC8\tOther"], ids=["format", "encoding"])
    def test_failed_parse_leaves_no_temp_file(self, lexicon, bad):
        # the bad line comes after chunks of the lexicon the parse has read
        good = "".join(f"term{i}\tC{i}\tOther\n" for i in range(5_000)).encode()
        lexicon.write_bytes(good + bad + b"\n" + lexicon.read_bytes())
        with pytest.raises(InputFormatError, match=f"^{re.escape(str(lexicon))}"):
            load_lexicon(lexicon)
        assert [p.name for p in lexicon.parent.iterdir()] == [lexicon.name]

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
        assert answer(index, "fever")[0] == "C2" and report.entries == 5
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
    dict of surface -> (concept_id, type), and the report's counts."""
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
    unmatchable = sum(not surface[0].isalnum() for surface in first)
    return first, (total, len(pairs), duplicates, unknown, unmatchable)


@given(lines=st.lists(_lines, max_size=30))
@settings(max_examples=300, deadline=None)
def test_loader_agrees_with_reference(lines, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "oracle.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    index, report = load_lexicon(path)
    first, counts = _reference_load(lines)
    assert (
        report.total_lines, report.entries, report.duplicates, report.unknown_types, report.unmatchable
    ) == counts
    assert len(index) == len(first)
    for surface, expected in first.items():
        matches = index.scan(surface)
        if surface[0].isalnum():
            assert answer(index, surface) == expected
            assert matches[0] == (0, len(surface), *expected)
        else:  # the empty head word starts no match; the report counts it
            assert all(start > 0 for start, *_ in matches)
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
        assert index.scan("heart failure now") == [(0, len("heart failure"), "C2", SemanticType.DISEASE)]

    def test_empty_index_matches_nothing(self):
        index = TermIndex()
        assert index.scan("heart failure") == []

    def test_match_must_end_at_word_boundary(self, tmp_path):
        path = write_lexicon(tmp_path, ["ra\tC1\tOther"])
        index, _ = load_lexicon(path)
        assert index.scan("ra level") == [(0, 2, "C1", SemanticType.OTHER)]
        assert index.scan("rapid") == []

    def test_first_entry_wins_for_a_surface(self, tmp_path):
        path = write_lexicon(tmp_path, ["fever\tC1\tOther", "Fever\tC2\tOther"])
        index, _ = load_lexicon(path)
        assert answer(index, "fever")[0] == "C1"

    def test_loaded_surface_lookup_succeeds(self, sample_index, lexicon_path):
        with open(lexicon_path, encoding="utf-8") as fh:
            surfaces = [line.split("\t")[0].strip().lower() for line in fh if line.strip()]
        assert len(surfaces) == len(sample_index)
        for surface in surfaces:
            assert sample_index.scan(surface)[0][:2] == (0, len(surface))

    def test_deterministic_build(self, lexicon_path):
        a, _ = load_lexicon(lexicon_path)
        b, _ = load_lexicon(lexicon_path)
        probes = ["heart failure", "hsm noted", "no ileus today", "xyzzy"]
        for text in probes:
            assert a.scan(text) == b.scan(text)


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


def _brute_scan(text, surfaces):
    """Forward maximum matching by brute force: the longest match at each
    start of an alphanumeric run that is not inside the last match, as
    (start, end, concept id of the first such surface)."""
    found, resume = [], 0
    for start in range(len(text)):
        if start < resume or not text[start].isalnum() or (start and text[start - 1].isalnum()):
            continue
        length = _brute_longest_match(text, start, surfaces)
        if length is not None:
            resume = start + length
            found.append((start, resume, f"C{surfaces.index(text[start:resume])}"))
    return found


@given(
    surfaces=st.lists(_pieces, max_size=12),
    text=st.lists(st.one_of(_pieces, st.sampled_from(_PIECES)), max_size=12).map("".join),
)
@example(surfaces=["fever"], text="fever\0 today")  # NUL right after a surface
@example(surfaces=[""], text=" a.")  # an empty surface never matches, not even with length 0
@example(surfaces=["a b", "b"], text="a b")  # no match starts inside another
@settings(max_examples=400, deadline=None)
def test_longest_match_agrees_with_brute_force(surfaces, text):
    index = TermIndex((s, f"C{i}", SemanticType.DISEASE) for i, s in enumerate(surfaces))
    expected = [(*match, SemanticType.DISEASE) for match in _brute_scan(text, surfaces)]
    assert index.scan(text) == expected


def test_only_a_dotted_capital_i_lowercases_to_more_than_one_character():
    """fold_case keeps each 'İ' and lowers the rest with str.lower, which
    keeps the length only while no other code point lowercases longer."""
    longer = [cp for cp in range(sys.maxunicode + 1) if len(chr(cp).lower()) > 1]
    assert longer == [0x130]


@given(st.text(st.sampled_from("ΣσςİΟΔaZé .:\n"), max_size=40))
@example("İ.\nΟΔΟΣ")
@example("ΟΔΟΣ.\n\nİ")
@settings(max_examples=400, deadline=None)
def test_the_fold_of_a_note_is_the_fold_of_each_sentence(text):
    # every sentence boundary lies at the text's ends or right after
    # whitespace, where no letter's fold looks across
    folded = fold_case(text)
    assert len(folded) == len(text)
    for s in segment(text):
        assert folded[s.start : s.end] == fold_case(text[s.start : s.end])


class TestApplicability:
    def test_disease_has_no_purpose(self):
        kinds = load_applicability()[SemanticType.DISEASE]
        assert kinds == {"location", "modifier", "value", "unit"}
        assert PURPOSE not in kinds

    def test_drug_has_purpose_but_no_location(self):
        kinds = load_applicability()[SemanticType.CHEMICAL_OR_DRUG]
        assert kinds == {"modifier", "value", "unit", "purpose"}

    def test_other_raises(self):
        # recognition reports no mention of type Other, so none is looked up
        with pytest.raises(KeyError):
            load_applicability()[SemanticType.OTHER]

    def test_totality(self):
        table = load_applicability()
        assert set(table) == set(REPORTABLE_TYPES)
        for t in REPORTABLE_TYPES:
            kinds = table[t]
            assert kinds <= set(ATTRIBUTE_KINDS)
            assert kinds

    def test_purpose_excluded_exactly_for_configured_types(self):
        table = load_applicability()
        with_purpose = {t for t in REPORTABLE_TYPES if PURPOSE in table[t]}
        assert with_purpose == {
            SemanticType.CHEMICAL_OR_DRUG,
            SemanticType.DIAGNOSTIC_PROCEDURE,
            SemanticType.THERAPEUTIC_OR_PREVENTIVE_PROCEDURE,
            SemanticType.LABORATORY_PROCEDURE,
        }

    def test_override_file(self, tmp_path):
        path = tmp_path / "applic.cfg"
        path.write_text("Chemical or Drug = value, unit\n", encoding="utf-8")
        table = load_applicability(path)
        assert table[SemanticType.CHEMICAL_OR_DRUG] == {"value", "unit"}
        # unmentioned types keep defaults
        assert table[SemanticType.DISEASE] == {
            "location", "modifier", "value", "unit",
        }

    def test_a_repeated_type_fails_at_its_line(self, tmp_path):
        # a user's row overrides the packaged one; a second row of its own does not
        path = tmp_path / "applic.cfg"
        path.write_text("Eukaryote = modifier\n# a comment\nEukaryote = location, value\n", encoding="utf-8")
        with pytest.raises(InputFormatError, match=f"^{re.escape(str(path))}:3: duplicate type 'Eukaryote', first on line 1$"):
            load_applicability(path)

    def test_override_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "applic.cfg"
        path.write_text("Chemical or Drug = flavor\n", encoding="utf-8")
        with pytest.raises(InputFormatError):
            load_applicability(path)

    def test_no_table_can_change_the_defaults(self, tmp_path):
        # the packaged table is parsed once and shared
        assert load_applicability() is load_applicability()
        path = tmp_path / "applic.cfg"
        path.write_text("Disease, Syndrome or Pathologic Function = purpose\n", encoding="utf-8")
        for table in (load_applicability(), load_applicability(path)):
            with pytest.raises(TypeError):
                table[SemanticType.DISEASE] = frozenset()
        assert load_applicability()[SemanticType.DISEASE] == {
            "location", "modifier", "value", "unit",
        }


def test_every_data_file_ships_with_the_package():
    # setuptools installs only the data files that a package-data glob
    # names, and set-up reads the default trigger rules and applicability
    # from two of them: an installed package without them fails at set-up
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = Path(__file__).parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["ehrstruct.data"]
    files = list((root / "src" / "ehrstruct" / "data").iterdir())
    assert {"assertion_rules.tsv", "applicability.txt"} <= {path.name for path in files}
    assert [path.name for path in files if not (path.is_file() and any(path.match(g) for g in globs))] == []


def test_a_repeated_abbreviation_line_is_skipped_and_another_type_names_the_first(tmp_path):
    path = tmp_path / "abbreviations.tsv"
    line = "HSM\thepatosplenomegaly\tSign, Symptom, or Finding"
    path.write_text(f"{line}\nRA\tRoom Air\n{line}\n", encoding="utf-8")
    assert AbbreviationTable.load(path).expansions("HSM") == [
        Expansion("hepatosplenomegaly", SemanticType.SIGN_SYMPTOM_OR_FINDING)
    ]
    path.write_text(f"{line}\nRA\tRoom Air\nHSM\thepatosplenomegaly\tDisease, Syndrome or Pathologic Function\n", encoding="utf-8")
    with pytest.raises(InputFormatError, match=f"^{re.escape(str(path))}:3: .* another type than on line 1$"):
        AbbreviationTable.load(path)


def test_an_expansion_repeated_in_another_case_is_the_same_expansion(tmp_path):
    # as AbbreviationTable.equivalent compares them: the first line's form wins
    path = tmp_path / "abbreviations.tsv"
    line = "HSM\thepatosplenomegaly\tSign, Symptom, or Finding"
    path.write_text(f"{line}\nHSM\tHepatosplenomegaly\tSign, Symptom, or Finding\n", encoding="utf-8")
    assert AbbreviationTable.load(path).expansions("HSM") == [
        Expansion("hepatosplenomegaly", SemanticType.SIGN_SYMPTOM_OR_FINDING)
    ]
    path.write_text(f"{line}\nHSM\tHEPATOSPLENOMEGALY\tDisease, Syndrome or Pathologic Function\n", encoding="utf-8")
    with pytest.raises(InputFormatError, match=f"^{re.escape(str(path))}:2: .* another type than on line 1$"):
        AbbreviationTable.load(path)


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
    "applicability": (load_applicability, "Eukaryote = modifier", "Eukaryote = flavor"),
    "applicability-type": (load_applicability, "Eukaryote = modifier", "Fungus = modifier"),
    "config": (PipelineConfig.load, "workers = 2", "workers = four"),
    "config-key": (PipelineConfig.load, "workers = 2", "validate = yes"),
    "config-repeated": (PipelineConfig.load, "workers = 2", "workers = 3"),
    "notes": (read_notes, '{"note_id": "a", "text": "x"}', '{"note_id": "b"}'),
    "notes-text": (read_notes, '{"note_id": "a", "text": "x"}', '{"note_id": "b", "text": 5}'),
    "notes-json": (read_notes, '{"note_id": "a", "text": "x"}', "not json"),
    "notes-deep": (read_notes, '{"note_id": "a", "text": "x"}', "[" * 100_000 + "]" * 100_000),
    "notes-repeated-id": (read_notes, '{"note_id": "a", "text": "x"}', '{"note_id": "a", "text": "y"}'),
    "notes-note-id": (read_notes, '{"note_id": "a", "text": "x"}', '{"note_id": null, "text": "y"}'),
    "notes-note-id-bool": (read_notes, '{"note_id": "a", "text": "x"}', '{"note_id": true, "text": "y"}'),
    "notes-note-id-float": (read_notes, '{"note_id": "a", "text": "x"}', '{"note_id": 1.5, "text": "y"}'),
    "notes-note-id-list": (read_notes, '{"note_id": "a", "text": "x"}', '{"note_id": ["b"], "text": "y"}'),
    "notes-note-id-object": (read_notes, '{"note_id": "a", "text": "x"}', '{"note_id": {"a": 1}, "text": "y"}'),
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
    "transcript-repeated-prompt": (Transcript.load, '{"prompt": "p", "response": "r"}', '{"prompt": "p", "response": "s"}'),
    # a lone surrogate escape decodes to a string no UTF-8 output can hold
    "notes-note-id-surrogate": (read_notes, '{"note_id": "a", "text": "x"}', '{"note_id": "b\\ud800", "text": "y"}'),
    "notes-text-surrogate": (read_notes, '{"note_id": "a", "text": "x"}', '{"note_id": "b", "text": "x\\udc80y"}'),
    "transcript-prompt-surrogate": (Transcript.load, '{"prompt": "p", "response": "r"}', '{"prompt": "\\ud800", "response": "r"}'),
    "transcript-response-surrogate": (Transcript.load, '{"prompt": "p", "response": "r"}', '{"prompt": "q", "response": "fever: x\\ud800y"}'),
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


def _load_cold_then_warm(path, surface):
    """answer(index, surface) of a lexicon loaded through a sidecar: a cold
    load, which parses the copy of the lexicon it writes into the sidecar,
    then a warm load, which reads the sidecar back and must agree."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(terminology, "_SIDECAR_MIN_BYTES", 1)
        parses = TestLexiconSidecar.parses(m)
        cold = load_lexicon(path)
        warm = load_lexicon(path)
    assert parses == [1] and TestLexiconSidecar.sidecar(path).exists()
    assert tables(warm) == tables(cold)
    return answer(warm[0], surface)


@pytest.mark.parametrize(
    "read, line",
    [
        (lambda path: answer(load_lexicon(path)[0], "heart failure"), "heart failure\tC1\tDisease, Syndrome or Pathologic Function"),
        # a cold load parses the copy of the lexicon its new sidecar keeps
        (lambda path: _load_cold_then_warm(path, "heart failure"), "heart failure\tC1\tDisease, Syndrome or Pathologic Function"),
        (lambda path: AbbreviationTable.load(path).expansions("HSM"), "HSM\thepatosplenomegaly"),
        (load_rules, "denies\tforward\t8\tAbsent\t10"),
        (load_applicability, "Eukaryote = modifier"),
        (PipelineConfig.load, "workers = 2"),
        (read_notes, '{"note_id": "a", "text": "x"}'),
        (lambda path: Transcript.load(path).get("p"), '{"prompt": "p", "response": "r"}'),
    ],
    ids=["lexicon", "lexicon-copied", "abbreviations", "rules", "applicability", "config", "notes", "transcript"],
)
def test_a_utf8_byte_order_mark_is_not_part_of_the_first_line(tmp_path, read, line):
    # spreadsheet exports ("CSV UTF-8") start the file with one
    path = tmp_path / "input.txt"
    path.write_text(f"{line}\n", encoding="utf-8")
    expected = read(path)
    assert expected not in (None, [], (None, None))
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert read(path) == expected


def test_integer_note_ids_are_read_as_strings(tmp_path):
    path = tmp_path / "notes.jsonl"
    path.write_text('{"note_id": 7, "text": "x"}\n{"note_id": "a", "text": "y"}\n', encoding="utf-8")
    assert [note.note_id for note in read_notes(path)] == ["7", "a"]


@pytest.mark.parametrize(
    "read, line",
    [
        (lambda path: AbbreviationTable.load(path).expansions("CHF"), "CHF\tcongestive heart failure"),
        (load_rules, "denies\tforward\t6\tAbsent\t10"),
        (load_applicability, "Eukaryote = modifier"),
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
