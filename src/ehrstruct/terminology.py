"""Input line readers, lexicon loading, head-word term index, and semantic types.

The lexicon is a 3-column TSV (surface, concept_id, semantic_type).
`load_lexicon` reads it in one pass straight into a `TermIndex`, one table
of surfaces per head word, with no object per line. A large lexicon is
first copied into a sidecar file beside it and parsed from that copy, and
the finished tables are stored after the copy, each with its CRC-32. The
next load compares the lexicon with the copy, maps the tables only for the
same bytes, and checks and decodes a head word's table only when a query
first asks for it. Surfaces are lowercased at load, and the first
concept_id and type given for a surface are the ones kept: alternate
concept_ids are counted in the load report, not stored. Matching is
case-insensitive with raw casing preserved downstream. The index answers
one query, `scan`: forward maximum matching over a lowercased text.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import hashlib
import io
import itertools
import json
import logging
import marshal
import mmap
import os
import re
import shutil
import stat
import sys
import tempfile
import threading
import types
import zlib
from dataclasses import dataclass
from pathlib import Path

log = logging.getLogger(__name__)


class InputFormatError(ValueError):
    """A malformed line of an input file: 'path:line: message'; 'line N:
    message' for a source with no name, 'path: message' for an unknown line."""

    def __init__(self, path, lineno: int | None, message: str):
        where = f"line {lineno}" if path is None else path if lineno is None else f"{path}:{lineno}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.lineno = lineno


def data_path(name: str) -> Path:
    """A file of the package's data directory, such as the default trigger
    rules."""
    return Path(__file__).with_name("data") / name


def read_lines(source, comments: bool = True):
    """Yield (lineno, line), line less its line break, for each line of
    source (a file path, read as UTF-8 less a leading byte-order mark, or an
    iterable of text lines such as an open file) that is not blank nor, with
    comments, has '#' as its first non-blank character. Undecodable bytes
    raise InputFormatError."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, encoding="utf-8-sig") as fh:
            yield from read_lines(fh, comments)
        return
    try:
        for lineno, line in enumerate(source, start=1):
            text = line.lstrip()
            if text and not (comments and text[0] == "#"):
                yield lineno, line.rstrip("\n")
    except UnicodeDecodeError as exc:
        name = getattr(source, "name", "<input>")  # no line: decoding reads ahead of it
        raise InputFormatError(name, None, f"not UTF-8 ({exc.reason})") from exc


def read_jsonl(source, parse, key=None):
    """Yield parse(record) for each non-blank line of a JSONL source, as
    read_lines takes it, where record is the line's JSON object. A line that
    is not a JSON object, or that parse rejects with a KeyError, TypeError or
    ValueError, raises InputFormatError. So does a line whose key(value), a
    string naming the value such as "note_id 'a'", an earlier line had.
    There are no comment lines."""
    path = source if isinstance(source, (str, os.PathLike)) else getattr(source, "name", None)
    first_lines: dict[str, int] = {}
    for lineno, line in read_lines(source, comments=False):
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise InputFormatError(path, lineno, f"invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise InputFormatError(path, lineno, f"expected a JSON object, got {type(record).__name__}")
        try:
            value = parse(record)
        except KeyError as exc:
            raise InputFormatError(path, lineno, f"missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InputFormatError(path, lineno, str(exc)) from exc
        if key is not None:
            name = key(value)
            first = first_lines.setdefault(name, lineno)
            if first != lineno:
                raise InputFormatError(path, lineno, f"duplicate {name}, first on line {first}")
        yield value


class SemanticType(enum.Enum):
    """Closed set of reportable semantic types, plus Other for everything else."""

    ANATOMICAL_ABNORMALITY = "Anatomical Abnormality"
    CELL_OR_MOLECULAR_DYSFUNCTION = "Cell or Molecular Dysfunction"
    CHEMICAL_OR_DRUG = "Chemical or Drug"
    CLINICAL_ATTRIBUTE = "Clinical Attribute"
    DIAGNOSTIC_PROCEDURE = "Diagnostic Procedure"
    DISEASE = "Disease, Syndrome or Pathologic Function"
    EUKARYOTE = "Eukaryote"
    INDIVIDUAL_BEHAVIOR = "Individual Behavior"
    INJURY_OR_POISONING = "Injury or Poisoning"
    LABORATORY_PROCEDURE = "Laboratory Procedure"
    MENTAL_OR_BEHAVIORAL_DYSFUNCTION = "Mental or Behavioral Dysfunction"
    MICROORGANISM = "Microorganism"
    NEOPLASTIC_PROCESS = "Neoplastic Process"
    PHYSIOLOGY = "Physiology"
    SIGN_SYMPTOM_OR_FINDING = "Sign, Symptom, or Finding"
    THERAPEUTIC_OR_PREVENTIVE_PROCEDURE = "Therapeutic or Preventive Procedure"
    OTHER = "Other"

    @property
    def reportable(self) -> bool:
        return self is not SemanticType.OTHER

    @classmethod
    def from_name(cls, name: str) -> "SemanticType":
        """Map a printed type name to the enum; unknown names become Other."""
        return _NAME_TO_TYPE.get(name.strip(), cls.OTHER)


_NAME_TO_TYPE = {t.value: t for t in SemanticType if t is not SemanticType.OTHER}

REPORTABLE_TYPES = tuple(t for t in SemanticType if t.reportable)

# Attribute kinds a StructuredEntity may carry.
LOCATION = "location"
MODIFIER = "modifier"
VALUE = "value"
UNIT = "unit"
PURPOSE = "purpose"
ATTRIBUTE_KINDS = (LOCATION, MODIFIER, VALUE, UNIT, PURPOSE)


@dataclass
class LoadReport:
    """Bookkeeping emitted by load_lexicon."""

    total_lines: int = 0
    entries: int = 0  # distinct (surface, concept_id) pairs
    duplicates: int = 0
    unknown_types: int = 0
    unmatchable: int = 0  # distinct surfaces with no leading letter or digit, which no scan finds


# The index answers a surface with one string, its type's tag (the character
# whose code is the type's position in _TYPES) then its concept_id: a string,
# unlike a tuple, is never tracked by the garbage collector.
_TYPES = tuple(SemanticType)
_TYPE_TAG = {t: chr(i) for i, t in enumerate(_TYPES)}
_NAME_TO_TAG = {t.value: _TYPE_TAG[t] for t in REPORTABLE_TYPES}
_OTHER_TAG = _TYPE_TAG[SemanticType.OTHER]
_NO_SURFACES = types.MappingProxyType({})


# A regular file of at least this many bytes keeps its built tables in a
# sidecar, <lexicon>.ehrstruct-index: on 2 vCPUs a 300k-line, 13.9 MB lexicon
# parses in about 0.7 s, and its 21.9 MB sidecar (the tables and a copy of the
# lexicon) is compared and mapped in about 0.003 s, while a small lexicon
# parses in milliseconds and needs no second file beside it.
_SIDECAR_MIN_BYTES = 1 << 20
_SIDECAR_SUFFIX = ".ehrstruct-index"


def load_lexicon(path) -> tuple["TermIndex", LoadReport]:
    """Index a lexicon TSV in one pass.

    Surfaces are stripped and lowercased. The first line for a surface sets
    its concept_id and type; a later line repeating a (surface, concept_id)
    pair counts as a duplicate, and one with another concept_id counts as an
    entry but is not kept. Unknown semantic-type names map to Other and are
    counted in the report, as are surfaces no scan can match.

    A regular file of at least _SIDECAR_MIN_BYTES is read from its sidecar
    when the sidecar's tag matches and its copy of the lexicon equals the
    file byte for byte (`_read_sidecar`), and otherwise copied into a new
    sidecar and parsed from that copy (`_parse_into_sidecar`). A sidecar
    that cannot be read or written is skipped.
    """
    path = Path(path)
    info = os.stat(path)
    # a file that is not regular, such as a pipe, may be read only once
    if not stat.S_ISREG(info.st_mode) or info.st_size < _SIDECAR_MIN_BYTES:
        return _parse(path, path)
    return _read_sidecar(path, info.st_size) or _parse_into_sidecar(path)


def _parse(source, path: Path, offset: int = 0) -> tuple["TermIndex", LoadReport]:
    """The index and report of the lexicon at path, parsed in one pass from
    source, the lexicon or a file holding a copy of it from offset on. An
    error names path. A leading UTF-8 byte-order mark is not part of the
    first surface."""
    report = LoadReport()
    index = TermIndex()
    with open(source, "rb") as raw:
        if offset:  # a pipe cannot seek
            raw.seek(offset)
        with io.TextIOWrapper(raw, encoding="utf-8-sig") as fh:
            try:
                counts = index._insert(_read_rows(fh, path, report))
                report.entries, report.duplicates, report.unmatchable = counts
            except UnicodeDecodeError as exc:
                raise InputFormatError(path, None, f"not UTF-8 ({exc.reason})") from exc
    return index, report


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + _SIDECAR_SUFFIX)


def _sidecar_tag() -> bytes:
    """SHA-256 over this module's source and the Python version (the marshal
    format and the Unicode tables behind lower() and isalnum()): what turns
    lexicon bytes into tables, apart from the bytes."""
    digest = hashlib.sha256(Path(__file__).read_bytes())
    digest.update(sys.version.encode())
    return digest.digest()


# The sidecar: the 32-byte tag; the length of the lexicon's copy (8 bytes,
# big-endian); the copy, the exact bytes the tables were parsed from; then
# frames of data, each its CRC-32 and length (4 bytes each, big-endian) then
# the data: the header, marshal((surface count, head word -> length bits, load
# report counts, the tables' frame sizes)), then each head word's table,
# marshal({surface: answer}), in the header's head word order. The tag covers
# this module's source, so a change to this layout is a miss, not a misread.
_TAG_BYTES = 32
_LENGTH_BYTES = 8
_COPY_START = _TAG_BYTES + _LENGTH_BYTES
_FRAME_BYTES = 8
# a warm load compares the lexicon with its copy, and a cold one copies the
# lexicon into its new sidecar, this many bytes at a time: on 2 vCPUs the two
# 256-KiB buffers of a comparison stay in cache, and 13.9 MB compare in
# 2.1-2.5 ms against 3.4-3.9 ms with 1-MiB buffers
_CHUNK_BYTES = 1 << 18
_DAMAGED = "lexicon sidecar %s is damaged (its checksum or header fails); rebuilding it"


def _read_sidecar(path: Path, size: int) -> tuple["TermIndex", LoadReport] | None:
    """The index and report stored beside the lexicon, its head words'
    tables left in a read-only map of the sidecar, or None when the sidecar
    is missing, unreadable, foreign or stale, or damaged.

    The sidecar serves a lexicon of size bytes only when its tag is this
    module's and Python's and its copy is exactly the lexicon's bytes, so
    any changed, added or missing byte is a miss. The copy is compared in
    chunks, as bytearrays, whose == is one memcmp (a memoryview's compares
    item by item). The rest is mapped, not read: set-up checks the header's
    CRC-32 and that the file ends where its table sizes say (a sidecar that
    fails is damaged, and logged as a warning), and a scan checks a table's
    CRC-32 when it first decodes it (`TermIndex._table`). A sidecar is only
    ever replaced by rename, so no file is cut under a map. marshal is not
    safe against crafted data: the sidecar is trusted as the lexicon is."""
    start = _COPY_START + size  # the header's frame
    base = start - start % mmap.ALLOCATIONGRANULARITY  # a map's offset is a multiple of it
    view = memoryview(b"")  # a sidecar cut off before its header
    try:
        with open(_sidecar_path(path), "rb", buffering=0) as fh, open(path, "rb", buffering=0) as lexicon:
            tag = _sidecar_tag() + size.to_bytes(_LENGTH_BYTES, "big")
            if fh.read(_COPY_START) != tag or not _same_bytes(lexicon, fh, size):
                return None
            if os.fstat(fh.fileno()).st_size > start:
                view = memoryview(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ, offset=base))
    except OSError:
        return None
    if (header := _unframe(view, start - base)) is not None:
        with contextlib.suppress(EOFError, ValueError, TypeError):
            surfaces, lengths, counts, sizes = marshal.loads(header)
            first = start - base + _FRAME_BYTES + len(header)  # the first table's frame
            if first + sum(sizes) == len(view):  # else cut off or grown
                index = TermIndex()
                index._size, index._lengths, index._encoded, index._lexicon = surfaces, lengths, view, path
                # each head's table stays in the map, found by its frame's offset
                index._tables = dict(zip(lengths, itertools.accumulate(sizes, initial=first)))
                return index, LoadReport(*counts)
    log.warning(_DAMAGED, _sidecar_path(path))
    return None


def _frame(data: bytes) -> bytes:
    return zlib.crc32(data).to_bytes(4, "big") + len(data).to_bytes(4, "big") + data


def _unframe(view, at: int):
    """The data of the frame at view[at:], or None when its CRC-32 fails."""
    data = view[at + _FRAME_BYTES : at + _FRAME_BYTES + int.from_bytes(view[at + 4 : at + 8], "big")]
    return data if zlib.crc32(data) == int.from_bytes(view[at : at + 4], "big") else None


def _same_bytes(lexicon, copy, size: int) -> bool:
    """Whether the rest of the lexicon file is exactly size bytes, equal to
    the next size bytes of the copy file."""
    mine = bytearray(min(size, _CHUNK_BYTES))
    stored = bytearray(len(mine))
    while size:
        if size < len(mine):
            del mine[size:], stored[size:]
        if lexicon.readinto(mine) != len(mine) or copy.readinto(stored) != len(mine) or mine != stored:
            return False
        size -= len(mine)
    return not lexicon.read(1)


def _parse_into_sidecar(path: Path) -> tuple["TermIndex", LoadReport]:
    """The index and report of the lexicon, parsed from a copy of it written
    into a new sidecar, so the sidecar's copy is exactly the bytes its
    tables came from, even when the lexicon changes during the load. The
    draft is written under a unique name beside the lexicon and renamed
    over the sidecar only once whole, so a reader never sees a partial file.
    A draft that cannot be made or written, as on a full disk, is dropped
    and the lexicon itself parsed; one that cannot be stored once parsed is
    dropped and the parse kept."""
    try:
        fd, temp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=_SIDECAR_SUFFIX, dir=path.parent)
    except OSError:
        return _parse(path, path)
    draft = os.fdopen(fd, "wb", _CHUNK_BYTES)
    try:
        try:
            with open(path, "rb") as lexicon:
                draft.write(_sidecar_tag() + bytes(_LENGTH_BYTES))  # the copy's length is filled in last
                shutil.copyfileobj(lexicon, draft, _CHUNK_BYTES)
            draft.flush()
        except OSError:
            return _parse(path, path)
        copied = draft.tell() - _COPY_START
        index, report = _parse(temp, path, _COPY_START)
        # a full disk, or a frame of 4 GiB or more: the draft is dropped
        with contextlib.suppress(OSError, OverflowError):
            frames = [_frame(marshal.dumps(index._tables[head])) for head in index._lengths]
            sizes = [len(frame) for frame in frames]
            draft.write(_frame(marshal.dumps((len(index), index._lengths, dataclasses.astuple(report), sizes))))
            draft.writelines(frames)
            draft.seek(_TAG_BYTES)
            draft.write(copied.to_bytes(_LENGTH_BYTES, "big"))
            draft.flush()
            os.fsync(draft.fileno())
            draft.close()
            shutil.copymode(path, temp)  # readable by whoever reads the lexicon
            os.replace(temp, _sidecar_path(path))
        return index, report
    finally:
        with contextlib.suppress(OSError):  # closing flushes, which fails again on a full disk
            draft.close()
        with contextlib.suppress(OSError):
            os.unlink(temp)  # gone once renamed


def _read_rows(lines, path, report: LoadReport):
    """Yield (surface, concept_id, type tag) for each non-blank line;
    fills report.total_lines and report.unknown_types once exhausted."""
    total = unknown = 0
    for lineno, line in enumerate(lines, start=1):
        fields = line.split("\t")
        if len(fields) != 3:
            if not line.strip():
                continue
            raise InputFormatError(
                path, lineno, f"expected 3 tab-separated fields, got {len(fields)}"
            )
        surface, concept_id, type_name = fields
        surface = surface.strip().lower()
        if not surface:
            if not line.strip():
                continue
            raise InputFormatError(path, lineno, "empty surface")
        total += 1
        type_name = type_name.strip()
        tag = _NAME_TO_TAG.get(type_name)
        if tag is None:
            tag = _OTHER_TAG
            if type_name != SemanticType.OTHER.value:
                unknown += 1
        yield surface, concept_id.strip(), tag
    report.total_lines, report.unknown_types = total, unknown


def fold_case(text: str) -> str:
    """Lowercase text without changing its length, so offsets into the result
    index the original. 'İ', the one character whose lowercase is longer, is
    kept as it is, and the stretches around it are lowered by str.lower, so a
    final 'Σ' folds to 'ς' whether or not the text holds an 'İ'."""
    return "İ".join(part.lower() for part in text.split("İ"))


@functools.cache
def literal_pattern(literal: str) -> re.Pattern:
    """The literal as a whole-token pattern: not preceded or followed by an
    ASCII letter or digit. Compiled once per literal and shared."""
    return re.compile(r"(?<![A-Za-z0-9])" + re.escape(literal) + r"(?![A-Za-z0-9])")


_LEADING_RUN = re.compile(r"[a-z0-9]*")
# each byte to itself if it is [a-z0-9], else to a space
_RUN_BYTES = bytes(b if 48 <= b <= 57 or 97 <= b <= 122 else 32 for b in range(256))


def ascii_runs(text: str) -> list[bytes]:
    """The maximal [a-z0-9] runs of text, as ASCII bytes. Encoding turns each
    other character into one byte that is not [a-z0-9]."""
    return text.encode("ascii", "replace").translate(_RUN_BYTES).split()


class LiteralIndex:
    """(literal, payload) rows keyed by the literal's leading ASCII run, for
    whole-token scans of folded text.

    A literal's pattern (`literal_pattern`) can only match where the folded
    text has an ASCII-alphanumeric run starting: the lookbehind rules out a
    letter or digit before it, and folded text holds no A-Z. By the
    lookahead, that run then equals the literal's own leading run
    `[a-z0-9]*`. So a scan tries the literals whose leading run is one of the
    text's runs, plus every literal whose leading run is empty, in row order,
    as a scan of every row does.
    """

    def __init__(self, rows):
        self._entries = []  # (pattern, payload) by row
        self._by_run: dict[bytes, list[int]] = {}
        self._always = []  # rows of literals with an empty leading run
        for row, (literal, payload) in enumerate(rows):
            self._entries.append((literal_pattern(literal), payload))
            run = _LEADING_RUN.match(literal).group().encode()
            (self._by_run.setdefault(run, []) if run else self._always).append(row)

    def candidates(self, lowered: str) -> list[tuple[re.Pattern, object]]:
        """(pattern, payload) of every row that can match the folded text, in
        row order."""
        runs = self._by_run.keys() & ascii_runs(lowered)
        if not runs:
            return [self._entries[row] for row in self._always]
        rows = list(self._always)
        for run in runs:
            rows += self._by_run[run]
        rows.sort()
        return [self._entries[row] for row in rows]


# A maximal run of characters for which str.isalnum() is true: [^\W_]
# matches exactly the code points isalnum() accepts.
_WORD_RUN = re.compile(r"[^\W_]+")


class TermIndex:
    """Surface dictionary answering forward maximum matching (`scan`).

    A surface can match at a position, ending at a word boundary, only if its
    leading alphanumeric run equals the text's run there, so the index keys
    each surface by that head word: a table of the head's surfaces and the
    bit set of their distinct lengths, and a scan tries only those. A surface
    with no leading letter or digit has the empty head word, which starts no
    run, so a scan never finds it. The tables hold strings and ints, so the
    garbage collector tracks no object per surface or head. An index read
    from a sidecar holds each head's table encoded until a query first asks
    for it; otherwise the index does not change once built. It is safe to
    share across threads: threads that race to decode one head each decode
    it whole and store equal tables; those that find one damaged wait on one
    lock. A scan expects already-lowercased text.
    """

    def __init__(self, entries=()):
        """Index (surface, concept_id, SemanticType) triples, surfaces taken
        as given (no stripping or lowercasing); load_lexicon fills the index
        from a file."""
        self._size = 0
        # head word -> bit n set when a surface of length n starts with it
        self._lengths: dict[str, int] = {}
        # head word -> {surface: type tag + concept_id}, or the offset of that
        # table's frame in _encoded, as a sidecar load leaves it until first use
        self._tables: dict[str, dict[str, str] | int] = {}
        self._encoded = memoryview(b"")  # a sidecar load's map of the sidecar
        self._lexicon: Path | None = None  # the lexicon of _encoded, until damage found there is mended
        self._lock = threading.Lock()
        self._insert((s, c, _TYPE_TAG[t]) for s, c, t in entries)

    def _insert(self, rows) -> tuple[int, int, int]:
        """Add (surface, concept_id, type tag) rows in order; the first row
        for a surface wins. Returns the number of distinct (surface,
        concept_id) pairs added, of rows repeating one, and of surfaces the
        index holds under the empty head word."""
        tables = self._tables
        lengths = self._lengths
        alternates: set[tuple[str, str]] = set()  # pairs not stored
        entries = duplicates = 0
        for surface, concept_id, tag in rows:
            # the leading alphanumeric run: the first space-separated token
            # when that is all alphanumeric, else what the word pattern finds
            head = surface.partition(" ")[0]
            if not head.isalnum():
                head = m.group() if (m := _WORD_RUN.match(surface)) else ""
            table = tables.get(head)
            if table is None:
                table = tables[head] = {}
            answer = table.get(surface)
            if answer is None:
                table[surface] = tag + concept_id
                lengths[head] = lengths.get(head, 0) | 1 << len(surface)
            elif answer[1:] == concept_id or (surface, concept_id) in alternates:
                duplicates += 1
                continue
            else:
                alternates.add((surface, concept_id))
            entries += 1
        self._size = sum(map(len, tables.values()))
        return entries, duplicates, len(tables.get("", ()))

    def __len__(self) -> int:
        return self._size

    def _table(self, head: str):
        """The {surface: answer} table of head, decoded on first use once its
        CRC-32 holds. Under the lock, the first thread to find a table damaged
        logs it, parses the lexicon into a new sidecar and adopts its tables."""
        table = self._tables.get(head, _NO_SURFACES)
        if type(table) is int and (data := _unframe(self._encoded, table)) is not None:
            # a thread racing this one decodes its own whole copy; each
            # store replaces a table with an equal one
            table = self._tables[head] = marshal.loads(data)
        elif type(table) is int:
            with self._lock:
                if self._lexicon is not None:
                    log.warning(_DAMAGED, _sidecar_path(self._lexicon))
                    index, _ = _parse_into_sidecar(self._lexicon)
                    self._tables, self._lengths, self._size = index._tables, index._lengths, len(index)
                    self._lexicon = None
            table = self._tables.get(head, _NO_SURFACES)
        return table

    def scan(self, text: str) -> list[tuple[int, int, str, SemanticType]]:
        """Forward maximum matching over text: (start, end, concept_id,
        semantic type) of each match, left to right.

        Only a head word starts a match: at each alphanumeric run of text
        that is a head word, the longest of its surfaces that text continues
        with and that ends at a word boundary (no letter or digit on both
        sides of its end) is a match, and the walk resumes at the match's
        end, so no match starts inside another.
        """
        matches = []
        heads = self._lengths
        n = len(text)
        resume = 0  # end of the last match; a match never ends inside a word
        for word in _WORD_RUN.finditer(text):
            start = word.start()
            if start < resume or (lengths := heads.get(head := word.group())) is None:
                continue
            table = self._table(head)
            while lengths:
                length = lengths.bit_length() - 1
                lengths ^= 1 << length
                end = start + length
                if end > n or (end < n and text[end].isalnum() and text[end - 1].isalnum()):
                    continue  # past the text, or ends inside an alphanumeric run
                answer = table.get(text[start:end])
                if answer is not None:
                    matches.append((start, end, answer[1:], _TYPES[ord(answer[0])]))
                    resume = end
                    break
        return matches


@dataclass(frozen=True)
class Expansion:
    full_form: str
    semantic_type: SemanticType | None = None


class AbbreviationTable:
    """Case-sensitive abbreviation -> expansions mapping.

    One expansion means the abbreviation is unambiguous; two or more mean it
    needs context to resolve and is only flagged, never expanded.
    """

    def __init__(self, mapping: dict[str, list[Expansion]] | None = None):
        self._mapping: dict[str, list[Expansion]] = dict(mapping or {})

    def expansions(self, abbrev: str) -> list[Expansion]:
        return list(self._mapping.get(abbrev, []))

    def add(self, abbrev: str, expansion: Expansion) -> None:
        self._mapping.setdefault(abbrev, []).append(expansion)

    def equivalent(self, a: str, b: str) -> bool:
        """True when one string is a loaded abbreviation of the other."""
        for abbrev, other in ((a, b), (b, a)):
            for exp in self._mapping.get(abbrev, []):
                if exp.full_form.lower() == other.lower():
                    return True
        return False

    @classmethod
    def load(cls, path) -> "AbbreviationTable":
        """Parse a TSV of abbrev, expansion, optional semantic type name,
        which must name a reportable type (`read_lines`: blank and '#' lines
        are skipped). A line that repeats an earlier line's abbrev, expansion
        (in any case, as `equivalent`) and type is skipped; one that gives
        them another type fails."""
        table = cls()
        first_lines: dict[tuple[str, str], tuple[int, SemanticType | None]] = {}
        for lineno, line in read_lines(path):
            fields = line.split("\t")
            if len(fields) not in (2, 3):
                raise InputFormatError(path, lineno, f"expected 2 or 3 fields, got {len(fields)}")
            abbrev = fields[0].strip()
            full = fields[1].strip()
            if not abbrev or not full:
                raise InputFormatError(path, lineno, "empty abbreviation or expansion")
            hint = None
            if len(fields) == 3 and (name := fields[2].strip()):
                hint = _NAME_TO_TYPE.get(name)
                if hint is None:
                    raise InputFormatError(path, lineno, f"unknown semantic type {name!r}")
            first, first_hint = first_lines.setdefault((abbrev, full.lower()), (lineno, hint))
            if first == lineno:
                table.add(abbrev, Expansion(full, hint))
            elif first_hint != hint:
                raise InputFormatError(
                    path, lineno, f"{abbrev!r} expands to {full!r} with another type than on line {first}"
                )
        return table


class NotApplicable(enum.Enum):
    """Sentinel for attributes a semantic type cannot carry; None means the
    note lacks the information. Its value is its serialized form."""

    NOT_APPLICABLE = "not applicable"


NOT_APPLICABLE = NotApplicable.NOT_APPLICABLE


def _read_applicability(path, table: dict) -> dict:
    """table with the rows of a key-value config (`read_lines`), one a type:
    a semantic type name, '=', then comma-separated attribute kinds."""
    first_lines: dict[SemanticType, int] = {}
    for lineno, line in read_lines(path):
        if "=" not in line:
            raise InputFormatError(path, lineno, "expected 'type name = kinds'")
        name, _, kinds_text = line.partition("=")
        sem_type = SemanticType.from_name(name)
        if sem_type is SemanticType.OTHER:
            raise InputFormatError(path, lineno, f"unknown semantic type {name.strip()!r}")
        if (first := first_lines.setdefault(sem_type, lineno)) != lineno:
            raise InputFormatError(path, lineno, f"duplicate type {sem_type.value!r}, first on line {first}")
        kinds = frozenset(k.strip() for k in kinds_text.split(",") if k.strip())
        bad = kinds - set(ATTRIBUTE_KINDS)
        if bad:
            raise InputFormatError(path, lineno, f"unknown attribute kinds: {sorted(bad)}")
        table[sem_type] = kinds
    return table


@functools.cache
def _packaged_applicability() -> types.MappingProxyType:
    """The packaged table, data/applicability.txt, parsed once per process."""
    return types.MappingProxyType(_read_applicability(data_path("applicability.txt"), {}))


def load_applicability(path=None) -> types.MappingProxyType:
    """Which attribute kinds each reportable semantic type may carry, as a
    read-only mapping. None selects the packaged table, parsed once per
    process and shared; a path gives the packaged rows with the rows of the
    file at path, in the packaged file's format, over them."""
    if path is None:
        return _packaged_applicability()
    return types.MappingProxyType(_read_applicability(path, dict(_packaged_applicability())))
