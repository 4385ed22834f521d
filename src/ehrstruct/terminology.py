"""Input line readers, lexicon loading, head-word term index, and semantic types.

The lexicon is a 3-column TSV (surface, concept_id, semantic_type).
`load_lexicon` reads it in one pass straight into a `TermIndex`, with no
object per line, and keeps the finished tables of a large lexicon in a
sidecar file beside it for the next load of the same bytes. Surfaces are
lowercased at load, and the first concept_id and type given for a surface
are the ones kept: alternate concept_ids are counted in the load report, not
stored. Matching is case-insensitive with raw casing preserved downstream.
The index answers longest-match-at-position queries at word boundaries only.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import hashlib
import json
import marshal
import os
import re
import shutil
import stat
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path


class InputFormatError(ValueError):
    """A malformed line of an input file: 'path:line: message'; 'line N:
    message' for a source with no name, 'path: message' for an unknown line."""

    def __init__(self, path, lineno: int | None, message: str):
        where = f"line {lineno}" if path is None else path if lineno is None else f"{path}:{lineno}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.lineno = lineno


def read_lines(source, comments: bool = True):
    """Yield (lineno, line), line less its line break, for each line of
    source (a file path, read as UTF-8, or an iterable of text lines such as
    an open file) that is not blank nor, with comments, has '#' as its first
    non-blank character. Undecodable bytes raise InputFormatError."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, encoding="utf-8") as fh:
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


# The index stores a surface's semantic type as its position in _TYPES.
_TYPES = tuple(SemanticType)
_TYPE_POSITION = {t: i for i, t in enumerate(_TYPES)}
_NAME_TO_POSITION = {t.value: _TYPE_POSITION[t] for t in REPORTABLE_TYPES}
_OTHER_POSITION = _TYPE_POSITION[SemanticType.OTHER]


# A regular file of at least this many bytes keeps its built tables in a
# sidecar, <lexicon>.ehrstruct-index: on 2 vCPUs a 300k-line lexicon parses in
# about 0.7 s and its sidecar reads back in about 0.15 s, while a small
# lexicon parses in milliseconds and needs no second file beside it.
_SIDECAR_MIN_BYTES = 1 << 20
_SIDECAR_SUFFIX = ".ehrstruct-index"


def load_lexicon(path) -> tuple["TermIndex", LoadReport]:
    """Index a lexicon TSV in one pass.

    Surfaces are stripped and lowercased. The first line for a surface sets
    its concept_id and type; a later line repeating a (surface, concept_id)
    pair counts as a duplicate, and one with another concept_id counts as an
    entry but is not kept. Unknown semantic-type names map to Other and are
    counted in the report.

    A lexicon of at least _SIDECAR_MIN_BYTES is read from its sidecar when
    the sidecar's key matches (`_sidecar_key`), and otherwise parsed and its
    sidecar rewritten. A sidecar that cannot be read or written is skipped.
    """
    path = Path(path)
    key = _sidecar_key(path)
    if key is not None:
        cached = _read_sidecar(path, key)
        if cached is not None:
            return cached
    report = LoadReport()
    index = TermIndex()
    with path.open(encoding="utf-8") as fh:
        try:
            report.entries, report.duplicates = index._insert(_read_rows(fh, path, report))
        except UnicodeDecodeError as exc:
            raise InputFormatError(path, None, f"not UTF-8 ({exc.reason})") from exc
    # the file may have changed while it was parsed: store the tables only
    # under the key of the bytes they were built from
    if key is not None and _sidecar_key(path) == key:
        _write_sidecar(path, key, index, report)
    return index, report


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + _SIDECAR_SUFFIX)


def _sidecar_key(path: Path) -> bytes | None:
    """SHA-256 over this module's source, the Python version (the marshal
    format and the Unicode tables behind lower() and isalnum()) and the
    lexicon's bytes; None for a file too small for a sidecar, or not a
    regular file, such as a pipe, which can be read only once."""
    info = os.stat(path)
    if not stat.S_ISREG(info.st_mode) or info.st_size < _SIDECAR_MIN_BYTES:
        return None
    digest = hashlib.sha256(Path(__file__).read_bytes())
    digest.update(sys.version.encode())
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.digest()


def _read_sidecar(path: Path, key: bytes) -> tuple["TermIndex", LoadReport] | None:
    """The index and report stored beside the lexicon under key, or None when
    the sidecar is missing, unreadable, truncated, foreign or stale. marshal
    is not safe against crafted data: the sidecar is trusted as the lexicon
    beside it is."""
    try:
        data = marshal.loads(_sidecar_path(path).read_bytes())
    except (OSError, EOFError, ValueError, TypeError):
        return None
    if not (isinstance(data, tuple) and len(data) == 6 and data[0] == key):
        return None
    _, rows, concept_ids, types, lengths, counts = data
    index = TermIndex()
    index._rows, index._concept_ids, index._types, index._lengths = (
        rows, concept_ids, bytearray(types), lengths
    )
    return index, LoadReport(*counts)


def _write_sidecar(path: Path, key: bytes, index: "TermIndex", report: LoadReport) -> None:
    """Store the tables beside the lexicon: written under a unique name, then
    renamed over the sidecar, so a reader never sees a partial file. A
    directory that cannot take it is left as it was."""
    try:
        fd, temp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=_SIDECAR_SUFFIX, dir=path.parent)
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            tables = (index._rows, index._concept_ids, index._types, index._lengths)
            marshal.dump((key, *tables, dataclasses.astuple(report)), fh)
            fh.flush()
            os.fsync(fh.fileno())
        shutil.copymode(path, temp)  # readable by whoever reads the lexicon
        os.replace(temp, _sidecar_path(path))
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(temp)


def _read_rows(lines, path, report: LoadReport):
    """Yield (surface, concept_id, type position) for each non-blank line;
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
        position = _NAME_TO_POSITION.get(type_name)
        if position is None:
            position = _OTHER_POSITION
            if type_name != SemanticType.OTHER.value:
                unknown += 1
        yield surface, concept_id.strip(), position
    report.total_lines, report.unknown_types = total, unknown


def fold_case(text: str) -> str:
    """Lowercase text without changing its length, so offsets into the result
    index the original. A character whose lowercase is longer (such as 'İ')
    is kept as it is."""
    lowered = text.lower()
    if len(lowered) == len(text):
        return lowered
    return "".join(low if len(low := ch.lower()) == 1 else ch for ch in text)


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
WORD_RUN = re.compile(r"[^\W_]+")


class TermIndex:
    """Surface dictionary supporting longest-match queries.

    A surface can match at a position, ending at a word boundary, only if its
    leading alphanumeric run equals the text's run there, so the index keys
    each surface's distinct lengths by that head word and a query tries only
    those. The tables hold strings, ints and bytes, so the garbage collector
    tracks no object per surface. Immutable once built; safe to share across
    threads. All queries expect already-lowercased text.
    """

    def __init__(self, entries=()):
        """Index (surface, concept_id, SemanticType) triples, surfaces taken
        as given (no stripping or lowercasing); load_lexicon fills the index
        from a file."""
        self._rows: dict[str, int] = {}  # surface -> row
        self._concept_ids: list[str] = []  # by row
        self._types = bytearray()  # by row: position in _TYPES
        # head word -> bit n set when a surface of length n starts with it
        self._lengths: dict[str, int] = {}
        self._insert((s, c, _TYPE_POSITION[t]) for s, c, t in entries)

    def _insert(self, rows) -> tuple[int, int]:
        """Add (surface, concept_id, type position) rows in order; the first
        row for a surface wins. Returns the number of distinct (surface,
        concept_id) pairs added and of rows repeating one."""
        rows_by_surface = self._rows
        concept_ids = self._concept_ids
        types = self._types
        lengths = self._lengths
        alternates: set[tuple[str, str]] = set()  # pairs not stored as a row
        entries = duplicates = 0
        for surface, concept_id, position in rows:
            row = rows_by_surface.get(surface)
            if row is None:
                rows_by_surface[surface] = len(concept_ids)
                concept_ids.append(concept_id)
                types.append(position)
                # the first space-separated token is the head word when it is
                # all alphanumeric; otherwise ask the word pattern
                head = surface.partition(" ")[0]
                if not head.isalnum():
                    head = m.group() if (m := WORD_RUN.match(surface)) else ""
                lengths[head] = lengths.get(head, 0) | 1 << len(surface)
            elif concept_ids[row] == concept_id or (surface, concept_id) in alternates:
                duplicates += 1
                continue
            else:
                alternates.add((surface, concept_id))
            entries += 1
        return entries, duplicates

    def __len__(self) -> int:
        return len(self._rows)

    def concept_id(self, surface: str) -> str | None:
        row = self._rows.get(surface)
        return None if row is None else self._concept_ids[row]

    def semantic_type(self, surface: str) -> SemanticType | None:
        row = self._rows.get(surface)
        return None if row is None else _TYPES[self._types[row]]

    def head_words(self):
        """Read-only view of every head word: longest_match finds nothing at
        a position whose alphanumeric run is not one of them."""
        return self._lengths.keys()

    def longest_match(self, text: str, start: int, head: str | None = None) -> int | None:
        """Length of the longest surface matching text[start:] that ends at a
        word boundary, or None. text must be lowercased; head, when given, is
        the alphanumeric run of text that begins at start."""
        if head is None:
            head = m.group() if (m := WORD_RUN.match(text, start)) else ""
        lengths = self._lengths.get(head, 0)
        n = len(text)
        while lengths > 1:  # bit 0, an empty surface, never matches
            length = lengths.bit_length() - 1
            lengths ^= 1 << length
            end = start + length
            if end > n or (end < n and text[end].isalnum() and text[end - 1].isalnum()):
                continue  # past the text, or ends inside an alphanumeric run
            if text[start:end] in self._rows:
                return length
        return None


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
        are skipped)."""
        table = cls()
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
            table.add(abbrev, Expansion(full, hint))
        return table


class _NotApplicable:
    """Sentinel for attributes a semantic type cannot carry.

    Distinct from None, which means the note genuinely lacks the information.
    Serializes as the string "not applicable".
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NotApplicable"

    def __deepcopy__(self, memo):
        return self

    def __copy__(self):
        return self


NOT_APPLICABLE = _NotApplicable()


def _default_applicability() -> dict[SemanticType, frozenset[str]]:
    lmvu = frozenset({LOCATION, MODIFIER, VALUE, UNIT})
    full = frozenset(ATTRIBUTE_KINDS)
    table = {
        SemanticType.DISEASE: lmvu,
        SemanticType.SIGN_SYMPTOM_OR_FINDING: lmvu,
        SemanticType.NEOPLASTIC_PROCESS: lmvu,
        SemanticType.ANATOMICAL_ABNORMALITY: lmvu,
        SemanticType.INJURY_OR_POISONING: lmvu,
        SemanticType.MENTAL_OR_BEHAVIORAL_DYSFUNCTION: lmvu,
        SemanticType.CELL_OR_MOLECULAR_DYSFUNCTION: lmvu,
        SemanticType.CHEMICAL_OR_DRUG: frozenset({MODIFIER, VALUE, UNIT, PURPOSE}),
        SemanticType.DIAGNOSTIC_PROCEDURE: full,
        SemanticType.THERAPEUTIC_OR_PREVENTIVE_PROCEDURE: full,
        SemanticType.LABORATORY_PROCEDURE: full,
        SemanticType.CLINICAL_ATTRIBUTE: lmvu,
        SemanticType.PHYSIOLOGY: lmvu,
        SemanticType.MICROORGANISM: frozenset({MODIFIER, LOCATION}),
        SemanticType.EUKARYOTE: frozenset({MODIFIER, LOCATION}),
        SemanticType.INDIVIDUAL_BEHAVIOR: frozenset({MODIFIER, VALUE, UNIT}),
    }
    assert set(table) == set(REPORTABLE_TYPES)
    return table


@dataclass
class ApplicabilityTable:
    """Which attribute kinds each reportable semantic type may carry."""

    table: dict[SemanticType, frozenset[str]] = field(default_factory=_default_applicability)

    def applicable_attributes(self, t: SemanticType) -> frozenset[str]:
        if not t.reportable:
            raise ValueError(f"non-reportable type: {t.value}")
        return self.table[t]

    @classmethod
    def load(cls, path) -> "ApplicabilityTable":
        """Load overrides from a key-value config (`read_lines`): type name ->
        comma-separated attribute kinds. Types not mentioned keep their
        defaults."""
        table = _default_applicability()
        for lineno, line in read_lines(path):
            if "=" not in line:
                raise InputFormatError(path, lineno, "expected 'type name = kinds'")
            name, _, kinds_text = line.partition("=")
            sem_type = SemanticType.from_name(name)
            if sem_type is SemanticType.OTHER:
                raise InputFormatError(path, lineno, f"unknown semantic type {name.strip()!r}")
            kinds = frozenset(k.strip() for k in kinds_text.split(",") if k.strip())
            bad = kinds - set(ATTRIBUTE_KINDS)
            if bad:
                raise InputFormatError(path, lineno, f"unknown attribute kinds: {sorted(bad)}")
            table[sem_type] = kinds
        return cls(table)
