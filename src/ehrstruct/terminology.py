"""Lexicon loading, head-word term index, and semantic-type metadata.

The lexicon is a 3-column TSV (surface, concept_id, semantic_type). Surfaces
are lowercased at load; matching is case-insensitive with raw casing preserved
downstream. The compiled index answers longest-match-at-position queries at
word boundaries only.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from pathlib import Path


class LexiconFormatError(ValueError):
    """Raised for a malformed lexicon or table line; carries the line number."""

    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


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


@dataclass(frozen=True)
class LexiconEntry:
    surface: str  # lowercased
    concept_id: str
    semantic_type: SemanticType


@dataclass
class LoadReport:
    """Bookkeeping emitted by load_lexicon."""

    total_lines: int = 0
    entries: int = 0
    duplicates: int = 0
    unknown_types: int = 0


def load_lexicon(path) -> tuple[list[LexiconEntry], LoadReport]:
    """Parse a lexicon TSV into deduplicated, lowercased entries.

    Duplicate (surface, concept_id) pairs keep the first occurrence. Unknown
    semantic-type names map to Other and are counted in the report.
    """
    path = Path(path)
    report = LoadReport()
    entries: list[LexiconEntry] = []
    seen: set[str] = set()
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            report.total_lines += 1
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 3:
                raise LexiconFormatError(
                    path, lineno, f"expected 3 tab-separated fields, got {len(fields)}"
                )
            surface, concept_id, type_name = fields
            surface = surface.strip().lower()
            if not surface:
                raise LexiconFormatError(path, lineno, "empty surface")
            concept_id, type_name = concept_id.strip(), type_name.strip()
            sem_type = _NAME_TO_TYPE.get(type_name, SemanticType.OTHER)
            if sem_type is SemanticType.OTHER and type_name != SemanticType.OTHER.value:
                report.unknown_types += 1
            key = f"{surface}\t{concept_id}"  # fields hold no tab
            if key in seen:
                report.duplicates += 1
                continue
            seen.add(key)
            entries.append(LexiconEntry(surface, concept_id, sem_type))
    report.entries = len(entries)
    return entries, report


def fold_case(text: str) -> str:
    """Lowercase text without changing its length, so offsets into the result
    index the original. A character whose lowercase is longer (such as 'İ')
    is kept as it is."""
    lowered = text.lower()
    if len(lowered) == len(text):
        return lowered
    return "".join(low if len(low := ch.lower()) == 1 else ch for ch in text)


# A maximal run of characters for which str.isalnum() is true: [^\W_]
# matches exactly the code points isalnum() accepts.
WORD_RUN = re.compile(r"[^\W_]+")


def word_start(text: str, i: int) -> bool:
    """True when position i does not fall inside an alphanumeric run."""
    if i <= 0:
        return True
    if i >= len(text):
        return True
    return not (text[i - 1].isalnum() and text[i].isalnum())


class TermIndex:
    """Surface dictionary supporting longest-match queries.

    A surface can match at a position, ending at a word boundary, only if its
    leading alphanumeric run equals the text's run there, so the index keys
    each surface's distinct lengths by that head word and a query tries only
    those. Immutable after build; safe to share across threads. All queries
    expect already-lowercased text.
    """

    def __init__(self, entries: list[LexiconEntry]):
        # First loaded entry wins for a surface; later concept_ids are alternates.
        by_surface: dict[str, LexiconEntry] = {}
        for entry in entries:
            by_surface.setdefault(entry.surface, entry)
        lengths: dict[str, set[int]] = {}
        for surface in by_surface:
            if surface:  # an empty surface never matches
                head = m.group() if (m := WORD_RUN.match(surface)) else ""
                lengths.setdefault(head, set()).add(len(surface))
        self._by_surface = by_surface
        self._lengths = {h: sorted(ls, reverse=True) for h, ls in lengths.items()}

    def __len__(self) -> int:
        return len(self._by_surface)

    def entry_for(self, surface: str) -> LexiconEntry | None:
        return self._by_surface.get(surface)

    def longest_match(self, text: str, start: int, head: str | None = None) -> int | None:
        """Length of the longest surface matching text[start:] that ends at a
        word boundary, or None. text must be lowercased; head, when given, is
        the alphanumeric run of text that begins at start."""
        if head is None:
            head = m.group() if (m := WORD_RUN.match(text, start)) else ""
        for length in self._lengths.get(head, ()):
            end = start + length
            if end <= len(text) and word_start(text, end) and text[start:end] in self._by_surface:
                return length
        return None


def build_index(entries: list[LexiconEntry]) -> TermIndex:
    return TermIndex(entries)


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
        """Parse a TSV of abbrev, expansion, optional semantic type name."""
        path = Path(path)
        table = cls()
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                fields = line.split("\t")
                if len(fields) not in (2, 3):
                    raise LexiconFormatError(
                        path, lineno, f"expected 2 or 3 fields, got {len(fields)}"
                    )
                abbrev = fields[0].strip()
                full = fields[1].strip()
                if not abbrev or not full:
                    raise LexiconFormatError(path, lineno, "empty abbreviation or expansion")
                hint = None
                if len(fields) == 3 and fields[2].strip():
                    hint = SemanticType.from_name(fields[2])
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
        """Load overrides from a key-value config: type name -> comma-separated
        attribute kinds. Types not mentioned keep their defaults."""
        path = Path(path)
        table = _default_applicability()
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise LexiconFormatError(path, lineno, "expected 'type name = kinds'")
                name, _, kinds_text = line.partition("=")
                sem_type = SemanticType.from_name(name)
                if sem_type is SemanticType.OTHER:
                    raise LexiconFormatError(path, lineno, f"unknown semantic type {name.strip()!r}")
                kinds = frozenset(k.strip() for k in kinds_text.split(",") if k.strip())
                bad = kinds - set(ATTRIBUTE_KINDS)
                if bad:
                    raise LexiconFormatError(path, lineno, f"unknown attribute kinds: {sorted(bad)}")
                table[sem_type] = kinds
        return cls(table)

