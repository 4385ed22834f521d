"""Seeded corpus generators with planted gold for the structure benchmark.

Every note is assembled from sentence templates: filler words that are not
lexicon surfaces, planted lexicon surfaces at known raw offsets, and at most
one assertion cue per sentence placed next to the mention it governs. The
gold for each mention (span, surface, semantic type, assertion status) comes
from the generator's own tables, never from running the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

# Reportable semantic type names, as written in lexicon files.
REPORTABLE_TYPES = (
    "Anatomical Abnormality",
    "Cell or Molecular Dysfunction",
    "Chemical or Drug",
    "Clinical Attribute",
    "Diagnostic Procedure",
    "Disease, Syndrome or Pathologic Function",
    "Eukaryote",
    "Individual Behavior",
    "Injury or Poisoning",
    "Laboratory Procedure",
    "Mental or Behavioral Dysfunction",
    "Microorganism",
    "Neoplastic Process",
    "Physiology",
    "Sign, Symptom, or Finding",
    "Therapeutic or Preventive Procedure",
)

# Cues taken from the documented default trigger rules. The mention is
# placed directly next to the cue (a gap of zero tokens), inside every
# window, and a sentence never holds a second cue, so the cue alone decides
# the status.  (cue text, direction, status)
FORWARD_CUES = (
    ("denies", "Absent"),
    ("no evidence of", "Absent"),
    ("negative for", "Absent"),
    ("no", "Absent"),
    ("concerning for", "Possible"),
    ("possible", "Possible"),
    ("suspicious for", "Possible"),
    ("return if", "Hypothetical"),
    ("watch for", "Hypothetical"),
    ("risk of", "Hypothetical"),
    ("as needed for", "Conditional"),
    ("mother has", "Not_associated_with_the_patient"),
    ("father died of", "Not_associated_with_the_patient"),
)
BACKWARD_CUES = (
    ("ruled out", "Absent"),
    ("resolved", "Absent"),
    ("with exertion", "Conditional"),
)

# Filler words: none is a lexicon surface, a trigger word or an allergy token.
CUE_OPENERS = ("Patient", "Today patient", "Per review patient", "On exam patient")
OPENERS = (
    "Patient reports", "Exam shows", "Review today notes", "Follow up for",
    "Continue current plan for", "Discussed at length the", "Recent history includes",
    "Team will monitor", "Notes from clinic mention",
)
TAILS = (
    "today", "at this time", "during the visit", "per patient report", "since last visit",
    "over the past week", "this morning", "after meals", "at night", "on arrival",
    "while at home", "per outside records", "as documented earlier",
)
PLAIN = (
    "Seen and examined at bedside", "Plan reviewed with the team", "Questions answered in full",
    "Medications reconciled with pharmacy", "Will follow up in clinic", "Labs reviewed this morning",
    "Discussed with the attending physician", "Nursing notes reviewed overnight",
)
SIDES = ("left", "right")
SITES = ("arm", "leg", "knee", "neck", "abdomen", "shoulder", "hip", "ankle", "back")
UNITS = ("mg", "mmHg", "bpm", "mL", "units")
# Ten sentences, seven mentions.
SENTENCE_DECK = ("plain",) * 4 + ("pair", "site", "forward", "forward", "backward", "title")
HEADERS = (
    "HISTORY OF PRESENT ILLNESS:", "HOSPITAL COURSE:", "ASSESSMENT AND PLAN:",
    "PHYSICAL EXAM:", "REVIEW OF SYSTEMS:", "DISCHARGE INSTRUCTIONS:",
)
FIRST_NAMES = ("Emre", "Zeynep", "Mert", "Elif", "Can", "Deniz", "Selin", "Burak")
# Surnames that each hold exactly one dotted capital I: it lowercases to two
# characters, which shifts every later offset in the chunk by one.
DOTTED_SURNAMES = ("İnce", "Kİlic", "Yİldiz", "Çİftci", "Erdİnc", "Tekİn")
PLAIN_SURNAMES = ("Aksoy", "Demir", "Kaya", "Sahin", "Ozturk", "Arslan")

# Lexicon surfaces never planted: 'family history' is typed Other (never
# reported) and 'allergies' opens the allergy-list scope of every later term.
UNPLANTED = {"family history", "allergies"}

@dataclass(frozen=True)
class Term:
    surface: str  # lowercased lexicon surface
    semantic_type: str


@dataclass
class Gold:
    start: int
    end: int
    surface: str  # raw casing, line breaks rendered as spaces
    semantic_type: str
    status: str


@dataclass
class Note:
    note_id: str
    text: str
    length_class: int  # index into the workload's length classes
    gold: list[Gold] = field(default_factory=list)
    planted_fault: bool = False  # opens with a dotted-capital-I name


@dataclass
class Lexicon:
    terms: list[Term]  # plantable terms
    all_surfaces: int
    banned_words: set[str]  # one-word surfaces and every synthetic word
    sample_surfaces: list[str]  # every surface of the shipped sample lexicon
    sample_terms: list[Term]  # plantable sample terms
    tsv_path: Path | None = None


def read_tsv_lexicon(path) -> list[tuple[str, str, str]]:
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            surface, concept, type_name = (f.strip() for f in line.split("\t"))
            rows.append((surface.lower(), concept, type_name))
    return rows


def read_abbreviation_types(path) -> dict[str, str | None]:
    """Case-sensitive short form -> its semantic type when it has exactly
    one expansion and that expansion names a type; None otherwise."""
    expansions: dict[str, list[str | None]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        fields = line.split("\t")
        hint = fields[2].strip() if len(fields) == 3 and fields[2].strip() else None
        expansions.setdefault(fields[0].strip(), []).append(hint)
    return {k: (v[0] if len(v) == 1 else None) for k, v in expansions.items()}


def sample_lexicon(data_dir: Path) -> Lexicon:
    rows = read_tsv_lexicon(data_dir / "sample_lexicon.tsv")
    seen: set[str] = set()
    terms = []
    for surface, _concept, type_name in rows:
        if surface in seen:
            continue
        seen.add(surface)
        if surface not in UNPLANTED and type_name in REPORTABLE_TYPES:
            terms.append(Term(surface, type_name))
    single = {s for s in seen if s.isalnum()}
    return Lexicon(terms, len(seen), single, sorted(seen), terms)


_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _nonsense_words(rng: random.Random, count: int) -> list[str]:
    words: set[str] = set()
    while len(words) < count:
        n = rng.choice((2, 2, 2, 3))
        words.add("".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(n)) + "x")
    return sorted(words)


def big_lexicon(data_dir: Path, out_path: Path, seed: int, size: int) -> Lexicon:
    """Write a synthetic lexicon of about `size` surfaces to out_path.

    It opens with the sample lexicon, then adds extensions of sample
    surfaces ('chest pain kavox') and multi-word nonsense terms that share
    first words, so forward maximum matching walks deep, shared trie paths.
    Every nonsense word ends in 'x', which no filler word does.
    """
    rng = random.Random(f"lexicon:{seed}")
    base = sample_lexicon(data_dir)
    rows = read_tsv_lexicon(data_dir / "sample_lexicon.tsv")
    words = _nonsense_words(rng, 4000)
    heads = words[:400]
    surfaces: dict[str, str] = {}
    sample_surfaces = [t.surface for t in base.terms]
    while len(surfaces) < size // 10:
        s = rng.choice(sample_surfaces) + " " + rng.choice(words)
        surfaces.setdefault(s, rng.choice(REPORTABLE_TYPES))
    while len(surfaces) < size - len(rows):
        parts = [rng.choice(heads)] + [rng.choice(words) for _ in range(rng.choice((1,) * 6 + (2,)))]
        surfaces.setdefault(" ".join(parts), rng.choice(REPORTABLE_TYPES))
    lines = [f"{s}\t{c}\t{t}" for s, c, t in rows]
    synthetic = []
    for i, (s, t) in enumerate(surfaces.items()):
        lines.append(f"{s}\tS{i:07d}\t{t}")
        synthetic.append(Term(s, t))
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    banned = base.banned_words | set(words)
    # Plant sample terms and a sample of synthetic ones, half and half.
    planted = base.terms + rng.sample(synthetic, len(base.terms))
    return Lexicon(planted, len(rows) + len(surfaces), banned, base.sample_surfaces, base.terms, out_path)


class NoteBuilder:
    """Accumulates note text and records the raw offsets of planted terms."""

    def __init__(self, rng: random.Random, terms: list[Term], abbrev_types: dict):
        self.rng = rng
        self.terms = terms
        self.abbrev_types = abbrev_types
        self.parts: list[str] = []
        self.length = 0
        self.gold: list[Gold] = []
        self.deck: list[str] = []

    def add(self, text: str) -> None:
        self.parts.append(text)
        self.length += len(text)

    def plant(self, status: str, capital: bool = False) -> None:
        term = self.rng.choice(self.terms)
        surface = term.surface
        semantic_type = term.semantic_type
        if surface in ("hsm", "ra", "nph") and self.rng.random() < 0.5:
            surface = surface.upper()
        elif capital:
            surface = surface[0].upper() + surface[1:]
        if surface in self.abbrev_types and self.abbrev_types[surface]:
            semantic_type = self.abbrev_types[surface]
        self.gold.append(Gold(self.length, self.length + len(surface), surface, semantic_type, status))
        self.add(surface)

    def sentence(self) -> None:
        """One sentence ending in '. '; at most one cue, which governs the
        single mention next to it. Kinds come from a shuffled deck, so every
        ten sentences hold exactly seven mentions and the cost per character
        barely varies between notes and seeds."""
        rng = self.rng
        if not self.deck:
            self.deck = list(SENTENCE_DECK)
            rng.shuffle(self.deck)
        kind = self.deck.pop()
        tail = rng.choice(TAILS)
        if kind == "plain":
            self.add(f"{rng.choice(PLAIN)} {tail}. ")
        elif kind == "pair":
            self.add(rng.choice(OPENERS) + " ")
            self.plant("Present")
            self.add(" and ")
            self.plant("Present")
            self.add(f" {tail}. ")
        elif kind == "site":
            self.plant("Present", capital=True)
            if rng.random() < 0.5:
                self.add(f" in the {rng.choice(SIDES)} {rng.choice(SITES)} {tail}. ")
            else:
                self.add(f" measured at {rng.randint(2, 240)} {rng.choice(UNITS)} {tail}. ")
        elif kind == "forward":
            cue, status = rng.choice(FORWARD_CUES)
            if rng.random() < 0.5:
                self.add(cue[0].upper() + cue[1:] + " ")
            else:
                self.add(f"{rng.choice(CUE_OPENERS)} {cue} ")
            self.plant(status)
            self.add(f" {tail}. ")
        elif kind == "backward":
            cue, status = rng.choice(BACKWARD_CUES)
            self.plant(status, capital=True)
            self.add(f" {cue} {tail}. ")
        else:
            self.plant("Title", capital=True)
            self.add(f": {tail}. ")

    def header(self) -> None:
        self.add(self.rng.choice(HEADERS) + "\n")

    def end_paragraph(self) -> None:
        self.parts[-1] = self.parts[-1].rstrip(" ")
        self.length = sum(len(p) for p in self.parts)
        self.add("\n\n")

    def text(self) -> str:
        return "".join(self.parts).rstrip(" \n")


def wrap(text: str, rng: random.Random, width: int = 78) -> str:
    """Hard-wrap lines the way clinical notes are: replace a space with a
    line break once a line passes `width`. Only spaces after a letter or
    digit are replaced, so the normalizer turns every such break back into a
    space and raw and normalized offsets stay equal."""
    out = list(text)
    col = 0
    limit = width - rng.randint(0, 12)
    for i, ch in enumerate(text):
        if ch == "\n":
            col = 0
            continue
        col += 1
        if ch == " " and col > limit and i > 0 and text[i - 1].isalnum():
            nxt = text[i + 1 : i + 2]
            if nxt.isalpha() and nxt.islower():
                out[i] = "\n"
                col = 0
                limit = width - rng.randint(0, 12)
    return "".join(out)


def make_note(
    note_id: str,
    rng: random.Random,
    terms: list[Term],
    abbrev_types: dict,
    target_chars: int,
    length_class: int,
    opener: str | None = None,
) -> Note:
    builder = NoteBuilder(rng, terms, abbrev_types)
    if opener:
        builder.add(opener)
    left = rng.randint(3, 6)
    while builder.length < target_chars:
        if left == 0:
            builder.end_paragraph()
            if rng.random() < 0.4:
                builder.header()
            left = rng.randint(3, 6)
        builder.sentence()
        left -= 1
    text = wrap(builder.text(), rng)
    return Note(note_id, text, length_class, builder.gold)


@dataclass(frozen=True)
class LengthClass:
    chars: int  # target length; a note lands within +/-3% of it, plus one sentence
    count: int  # notes of this class per round


def make_corpus(
    seed: int,
    name: str,
    classes: tuple[LengthClass, ...],
    lexicon: Lexicon,
    abbrev_types: dict,
    fault_every: int = 0,
) -> list[Note]:
    """Notes for one round of a workload, in a seeded shuffled order.

    With fault_every = k, one note in k opens with a patient name holding a
    dotted capital I; those notes come from a fixed seed, so they are the
    same for every --seed.
    """
    rng = random.Random(f"{name}:{seed}")
    fixed = random.Random(f"{name}:fault")
    specs = [ci for ci, c in enumerate(classes) for _ in range(c.count)]
    notes = []
    plain_specs = []
    for i, ci in enumerate(specs):
        if fault_every and i % fault_every == 0:
            # Planted-fault notes use only --seed-independent inputs: their
            # own generator, the sample terms and fixed note ids.
            name_line = f"{fixed.choice(FIRST_NAMES)} {fixed.choice(DOTTED_SURNAMES)} seen in clinic. "
            target = int(classes[ci].chars * fixed.uniform(0.97, 1.03))
            note_id = f"{name}-fault-{len(notes):03d}"
            note = make_note(note_id, fixed, lexicon.sample_terms, abbrev_types, target, ci, name_line)
            note.planted_fault = True
            if not note.gold:
                raise AssertionError(f"{note_id}: a planted-fault note needs a term after the name")
            notes.append(note)
        else:
            plain_specs.append(ci)
    for i, ci in enumerate(plain_specs):
        name_line = None
        if fault_every:
            name_line = f"{rng.choice(FIRST_NAMES)} {rng.choice(PLAIN_SURNAMES)} seen in clinic. "
        target = int(classes[ci].chars * rng.uniform(0.97, 1.03))
        notes.append(make_note(f"{name}-{i:05d}", rng, lexicon.terms, abbrev_types, target, ci, name_line))
    rng.shuffle(notes)
    for note in notes:
        verify_planting(note, lexicon)
    return notes


def _same_length_lower(text: str) -> str:
    return "".join(c.lower() if len(c.lower()) == 1 else c for c in text)


def _words(text: str) -> list[tuple[int, str]]:
    """(offset, word) for every alphanumeric run."""
    out, start = [], None
    for i, ch in enumerate(text + " "):
        if ch.isalnum():
            if start is None:
                start = i
        elif start is not None:
            out.append((start, text[start:i]))
            start = None
    return out


def verify_planting(note: Note, lexicon: Lexicon) -> None:
    """Generator self-check, raising on a generator bug.

    Each planted span holds its surface; no filler word is a one-word
    lexicon surface or a synthetic word; and every word-bounded occurrence of a
    sample surface lies inside a planted span, so filler can neither form a
    term nor extend one.
    """
    flat = _same_length_lower(note.text.replace("\n", " "))
    spans = sorted((g.start, g.end) for g in note.gold)
    for g in note.gold:
        if flat[g.start : g.end] != g.surface.lower():
            raise AssertionError(f"{note.note_id}: span {g.start}:{g.end} does not hold {g.surface!r}")
    for (_, e1), (s2, _) in zip(spans, spans[1:]):
        if s2 < e1:
            raise AssertionError(f"{note.note_id}: planted spans overlap")
    inside = bytearray(len(flat))
    for s, e in spans:
        inside[s:e] = b"\x01" * (e - s)
    for start, word in _words(flat):
        if not inside[start] and word in lexicon.banned_words:
            raise AssertionError(f"{note.note_id}: filler word {word!r} is a lexicon word")

    def bounded(i: int) -> bool:
        return i <= 0 or i >= len(flat) or not (flat[i - 1].isalnum() and flat[i].isalnum())

    for surface in lexicon.sample_surfaces:
        i = flat.find(surface)
        while i != -1:
            end = i + len(surface)
            if bounded(i) and bounded(end) and not any(s <= i and end <= e for s, e in spans):
                raise AssertionError(f"{note.note_id}: {surface!r} occurs outside a planted span")
            i = flat.find(surface, i + 1)
