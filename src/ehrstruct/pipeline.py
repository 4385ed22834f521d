"""End-to-end orchestration: notes JSONL in, structured entities out.

Each note is normalized, case-folded and recognized as a whole, then segmented
once into sentences and paragraphs with no boundary inside a mention.
Assertion and the rule backend search each mention's sentence where it stands
in the note; only the LLM backend packs the segmentation into chunks.

Per-note processing is independent and runs on a thread pool; output order is
by note_id then span start regardless of worker count, so runs are
byte-identical across --workers settings with a deterministic backend. The
threads speed up only the LLM backend, which waits on its endpoint: the rule
and replay backends are CPU-bound and share the interpreter lock (replaying
150 generated 1-KB notes took 0.45-0.52 s with --workers 1 and 0.50-0.52 s
with --workers 4, 2 vCPUs). Each LLM worker also sends its note's prompts
concurrently, and one client-wide bound, `max_in_flight`, caps the calls in
flight across all workers. `--backend llm` with a transcript records every
answer, for the caller to save; `--backend replay` answers from a saved
transcript.
"""

from __future__ import annotations

import logging
import os
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

from . import assertion as assertion_mod
from .attributes import BackendError, LlmBackend, RuleBackend, annotate_note
from .integrate import DEFAULT_MISMATCH_THRESHOLD, NoteResult, assemble
from .llm_client import ChatClient, ConfigurationError, Transcript, TransportError, endpoint_problems
from .preprocess import RawNote, restore_linebreaks, segment
from .recognition import recognize_note
from .terminology import AbbreviationTable, LiteralIndex, SemanticType, TermIndex, load_lexicon
from .terminology import InputFormatError, load_applicability, read_jsonl, read_lines

log = logging.getLogger(__name__)


@dataclass
class PipelineConfig:
    lexicon: str | None = None
    abbreviations: str | None = None
    assertion_rules: str | None = None
    applicability: str | None = None
    backend: str = "rule"  # rule | llm | replay
    transcript: str | None = None
    # the endpoint settings, which llm_client.ChatClient reads
    base_url: str = "http://localhost:8000/v1"
    model: str = "gpt-4o-mini"
    api_key_env: str = "GENIE_API_KEY"
    timeout: float = 60.0
    max_retries: int = 3
    max_in_flight: int = 4
    max_tokens: int = 800
    mismatch_threshold: float = DEFAULT_MISMATCH_THRESHOLD
    workers: int = 1

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        """Plain-text key = value config (`read_lines`); '#' also starts a
        comment after a setting. Values take their field's type. A setting
        given twice ('max-tokens' is 'max_tokens') fails at its second line."""
        types = {"int": int, "float": float}  # field annotations are strings
        casters = {f.name: types.get(f.type, str) for f in fields(cls)}
        cfg = cls()
        first_lines: dict[str, int] = {}
        for lineno, line in read_lines(path):
            line = line.split("#", 1)[0].strip()
            if "=" not in line:
                raise InputFormatError(path, lineno, "expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in casters:
                raise InputFormatError(path, lineno, f"unknown setting {key!r}")
            if (first := first_lines.setdefault(key, lineno)) != lineno:
                raise InputFormatError(path, lineno, f"duplicate setting {key!r}, first on line {first}")
            caster = casters[key]
            try:
                setattr(cfg, key, caster(value))
            except ValueError:
                raise InputFormatError(
                    path, lineno, f"{key}: expected {caster.__name__}, got {value!r}"
                ) from None
        return cfg

    def validate(self) -> list[str]:
        """Return a list of problems; empty means valid."""
        problems = []
        if self.backend not in ("rule", "llm", "replay"):
            problems.append(f"backend: unknown backend {self.backend!r}")
        if not self.lexicon:
            problems.append("lexicon: config must name a lexicon file")
        for name in ("lexicon", "abbreviations", "assertion_rules", "applicability"):
            value = getattr(self, name)
            if value and not Path(value).exists():
                problems.append(f"{name}: file not found: {value}")
        if self.backend == "replay":
            if not self.transcript:
                problems.append("transcript: replay backend requires a transcript file")
            elif not Path(self.transcript).exists():
                problems.append(f"transcript: file not found: {self.transcript}")
        elif self.backend == "llm" and self.transcript:
            directory = Path(self.transcript).parent
            if not directory.is_dir():
                problems.append(f"transcript: directory not found: {directory}")
        elif self.backend == "rule" and self.transcript:
            problems.append("transcript: not used by backend 'rule'")
        if self.backend == "llm" and not os.environ.get(self.api_key_env):
            problems.append(f"api_key_env: {self.api_key_env} is not set (backend=llm)")
        if not self.mismatch_threshold >= 0:  # NaN too: no ratio is > NaN
            problems.append("mismatch_threshold: must be >= 0")
        if self.workers < 1:
            problems.append("workers: must be >= 1")
        if self.max_tokens <= 0:
            problems.append("max_tokens must be positive")
        return problems + endpoint_problems(self.timeout, self.max_retries, self.max_in_flight)


@dataclass
class PipelineResources:
    """Shared state, safe across worker threads. Nothing in it changes after
    set-up but the index, which decodes the tables of a lexicon's sidecar
    as queries first ask for them (see `TermIndex`)."""

    index: object
    abbreviations: AbbreviationTable
    rules: LiteralIndex
    applicability: Mapping[SemanticType, frozenset[str]]
    backend: object
    mismatch_threshold: float = DEFAULT_MISMATCH_THRESHOLD


def load_terms(cfg: PipelineConfig) -> tuple[TermIndex, AbbreviationTable]:
    """The lexicon index and abbreviation table: all that recognition reads."""
    if not cfg.lexicon:
        raise ValueError("config must name a lexicon file")
    index, report = load_lexicon(cfg.lexicon)
    if report.unknown_types:
        log.warning(
            "%s: %d line(s) with an unknown semantic type; their surfaces are typed Other and never reported",
            cfg.lexicon, report.unknown_types,
        )
    if report.unmatchable:
        log.warning(
            "%s: %d surface(s) with no leading letter or digit; no match can start with them",
            cfg.lexicon, report.unmatchable,
        )
    abbreviations = (
        AbbreviationTable.load(cfg.abbreviations) if cfg.abbreviations else AbbreviationTable()
    )
    return index, abbreviations


def build_resources(cfg: PipelineConfig) -> PipelineResources:
    index, abbreviations = load_terms(cfg)
    rules = assertion_mod.load_triggers(cfg.assertion_rules or None)  # an empty setting names no file
    applicability = load_applicability(cfg.applicability or None)
    if cfg.backend == "rule":
        backend = RuleBackend()
    else:
        if cfg.backend == "replay":
            client = ChatClient(cfg, mode="replay", transcript=Transcript.load(cfg.transcript))
        else:
            client = ChatClient(cfg, mode="record" if cfg.transcript else "live")
        backend = LlmBackend(client, max_tokens=cfg.max_tokens)
    return PipelineResources(
        index=index,
        abbreviations=abbreviations,
        rules=rules,
        applicability=applicability,
        backend=backend,
        mismatch_threshold=cfg.mismatch_threshold,
    )


def structure_note(raw: RawNote, res: PipelineResources) -> NoteResult:
    """Run one note through normalize, recognize, segment, assert, annotate,
    assemble."""
    note = restore_linebreaks(raw)
    mentions = recognize_note(note, res.index, res.abbreviations)
    segmentation = segment(note.text, [(m.norm_start, m.norm_end) for m in mentions])
    sentences = assertion_mod.mention_sentences(segmentation, mentions)
    statuses = assertion_mod.classify_mentions(note, mentions, sentences, res.rules)
    try:
        records, dropped, total = annotate_note(
            note, segmentation, mentions, sentences, res.backend, res.applicability
        )
    except (BackendError, TransportError, ConfigurationError) as exc:
        log.error("note %s: backend failure: %s", raw.note_id, exc)
        return NoteResult(note_id=raw.note_id, rejected=True)
    return assemble(
        raw.note_id,
        mentions,
        statuses,
        records,
        dropped_lines=dropped,
        total_lines=total,
        mismatch_threshold=res.mismatch_threshold,
    )


def run_structure(notes: list[RawNote], res: PipelineResources, workers: int = 1) -> list[NoteResult]:
    seen = set()
    for n in notes:
        if n.note_id in seen:
            raise ValueError(f"duplicate note_id {n.note_id!r}")
        seen.add(n.note_id)
    if workers <= 1 or len(notes) <= 1:
        results = [structure_note(n, res) for n in notes]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda n: structure_note(n, res), notes))
    return sorted(results, key=lambda r: r.note_id)


def read_notes(source) -> list[RawNote]:
    """Parse notes JSONL (`read_jsonl`): one {note_id, text} object per line,
    text a string, and no note_id on two lines."""
    return list(read_jsonl(source, _raw_note, key=lambda note: f"note_id {note.note_id!r}"))


def _raw_note(record: dict) -> RawNote:
    note_id = record["note_id"]
    # bool is an int, but true would become the id "True"
    if type(note_id) not in (str, int):
        raise ValueError("'note_id' must be a string or an integer")
    if not isinstance(record["text"], str):
        raise ValueError("'text' must be a string")
    for value in (str(note_id), record["text"]):
        value.encode("utf-8")  # a lone surrogate raises UnicodeEncodeError, a ValueError
    return RawNote(note_id=str(note_id), text=record["text"])
