"""End-to-end orchestration: notes JSONL in, structured entities out.

Per-note processing is independent and runs on a thread pool; output order is
by note_id then span start regardless of worker count, so runs are
byte-identical across --workers settings with a deterministic backend.
"""

from __future__ import annotations

import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import assertion as assertion_mod
from .attributes import BackendError, LlmBackend, RuleBackend, annotate_note
from .integrate import DEFAULT_MISMATCH_THRESHOLD, NoteResult, assemble
from .llm_client import (
    ChatClient,
    ConfigurationError,
    EndpointConfig,
    Transcript,
    TransportError,
)
from .preprocess import ChunkerConfig, RawNote, chunk_note, restore_linebreaks
from .recognition import recognize_note
from .terminology import (
    AbbreviationTable,
    ApplicabilityTable,
    build_index,
    load_lexicon,
)

log = logging.getLogger(__name__)


@dataclass
class PipelineConfig:
    lexicon: str | None = None
    abbreviations: str | None = None
    assertion_rules: str | None = None
    applicability: str | None = None
    backend: str = "rule"  # rule | llm | replay
    transcript: str | None = None
    base_url: str = "http://localhost:8000/v1"
    model: str = "gpt-4o-mini"
    api_key_env: str = "GENIE_API_KEY"
    timeout: float = 60.0
    max_retries: int = 3
    max_in_flight: int = 4
    max_tokens: int = 800
    mismatch_threshold: float = DEFAULT_MISMATCH_THRESHOLD
    workers: int = 1

    _FIELD_TYPES = {
        "timeout": float,
        "mismatch_threshold": float,
        "max_retries": int,
        "max_in_flight": int,
        "max_tokens": int,
        "workers": int,
    }

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        """Plain-text key = value config; '#' starts a comment."""
        cfg = cls()
        with Path(path).open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_")
                value = value.strip()
                if not hasattr(cfg, key) or key.startswith("_"):
                    raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
                caster = cls._FIELD_TYPES.get(key, str)
                try:
                    setattr(cfg, key, caster(value))
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: {key}: expected {caster.__name__}, got {value!r}"
                    ) from None
        return cfg

    def validate(self) -> list[str]:
        """Return a list of problems; empty means valid."""
        problems = []
        if self.backend not in ("rule", "llm", "replay"):
            problems.append(f"backend: unknown backend {self.backend!r}")
        for name in ("lexicon", "abbreviations", "assertion_rules", "applicability"):
            value = getattr(self, name)
            if value and not Path(value).exists():
                problems.append(f"{name}: file not found: {value}")
        if self.backend == "replay":
            if not self.transcript:
                problems.append("transcript: replay backend requires a transcript file")
            elif not Path(self.transcript).exists():
                problems.append(f"transcript: file not found: {self.transcript}")
        if self.backend == "llm" and not os.environ.get(self.api_key_env):
            problems.append(f"api_key_env: {self.api_key_env} is not set (backend=llm)")
        if self.mismatch_threshold < 0:
            problems.append("mismatch_threshold: must be >= 0")
        if self.workers < 1:
            problems.append("workers: must be >= 1")
        for build in (self.chunker, self.endpoint):
            try:
                build()
            except ValueError as exc:
                problems.append(str(exc))
        return problems

    def chunker(self) -> ChunkerConfig:
        return ChunkerConfig(max_tokens=self.max_tokens)

    def endpoint(self) -> EndpointConfig:
        return EndpointConfig(
            base_url=self.base_url,
            model=self.model,
            api_key_env=self.api_key_env,
            timeout=self.timeout,
            max_retries=self.max_retries,
            max_in_flight=self.max_in_flight,
        )


@dataclass
class PipelineResources:
    """Immutable shared state, safe across worker threads."""

    index: object
    abbreviations: AbbreviationTable
    rules: list
    applicability: ApplicabilityTable
    backend: object
    chunker: ChunkerConfig
    mismatch_threshold: float = DEFAULT_MISMATCH_THRESHOLD


def build_resources(cfg: PipelineConfig, index=None) -> PipelineResources:
    if index is None:
        if not cfg.lexicon:
            raise ValueError("config must name a lexicon file")
        entries, _report = load_lexicon(cfg.lexicon)
        index = build_index(entries)
    abbreviations = (
        AbbreviationTable.load(cfg.abbreviations) if cfg.abbreviations else AbbreviationTable()
    )
    rules = assertion_mod.load_rules(cfg.assertion_rules)
    applicability = (
        ApplicabilityTable.load(cfg.applicability) if cfg.applicability else ApplicabilityTable()
    )
    if cfg.backend == "rule":
        backend = RuleBackend()
    else:
        transcript = Transcript.load(cfg.transcript) if cfg.transcript else None
        mode = "replay" if cfg.backend == "replay" else "live"
        client = ChatClient(cfg.endpoint(), mode=mode, transcript=transcript)
        backend = LlmBackend(client)
    return PipelineResources(
        index=index,
        abbreviations=abbreviations,
        rules=rules,
        applicability=applicability,
        backend=backend,
        chunker=cfg.chunker(),
        mismatch_threshold=cfg.mismatch_threshold,
    )


def structure_note(raw: RawNote, res: PipelineResources) -> NoteResult:
    """Run one note through normalize, recognize, assert, annotate, assemble."""
    note = restore_linebreaks(raw)
    chunks = chunk_note(note, res.chunker)
    mentions = recognize_note(note, chunks, res.index, res.abbreviations)
    sentences = [
        assertion_mod.sentence_for(note.text, m.norm_start, m.norm_end) for m in mentions
    ]
    statuses = []
    for m, (sent, s, e) in zip(mentions, sentences):
        par, p_start = assertion_mod.paragraph_for(note.text, m.norm_start)
        statuses.append(
            assertion_mod.classify(sent, s, e, res.rules, paragraph=par, paragraph_start=p_start)
        )
    try:
        attribute_sets, dropped, total = annotate_note(
            chunks, mentions, sentences, res.backend, res.applicability
        )
    except (BackendError, TransportError, ConfigurationError) as exc:
        log.error("note %s: backend failure: %s", raw.note_id, exc)
        return NoteResult(note_id=raw.note_id, rejected=True)
    return assemble(
        raw.note_id,
        mentions,
        statuses,
        attribute_sets,
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
    """Parse notes JSONL: one {note_id, text} object per line."""
    notes = []
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            d = json.loads(line)
            notes.append(RawNote(note_id=str(d["note_id"]), text=d["text"]))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValueError(f"line {lineno}: invalid note record: {exc}") from exc
    return notes
