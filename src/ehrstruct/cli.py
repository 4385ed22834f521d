"""Command-line interface wiring the pipeline stages together.

Every stage reads and writes JSONL so intermediate results can be inspected
and re-run independently; `structure` runs the whole pipeline in one pass.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys

from .evaluate import render_table, report_files
from .integrate import rejection_report, serialize
from .pipeline import (
    PipelineConfig,
    build_resources,
    load_terms,
    read_notes,
    run_structure,
)
from .preprocess import chunk_note, restore_linebreaks, segment
from .recognition import recognize_note
from .terminology import AbbreviationTable

log = logging.getLogger(__name__)


def _input(path):
    """What the readers take for an input argument: the path, or stdin,
    decoded as strict UTF-8 as files are."""
    if path != "-":
        return path
    sys.stdin.reconfigure(encoding="utf-8", errors="strict")
    return sys.stdin


def _open_out(path):
    return sys.stdout if path == "-" else open(path, "w", encoding="utf-8")


def _error(exc) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 1


def _config_from_args(args) -> PipelineConfig:
    cfg = PipelineConfig.load(args.config) if args.config else PipelineConfig()
    for field in dataclasses.fields(PipelineConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            setattr(cfg, field.name, value)
    return cfg


def _checked_config(args, keys=None) -> PipelineConfig | None:
    """Config from --config and flags, or None once its problems (those
    starting with one of keys, if given) are printed."""
    try:
        cfg = _config_from_args(args)
    except (OSError, ValueError) as exc:
        _error(exc)
        return None
    problems = [p for p in cfg.validate() if keys is None or p.startswith(keys)]
    for p in problems:
        print(f"config error: {p}", file=sys.stderr)
    return None if problems else cfg


def cmd_structure(args) -> int:
    cfg = _checked_config(args)
    if cfg is None:
        return 1
    try:
        res = build_resources(cfg)
        notes = read_notes(_input(args.input))
    except (OSError, ValueError) as exc:
        return _error(exc)
    results = run_structure(notes, res, workers=cfg.workers)
    with _open_out(args.output) as out:
        serialize(results, out, group_by_note=args.group_by_note)
    if cfg.backend == "llm" and cfg.transcript:
        try:
            res.backend.client.transcript.save(cfg.transcript)
        except OSError as exc:
            return _error(exc)
    rejected = rejection_report(results)
    if args.rejections:
        with _open_out(args.rejections) as out:
            for rec in rejected:
                out.write(json.dumps(rec) + "\n")
    if rejected:
        print(f"{len(rejected)} of {len(results)} notes rejected", file=sys.stderr)
        return 2
    return 0


def cmd_evaluate(args) -> int:
    try:
        abbrev = None
        if args.abbreviations:
            abbrev = AbbreviationTable.load(args.abbreviations)
        report = report_files(args.gold, args.pred, abbrev=abbrev, macro=args.macro)
    except (OSError, ValueError) as exc:
        return _error(exc)
    print(render_table(report, name=args.name))
    if args.json:
        with _open_out(args.json) as out:
            json.dump(report.to_dict(), out, indent=2)
            out.write("\n")
    return 0


def cmd_validate_config(args) -> int:
    try:
        cfg = _config_from_args(args)
    except (OSError, ValueError) as exc:
        return _error(exc)
    problems = cfg.validate()
    for key, value in dataclasses.asdict(cfg).items():
        print(f"{key} = {value}")
    if problems:
        for p in problems:
            print(f"config error: {p}", file=sys.stderr)
        return 1
    print("config OK")
    return 0


def cmd_preprocess(args) -> int:
    cfg = _checked_config(args, ("max_tokens",))
    if cfg is None:
        return 1
    try:
        notes = read_notes(_input(args.input))
    except (OSError, ValueError) as exc:
        return _error(exc)
    with _open_out(args.output) as out:
        for raw in notes:
            note = restore_linebreaks(raw)
            for chunk in chunk_note(note, segment(note.text), cfg.max_tokens):
                out.write(json.dumps(dataclasses.asdict(chunk), ensure_ascii=False) + "\n")
    return 0


def cmd_recognize(args) -> int:
    cfg = _checked_config(args, ("lexicon", "abbreviations"))
    if cfg is None:
        return 1
    try:
        index, abbreviations = load_terms(cfg)
        notes = read_notes(_input(args.input))
    except (OSError, ValueError) as exc:
        return _error(exc)
    with _open_out(args.output) as out:
        for raw in notes:
            for m in recognize_note(restore_linebreaks(raw), index, abbreviations):
                rec = dataclasses.asdict(m)
                rec["semantic_type"] = m.semantic_type.value
                out.write(json.dumps(rec, ensure_ascii=False) + "\n")
    return 0


def _add_common(parser, lexicon=True, max_tokens=True, run=False):
    parser.add_argument("--config", help="plain-text key = value configuration file")
    if lexicon:
        parser.add_argument("--lexicon", help="lexicon TSV (surface, concept_id, semantic_type)")
        parser.add_argument("--abbreviations", help="abbreviation table TSV")
    if max_tokens:
        parser.add_argument("--max-tokens", type=int, dest="max_tokens", help="chunk token budget")
    if run:  # the settings of a whole-pipeline run
        parser.add_argument("--backend", choices=["rule", "llm", "replay"])
        parser.add_argument(
            "--transcript", help="transcript JSONL: written by --backend llm, read by --backend replay"
        )
        parser.add_argument("--assertion-rules", dest="assertion_rules", help="trigger rule TSV")
        parser.add_argument("--applicability", help="applicability override config")
        parser.add_argument("--mismatch-threshold", type=float, dest="mismatch_threshold")
        parser.add_argument("--workers", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehrstruct",
        description="Structure clinical notes into per-term JSON records and score them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("structure", help="run the full pipeline over notes JSONL")
    _add_common(p, run=True)
    p.add_argument("input", help="notes JSONL ('-' for stdin)")
    p.add_argument("output", help="entities JSONL ('-' for stdout)")
    p.add_argument("--rejections", help="write the rejection report JSONL here")
    p.add_argument("--group-by-note", action="store_true")
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("evaluate", help="score predictions against gold annotations")
    p.add_argument("gold", help="gold entities JSONL")
    p.add_argument("pred", help="predicted entities JSONL")
    p.add_argument("--abbreviations", help="abbreviation table for acronym equivalence")
    p.add_argument("--macro", action="store_true", help="average per note instead of pooling")
    p.add_argument("--name", default="pipeline", help="row label in the rendered table")
    p.add_argument("--json", help="also write the report as JSON to this path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("validate-config", help="validate config and print resolved settings")
    _add_common(p, run=True)
    p.set_defaults(func=cmd_validate_config)

    p = sub.add_parser("preprocess", help="normalize and chunk notes")
    _add_common(p, lexicon=False)
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("recognize", help="emit recognized mentions as JSONL")
    _add_common(p, max_tokens=False)
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_recognize)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
