"""Whole-pipeline properties of `structure` with the rule backend."""

import sys
from pathlib import Path

import pytest

from ehrstruct import assertion, pipeline
from ehrstruct.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
NOTES = FIXTURES / "sample_notes.jsonl"
GOLDEN = FIXTURES / "sample_entities.golden.jsonl"


@pytest.fixture
def lexicon_args(lexicon_path, abbrev_path):
    return ["--lexicon", lexicon_path, "--abbreviations", abbrev_path]


@pytest.mark.parametrize("max_tokens", [800, 50, 1])
def test_output_does_not_depend_on_chunk_size(tmp_path, lexicon_args, max_tokens):
    out = tmp_path / "out.jsonl"
    code = main(["structure", *lexicon_args, "--max-tokens", str(max_tokens), str(NOTES), str(out)])
    assert code == 0
    assert out.read_bytes() == GOLDEN.read_bytes()


@pytest.mark.parametrize(
    "reorder", [lambda lines: lines[::-1], lambda lines: lines[1:] + lines[:1]], ids=["reversed", "rotated"]
)
def test_output_does_not_depend_on_note_order(tmp_path, lexicon_args, reorder):
    lines = NOTES.read_text(encoding="utf-8").splitlines()
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("\n".join(reorder(lines)) + "\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert main(["structure", *lexicon_args, str(shuffled), str(out)]) == 0
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_sentence_computed_once_per_mention(monkeypatch, lexicon_path, abbrev_path):
    calls = []
    mentions = []
    original_sentence_for = assertion.sentence_for
    original_recognize = pipeline.recognize_note

    def counting_sentence_for(*args):
        calls.append(args)
        return original_sentence_for(*args)

    def counting_recognize(*args):
        found = original_recognize(*args)
        mentions.extend(found)
        return found

    # Replace every binding of sentence_for in the package, not only the
    # assertion module's, so a consumer that imported it by name is counted.
    for name, module in list(sys.modules.items()):
        if name.startswith("ehrstruct") and getattr(module, "sentence_for", None) is original_sentence_for:
            monkeypatch.setattr(module, "sentence_for", counting_sentence_for)
    monkeypatch.setattr(pipeline, "recognize_note", counting_recognize)

    cfg = pipeline.PipelineConfig(lexicon=lexicon_path, abbreviations=abbrev_path)
    res = pipeline.build_resources(cfg)
    with NOTES.open(encoding="utf-8") as fh:
        notes = pipeline.read_notes(fh)
    for note in notes:
        pipeline.structure_note(note, res)
    assert mentions
    assert len(calls) == len(mentions)
