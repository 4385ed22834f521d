"""Whole-pipeline properties of `structure` with the rule backend."""

import io
import sys
from pathlib import Path

import pytest

from ehrstruct import integrate, pipeline, preprocess
from ehrstruct.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
NOTES = FIXTURES / "sample_notes.jsonl"
GOLDEN = FIXTURES / "sample_entities.golden.jsonl"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


@pytest.fixture(scope="module")
def corpus():
    """The benchmark's note generator (read only)."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import corpus
    finally:
        sys.path.remove(str(PERFBENCH))
    return corpus


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_output_does_not_depend_on_chunks_workers_or_order_on_generated_notes(
    corpus, lexicon_path, abbrev_path, seed
):
    data = Path(lexicon_path).parent
    lexicon = corpus.sample_lexicon(data)
    abbrev_types = corpus.read_abbreviation_types(abbrev_path)
    classes = (corpus.LengthClass(500, 6), corpus.LengthClass(2000, 3), corpus.LengthClass(8000, 1))
    # every fifth note opens with a dotted capital I
    generated = corpus.make_corpus(seed, "invariance", classes, lexicon, abbrev_types, fault_every=5)
    notes = [preprocess.RawNote(n.note_id, n.text) for n in generated]

    def structure(notes, max_tokens=800, workers=1):
        cfg = pipeline.PipelineConfig(lexicon=lexicon_path, abbreviations=abbrev_path, max_tokens=max_tokens)
        out = io.StringIO()
        integrate.serialize(pipeline.run_structure(notes, pipeline.build_resources(cfg), workers), out)
        return out.getvalue()

    expected = structure(notes)
    assert expected.count("\n") >= sum(len(n.gold) for n in generated) > 0
    assert structure(notes, max_tokens=50) == expected
    assert structure(notes, max_tokens=1) == expected
    assert structure(notes, workers=4) == expected
    assert structure(notes[::-1]) == expected


def test_paragraph_splits_per_note_do_not_depend_on_mentions(monkeypatch, lexicon_path, abbrev_path):
    splits = []
    mentions = []
    original_split = preprocess.split_paragraphs
    original_recognize = pipeline.recognize_note

    def counting_split(*args):
        splits.append(args)
        return original_split(*args)

    def counting_recognize(*args):
        found = original_recognize(*args)
        mentions.extend(found)
        return found

    # Replace every binding of split_paragraphs in the package, not only the
    # preprocess module's, so a consumer that imported it by name is counted.
    for name, module in list(sys.modules.items()):
        if name.startswith("ehrstruct") and getattr(module, "split_paragraphs", None) is original_split:
            monkeypatch.setattr(module, "split_paragraphs", counting_split)
    monkeypatch.setattr(pipeline, "recognize_note", counting_recognize)

    cfg = pipeline.PipelineConfig(lexicon=lexicon_path, abbreviations=abbrev_path)
    res = pipeline.build_resources(cfg)
    with NOTES.open(encoding="utf-8") as fh:
        notes = pipeline.read_notes(fh)
    per_note = []
    for note in notes:
        splits.clear()
        mentions.clear()
        pipeline.structure_note(note, res)
        per_note.append((len(mentions), len(splits)))
    assert len({m for m, _ in per_note}) > 1, "fixture notes should differ in mention count"
    # once to chunk the note, once to find every mention's sentence and paragraph
    assert {n for _, n in per_note} == {2}
