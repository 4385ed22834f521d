"""Metamorphic checks over the whole rule pipeline: an edit to a note whose
effect on the entities is known in advance, run on notes whose entities no
oracle gives in full.

Relations checked:
- a term-free paragraph put in front of a note shifts every span by the
  paragraph's length and changes nothing else;
- a note's first paragraph alone gives exactly the entities that the whole
  note gives inside that paragraph;
- a note cut at the end of any sentence of its own segmentation (`segment`
  over the spans of `recognize_note`) gives exactly the entities of the
  whole note that end before the cut;
- a note re-wrapped by one swap, a space between two non-space characters
  for a line break or a replaced line break between two non-space characters
  for a space, gives the same entities byte for byte. Named exceptions, which
  are not checked: a swap that changes what `_keep_break` keeps (the new
  break itself, when the line before ends in [.!?:] and spaces or the line
  after starts with a list marker or a section header, or a neighbouring
  break whose line now starts or ends differently); a swap next to
  whitespace, where a replaced break merges with the space beside it and the
  normalized text loses a character; and CRLF notes;
- notes structured in two runs, split anywhere and merged by note_id, give
  the bytes of one run over all of them, with 1 worker or 4;
- `ehrstruct structure` writes the same bytes under two `PYTHONHASHSEED`s.
"""

import dataclasses
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ehrstruct import integrate, pipeline
from ehrstruct.preprocess import RawNote, _keep_break, restore_linebreaks, segment
from ehrstruct.recognition import recognize_note
from test_pipeline import planted_attribute_notes

NOTES = Path(__file__).parent / "fixtures" / "sample_notes.jsonl"
# no lexicon term, assertion cue, allergy word or section header
TERM_FREE_PARAGRAPH = "The patient was seen in clinic today with her daughter.\n\n"


@pytest.fixture(scope="module")
def resources(lexicon_path, abbrev_path):
    return pipeline.build_resources(pipeline.PipelineConfig(lexicon=lexicon_path, abbreviations=abbrev_path))


@pytest.fixture(scope="module")
def planted(lexicon_path, abbrev_path):
    notes, _ = planted_attribute_notes(1, lexicon_path, abbrev_path)
    return [RawNote(n["note_id"], n["text"]) for n in notes]


@pytest.fixture(scope="module", params=["fixtures", "planted-1"])
def notes(request, planted):
    return pipeline.read_notes(NOTES) if request.param == "fixtures" else planted


def entities(note, res):
    result = pipeline.structure_note(note, res)
    assert not result.rejected
    return [integrate.entity_to_dict(e) for e in result.entities]


def test_the_paragraph_holds_no_term(resources):
    assert entities(RawNote("p", TERM_FREE_PARAGRAPH), resources) == []


def test_a_term_free_paragraph_in_front_shifts_every_span(resources, notes):
    shift = len(TERM_FREE_PARAGRAPH)
    checked = 0
    for note in notes:
        expected = entities(note, resources)
        for entity in expected:
            entity["span"] = {name: offset + shift for name, offset in entity["span"].items()}
        prefixed = dataclasses.replace(note, text=TERM_FREE_PARAGRAPH + note.text)
        assert entities(prefixed, resources) == expected, note.note_id
        checked += len(expected)
    assert checked >= 13


def test_the_first_paragraph_alone_gives_its_own_entities(resources, notes):
    # each note as it is, and followed by the next note as a paragraph of its
    # own, so that a note of one paragraph has one to cut
    joined = [dataclasses.replace(a, text=f"{a.text}\n\n{b.text}") for a, b in zip(notes, notes[1:] + notes[:1])]
    checked = cut = 0
    for note in notes + joined:
        first = note.text[: segment(note.text)[0].par_end]
        expected = [e for e in entities(note, resources) if e["span"]["end"] <= len(first)]
        alone = dataclasses.replace(note, text=first)
        assert entities(alone, resources) == expected, note.note_id
        checked += len(expected)
        cut += first != note.text
    assert checked >= 13 and cut >= len(notes)


def test_a_note_cut_after_a_sentence_keeps_the_entities_before_the_cut(resources, notes):
    checked = cuts = 0
    for note in notes:
        whole = entities(note, resources)
        normalized = restore_linebreaks(note)
        mentions = recognize_note(normalized, resources.index, resources.abbreviations)
        sentences = segment(normalized.text, [(m.norm_start, m.norm_end) for m in mentions])
        for sentence in sentences[:-1]:
            # the raw offset just after the sentence's last character
            cut = normalized.offset_map[sentence.end - 1] + 1
            expected = [e for e in whole if e["span"]["end"] <= cut]
            assert entities(dataclasses.replace(note, text=note.text[:cut]), resources) == expected, (note.note_id, cut)
            checked += len(expected)
            cuts += 1
    assert cuts >= 2 * len(notes) and checked >= 13


def breaks_kept(text):
    lines = text.split("\n")
    return [_keep_break(a, b) for a, b in zip(lines, lines[1:])]


def rewraps(text):
    """Each text one swap of a space and a replaced line break makes of text,
    leaving out the named exceptions."""
    kept = breaks_kept(text)
    for i in range(1, len(text) - 1):
        char = text[i]
        if char not in " \n" or text[i - 1].isspace() or text[i + 1].isspace():
            continue
        j = text.count("\n", 0, i)  # the swapped break is break j
        if char == "\n" and kept[j]:
            continue
        expected = kept[:j] + [False] + kept[j:] if char == " " else kept[:j] + kept[j + 1 :]
        swapped = text[:i] + {" ": "\n", "\n": " "}[char] + text[i + 1 :]
        if breaks_kept(swapped) == expected:
            yield swapped


def test_a_rewrapped_note_gives_the_same_entities(resources, notes):
    swaps = {" ": 0, "\n": 0}
    for note in notes:
        if "\r" in note.text:
            continue
        expected = entities(note, resources)
        for text in rewraps(note.text):
            assert entities(dataclasses.replace(note, text=text), resources) == expected, (note.note_id, text)
            swaps[next(a for a, b in zip(note.text, text) if a != b)] += 1
    assert swaps[" "] >= 50
    if notes[0].note_id.startswith("note"):  # the fixture notes hold hard-wrapped lines
        assert swaps["\n"] >= 2


def serialized(results):
    sink = io.StringIO()
    integrate.serialize(results, sink)
    return sink.getvalue()


@pytest.mark.parametrize("workers", [1, 4])
def test_notes_structured_apart_give_the_bytes_of_one_run(resources, planted, workers):
    notes = pipeline.read_notes(NOTES) + planted
    whole = serialized(pipeline.run_structure(notes, resources, workers))
    for k in range(len(notes) + 1):
        apart = [r for part in (notes[:k], notes[k:]) for r in pipeline.run_structure(part, resources, workers)]
        assert serialized(sorted(apart, key=lambda r: r.note_id)) == whole, k
    assert whole.count("\n") >= 13


def test_the_output_does_not_depend_on_the_hash_seed(tmp_path, lexicon_path, abbrev_path):
    outputs = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed-{seed}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "ehrstruct.cli", "structure", "--lexicon", lexicon_path,
             "--abbreviations", abbrev_path, str(NOTES), str(out)],
            capture_output=True, timeout=60,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] and outputs[0]
