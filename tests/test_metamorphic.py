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
  whole note that end before the cut.
"""

import dataclasses
from pathlib import Path

import pytest

from ehrstruct import integrate, pipeline
from ehrstruct.preprocess import RawNote, restore_linebreaks, segment, split_paragraphs
from ehrstruct.recognition import recognize_note
from test_pipeline import planted_attribute_notes

NOTES = Path(__file__).parent / "fixtures" / "sample_notes.jsonl"
# no lexicon term, assertion cue, allergy word or section header
TERM_FREE_PARAGRAPH = "The patient was seen in clinic today with her daughter.\n\n"


@pytest.fixture(scope="module")
def resources(lexicon_path, abbrev_path):
    return pipeline.build_resources(pipeline.PipelineConfig(lexicon=lexicon_path, abbreviations=abbrev_path))


@pytest.fixture(scope="module", params=["fixtures", "planted-1"])
def notes(request, lexicon_path, abbrev_path):
    if request.param == "fixtures":
        return pipeline.read_notes(NOTES)
    planted, _ = planted_attribute_notes(1, lexicon_path, abbrev_path)
    return [RawNote(n["note_id"], n["text"]) for n in planted]


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
        first = split_paragraphs(note.text)[0]
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
