"""Whole-pipeline properties of `structure` with the rule backend."""

import dataclasses
import io
import json
import random
import re
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehrstruct import integrate, pipeline, preprocess
from ehrstruct.attributes import LlmBackend
from ehrstruct.cli import main
from ehrstruct.terminology import ATTRIBUTE_KINDS, PURPOSE, ApplicabilityTable, SemanticType
from oracles import brute_force_recognize

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


def evaluate_json(tmp_path, abbrev_path, gold, pred) -> dict:
    """`ehrstruct evaluate --json` of pred against the gold records."""
    gold_path, report_path = tmp_path / "gold.jsonl", tmp_path / "report.json"
    gold_path.write_text("".join(json.dumps(g, ensure_ascii=False) + "\n" for g in gold), encoding="utf-8")
    args = ["evaluate", "--abbreviations", abbrev_path, "--json", str(report_path)]
    assert main([*args, str(gold_path), str(pred)]) == 0
    return json.loads(report_path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_structure_recovers_planted_gold(corpus, tmp_path, lexicon_path, abbrev_path, seed):
    lexicon = corpus.sample_lexicon(Path(lexicon_path).parent)
    abbrev_types = corpus.read_abbreviation_types(abbrev_path)
    classes = (corpus.LengthClass(500, 6), corpus.LengthClass(2000, 3))
    generated = corpus.make_corpus(seed, "gold", classes, lexicon, abbrev_types, fault_every=5)
    notes, pred = tmp_path / "notes.jsonl", tmp_path / "pred.jsonl"
    notes.write_text(
        "".join(json.dumps({"note_id": n.note_id, "text": n.text}) + "\n" for n in generated), encoding="utf-8"
    )
    lexicon_args = ["--lexicon", lexicon_path, "--abbreviations", abbrev_path]
    assert main(["structure", *lexicon_args, str(notes), str(pred)]) == 0
    # the generator's own gold; no attribute is scored, only phrase and status
    not_scored = dict.fromkeys(("locations", "modifiers", "value", "unit", "purpose"), "not applicable")
    gold = [
        {
            "note_id": n.note_id,
            "phrase": g.surface,
            "surface": g.surface,
            "span": {"start": g.start, "end": g.end},
            "semantic_type": g.semantic_type,
            "assertion_status": g.status,
            **not_scored,
        }
        for n in generated
        for g in n.gold
    ]

    report = evaluate_json(tmp_path, abbrev_path, gold, pred)
    n = len(gold)
    assert n > 100
    assert report["phrase"] == {"tp": n, "fp": 0, "fn": 0, "precision": 1.0, "recall": 1.0, "f1": 1.0}
    assert report["attributes"]["status"] == {"correct": n, "total": n, "accuracy": 1.0}
    # the check can fail: one flipped gold status shows in the score
    gold[n // 2]["assertion_status"] = "Present" if gold[n // 2]["assertion_status"] != "Present" else "Absent"
    flipped = evaluate_json(tmp_path, abbrev_path, gold, pred)
    assert flipped["attributes"]["status"] == {"correct": n - 1, "total": n, "accuracy": (n - 1) / n}


def _data_rows(path: Path) -> list[list[str]]:
    """The TAB-separated fields of each line of a data file, '#' comments
    dropped."""
    lines = (line.split("#", 1)[0].strip() for line in path.read_text(encoding="utf-8").splitlines())
    return [[field.strip() for field in line.split("\t")] for line in lines if line]


def _whole_tokens(surface: str, text: str) -> list[tuple[int, int]]:
    pattern = r"(?<![a-z0-9])" + re.escape(surface) + r"(?![a-z0-9])"
    return [m.span() for m in re.finditer(pattern, text.lower())]


# Each sentence holds one term, a modifier next to it, a value with a unit
# after it and an anatomy surface ({loc}) before or after it.
_TEMPLATES = (
    "Noted {mod} {term} {value} {unit} in the {loc}.",
    "Noted {term} {mod} {value} {unit} in the {loc}.",
    "In the {loc}, {mod} {term} {value} {unit}.",
)
_VALUES = ("12", "3.5", "1,200", "0", "<= 7", ">10", "\u2265 4")
_DIRECTIONS = ("left", "right", "bilateral", "upper", "lower")
# A term that may carry a purpose gets " for {purpose}" at its sentence's end.
_PURPOSES = ("anticoagulation", "rate control", "staging", "screening", "thrombosis prophylaxis", "diuresis")


def planted_attribute_notes(seed, lexicon_path, abbrev_path, notes=30, per_note=6):
    """Notes made of sentences that each plant, next to one sample-lexicon
    term, a modifier from modifiers.txt, a value with a unit from units.txt
    and an anatomy surface from anatomy.txt with or without a direction word,
    and, for a term whose type may carry one, a purpose; and the gold records
    of those terms, from the construction.

    The data files are read here as text. A draw is taken again when the
    recognition oracle finds anything in its sentence but the term, or when
    an anatomy surface other than the planted one lies outside the term."""
    rng = random.Random(seed)
    data_dir = Path(lexicon_path).parent
    table = ApplicabilityTable()
    lexicon = _data_rows(Path(lexicon_path))
    abbreviations = {row[0].lower() for row in _data_rows(Path(abbrev_path))}
    surfaces = [row[0] for row in lexicon]
    terms = [
        (surface, SemanticType.from_name(type_name))
        for surface, _, type_name in lexicon
        if SemanticType.from_name(type_name).reportable and surface not in abbreviations
    ]
    anatomy = {row[0].lower(): row[-1] for row in _data_rows(data_dir / "anatomy.txt")}
    anatomy_surfaces = sorted(anatomy)
    units = [row[0] for row in _data_rows(data_dir / "units.txt")]
    modifiers = sorted({row[0] for row in _data_rows(data_dir / "modifiers.txt")} - set(_DIRECTIONS))
    texts, gold = [], []
    for i in range(notes):
        note_id, text = f"attr-{i:03d}", ""
        while len(gold) < (i + 1) * per_note:
            term, sem_type = rng.choice(terms)
            surface = rng.choice(anatomy_surfaces)
            direction = rng.choice((None, *_DIRECTIONS))
            parts = {
                "mod": rng.choice(modifiers),
                "term": rng.choice((term, term.capitalize())),
                "value": rng.choice(_VALUES),
                "unit": rng.choice(units),
                "loc": f"{direction} {surface}" if direction else surface,
            }
            sentence = rng.choice(_TEMPLATES).format(**parts)
            applicable = table.applicable_attributes(sem_type)
            purpose = rng.choice(_PURPOSES) if PURPOSE in applicable else None
            if purpose:
                sentence = f"{sentence[:-1]} for {purpose}."
            start = sentence.index(parts["term"])
            end = start + len(term)
            if brute_force_recognize(sentence, surfaces) != [(start, end)]:
                continue  # a word next to the term forms another term
            outside = [span for s in anatomy for span in _whole_tokens(s, sentence) if span[1] <= start or span[0] >= end]
            if outside != _whole_tokens(surface, sentence):
                continue  # another anatomy surface in the sentence
            offset = len(text)
            text += sentence + " "
            planted = {
                "location": [f"{direction} {anatomy[surface]}" if direction else anatomy[surface]],
                "modifier": [parts["mod"]],
                "value": parts["value"],
                "unit": parts["unit"],
                "purpose": purpose,
            }
            gold.append(
                {
                    "note_id": note_id,
                    "phrase": parts["term"],
                    "surface": parts["term"],
                    "span": {"start": offset + start, "end": offset + end},
                    "semantic_type": sem_type.value,
                    "assertion_status": "Present",  # not scored here
                    **{
                        integrate.ATTRIBUTE_FIELDS[kind]: planted[kind] if kind in applicable else "not applicable"
                        for kind in ATTRIBUTE_KINDS
                    },
                }
            )
        texts.append({"note_id": note_id, "text": text.rstrip()})
    return texts, gold


@pytest.mark.parametrize("seed", [1, 2])
def test_structure_recovers_planted_attributes(tmp_path, lexicon_path, abbrev_path, seed):
    notes, gold = planted_attribute_notes(seed, lexicon_path, abbrev_path)
    notes_path, pred = tmp_path / "notes.jsonl", tmp_path / "pred.jsonl"
    notes_path.write_text("".join(json.dumps(n, ensure_ascii=False) + "\n" for n in notes), encoding="utf-8")
    lexicon_args = ["--lexicon", lexicon_path, "--abbreviations", abbrev_path]
    assert main(["structure", *lexicon_args, str(notes_path), str(pred)]) == 0
    report = evaluate_json(tmp_path, abbrev_path, gold, pred)
    n = len(gold)
    assert report["phrase"] == {"tp": n, "fp": 0, "fn": 0, "precision": 1.0, "recall": 1.0, "f1": 1.0}
    for kind in ("location", "modifier", "value", "unit"):
        scored = report["attributes"][kind]
        assert scored["total"] > 50, kind
        assert scored["accuracy"] == 1.0, (kind, scored)
    # the check can fail: one flipped gold value gives (n - 1) / n
    valued = [g for g in gold if g["value"] != "not applicable"]
    valued[len(valued) // 2]["value"] = "999"
    flipped = evaluate_json(tmp_path, abbrev_path, gold, pred)["attributes"]["value"]
    m = len(valued)
    assert flipped == {"correct": m - 1, "total": m, "accuracy": (m - 1) / m}


@pytest.fixture(scope="module")
def parse_prompt():
    """The benchmark stub's reader of a per-kind prompt (read only)."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import stub
    finally:
        sys.path.remove(str(PERFBENCH))
    return stub.parse_prompt


def perfect_model(parse_prompt, notes, gold, wrong=None):
    """A reply function for the conftest stub that answers each per-kind
    prompt from the planted gold: one 'term: value' line per listed term,
    or 'term: null'. The prompt's line that holds the {{marked}} terms,
    unmarked, is a part of one note, so each mark's offset in that note
    names its gold record. wrong: the (note_id, start) of the one term whose
    purpose it answers wrongly."""
    texts = {n["note_id"]: n["text"] for n in notes}
    records = {(g["note_id"], g["span"]["start"]): g for g in gold}

    def reply(prompt):
        kind, terms = parse_prompt(prompt)
        marked = next(line for line in prompt.splitlines() if "{{" in line)
        part = marked.replace("{{", "").replace("}}", "")
        note_id, offset = next((i, text.find(part)) for i, text in texts.items() if part in text)
        lines = []
        for term, m in zip(terms, re.finditer(r"\{\{(.*?)\}\}", marked)):
            start = offset + m.start() - 4 * len(lines)  # each earlier mark adds 4 characters
            value = records[note_id, start][integrate.ATTRIBUTE_FIELDS[kind]]
            if kind == PURPOSE and (note_id, start) == wrong:
                value = "wrong purpose"
            if isinstance(value, list):
                (value,) = value
            lines.append(f"{term}: {'null' if value is None else value}")
        return "\n".join(lines)

    return reply


def test_llm_path_recovers_planted_attributes(
    stub_server, monkeypatch, parse_prompt, tmp_path, lexicon_path, abbrev_path
):
    monkeypatch.setenv("GENIE_API_KEY", "test-key")
    notes, gold = planted_attribute_notes(1, lexicon_path, abbrev_path)
    notes_path, config = tmp_path / "notes.jsonl", tmp_path / "llm.cfg"
    notes_path.write_text("".join(json.dumps(n, ensure_ascii=False) + "\n" for n in notes), encoding="utf-8")
    config.write_text(f"base_url = {stub_server.base_url}\n", encoding="utf-8")
    lexicon_args = ["--lexicon", lexicon_path, "--abbreviations", abbrev_path]

    def replayed_report(reply) -> dict:
        """Record reply's answers with the LLM backend, replay the transcript
        and score the replayed entities."""
        stub_server.reply = reply
        transcript, live, replayed = (tmp_path / f"{name}.jsonl" for name in ("transcript", "live", "replayed"))
        record = ["--config", str(config), "--backend", "llm", "--transcript", str(transcript)]
        assert main(["structure", *lexicon_args, *record, str(notes_path), str(live)]) == 0
        replay = ["--backend", "replay", "--transcript", str(transcript)]
        assert main(["structure", *lexicon_args, *replay, str(notes_path), str(replayed)]) == 0
        assert replayed.read_bytes() == live.read_bytes()
        return evaluate_json(tmp_path, abbrev_path, gold, replayed)

    report = replayed_report(perfect_model(parse_prompt, notes, gold))
    n = len(gold)
    assert report["phrase"] == {"tp": n, "fp": 0, "fn": 0, "precision": 1.0, "recall": 1.0, "f1": 1.0}
    for kind in ATTRIBUTE_KINDS:
        scored = report["attributes"][kind]
        assert scored["total"] > 30, kind
        assert scored["accuracy"] == 1.0, (kind, scored)
    # the check can fail: one wrong purpose answer gives (m - 1) / m
    purposed = [g for g in gold if g["purpose"] != "not applicable"]
    wrong = purposed[len(purposed) // 2]
    model = perfect_model(parse_prompt, notes, gold, wrong=(wrong["note_id"], wrong["span"]["start"]))
    m = len(purposed)
    flipped = replayed_report(model)["attributes"]["purpose"]
    assert flipped == {"correct": m - 1, "total": m, "accuracy": (m - 1) / m}


def test_paragraph_splits_per_note_do_not_depend_on_mentions(monkeypatch, lexicon_path, abbrev_path):
    splits = []
    chunkings = []
    mentions = []
    original_split = preprocess.split_paragraphs
    original_chunk = preprocess.chunk_note
    original_recognize = pipeline.recognize_note

    def counting_split(*args):
        splits.append(args)
        return original_split(*args)

    def counting_chunk(*args):
        chunkings.append(args)
        return original_chunk(*args)

    def counting_recognize(*args):
        found = original_recognize(*args)
        mentions.extend(found)
        return found

    # Replace every binding of split_paragraphs and chunk_note in the package,
    # not only the preprocess module's, so a consumer that imported one by
    # name is counted.
    for name, module in list(sys.modules.items()):
        if not name.startswith("ehrstruct"):
            continue
        if getattr(module, "split_paragraphs", None) is original_split:
            monkeypatch.setattr(module, "split_paragraphs", counting_split)
        if getattr(module, "chunk_note", None) is original_chunk:
            monkeypatch.setattr(module, "chunk_note", counting_chunk)
    monkeypatch.setattr(pipeline, "recognize_note", counting_recognize)

    rule = pipeline.build_resources(pipeline.PipelineConfig(lexicon=lexicon_path, abbreviations=abbrev_path))
    client = RecordingClient()
    llm = dataclasses.replace(rule, backend=LlmBackend(client))
    with NOTES.open(encoding="utf-8") as fh:
        notes = pipeline.read_notes(fh)
    for res in (rule, llm):
        per_note = []
        for note in notes:
            splits.clear()
            chunkings.clear()
            mentions.clear()
            assert not pipeline.structure_note(note, res).rejected
            per_note.append((len(mentions), len(splits)))
            # only the LLM backend cuts chunks, to size its prompts
            assert len(chunkings) == (res is llm)
        assert len({m for m, _ in per_note}) > 1, "fixture notes should differ in mention count"
        # once, to segment the note; every later stage reads that segmentation
        assert {n for _, n in per_note} == {1}
    assert client.prompts


class RecordingClient:
    """Answers every prompt with a null line per listed term, recording it."""

    def __init__(self):
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        terms = prompt.rsplit("Here are the terms:", 1)[1].splitlines()
        return "\n".join(f"{t}: null" for t in terms if t)

    def complete_all(self, prompts):
        return [self.complete(prompt) for prompt in prompts]


ST_JOHNS_NOTE = "Patient takes St. John's wort daily for mood. Denies chest pain."


@pytest.fixture
def st_johns_lexicon(tmp_path):
    path = tmp_path / "lexicon.tsv"
    path.write_text(
        "st. john's wort\tC1\tChemical or Drug\nchest pain\tC2\tSign, Symptom, or Finding\n",
        encoding="utf-8",
    )
    return str(path)


def test_term_spanning_a_sentence_cut_is_found_whatever_the_chunk_size(tmp_path, st_johns_lexicon):
    notes = tmp_path / "notes.jsonl"
    notes.write_text(json.dumps({"note_id": "n1", "text": ST_JOHNS_NOTE}) + "\n", encoding="utf-8")
    outputs = []
    for max_tokens in (800, 50, 1):
        out = tmp_path / f"out-{max_tokens}.jsonl"
        args = ["structure", "--lexicon", st_johns_lexicon, "--max-tokens", str(max_tokens)]
        assert main([*args, str(notes), str(out)]) == 0
        outputs.append(out.read_bytes())
    entities = [json.loads(line) for line in outputs[0].decode().splitlines()]
    assert [(e["surface"], e["span"]) for e in entities][0] == ("St. John's wort", {"start": 14, "end": 29})
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_llm_prompt_marks_a_sentence_spanning_term_whole(st_johns_lexicon):
    client = RecordingClient()
    res = pipeline.build_resources(pipeline.PipelineConfig(lexicon=st_johns_lexicon))
    res = dataclasses.replace(res, backend=LlmBackend(client, max_tokens=1))
    result = pipeline.structure_note(preprocess.RawNote("n1", ST_JOHNS_NOTE), res)
    assert not result.rejected
    assert [p for p in client.prompts if "{{St. John's wort}}" in p]


_PIECES = (
    "chest pain", "Chest\nPain", "high fever", "HSM", "RA", "heart failure", "St. John's wort",
    "St.", "Dr.", "denies", "no", "left knee", "105", "mg", ".", "?", "İ", "İİ", "é", "_",
    "\r", "\r\n", "\n", "\n\n", "\n\n\n", "- ", "1. ", "* ", "ALLERGIES:", "FAMILY HISTORY:",
)

generated_notes = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(_PIECES), st.text(max_size=4)),
        st.sampled_from(["", " ", " ", "  ", "\n"]),
    ),
    max_size=60,
).map(lambda parts: "".join(piece + sep for piece, sep in parts))


@pytest.fixture(scope="module")
def sample_plus_st_johns(tmp_path_factory, lexicon_path, abbrev_path):
    """The sample lexicon plus one surface that holds a sentence cut."""
    path = tmp_path_factory.mktemp("lexicon") / "lexicon.tsv"
    extra = "st. john's wort\tC9\tChemical or Drug\n"
    path.write_text(Path(lexicon_path).read_text(encoding="utf-8") + extra, encoding="utf-8")
    return pipeline.build_resources(pipeline.PipelineConfig(lexicon=str(path), abbreviations=abbrev_path))


def read_as_normalized(raw):
    """A raw span as normalization renders it: a line break next to a space
    disappears, any other becomes a space."""
    return re.sub(r"(?<= )\n|\n(?= )", "", raw).replace("\n", " ")


@given(generated_notes)
@example("Patient takes St. John's wort daily. Denies chest pain.")
@example("İİ chest\r\npain\n\n\n- HSM\nALLERGIES:\nSt. John's\nwort")
@settings(max_examples=200, deadline=None)
def test_structure_note_on_generated_text(sample_plus_st_johns, text):
    res = sample_plus_st_johns
    calls = []

    def recording_segment(note_text, spans):
        sentences = preprocess.segment(note_text, spans)
        calls.append((note_text, sentences))
        return sentences

    with mock.patch.object(pipeline, "segment", recording_segment):
        result = pipeline.structure_note(preprocess.RawNote("n", text), res)
    assert not result.rejected
    for entity in result.entities:
        start, end = entity.span
        assert read_as_normalized(text[start:end]) == entity.surface
    note = preprocess.restore_linebreaks(preprocess.RawNote("n", text))
    [(segmented, sentences)] = calls
    assert segmented == note.text
    for m in pipeline.recognize_note(note, res.index, res.abbreviations):
        assert any(s.start <= m.norm_start and m.norm_end <= s.end for s in sentences)


def test_a_long_list_sentence_is_structured_in_under_a_second(lexicon_path, abbrev_path):
    """One sentence listing 400 sample-lexicon terms (about 5 KB): every
    mention's sentence work must be a lookup into scans made once per
    sentence, not a rescan of the whole sentence per mention or per match."""
    res = pipeline.build_resources(pipeline.PipelineConfig(lexicon=lexicon_path, abbreviations=abbrev_path))
    surfaces = [line.split("\t")[0] for line in Path(lexicon_path).read_text(encoding="utf-8").splitlines()]
    text = ", ".join(surfaces[i % len(surfaces)] for i in range(400)) + "."
    pipeline.structure_note(preprocess.RawNote("warm-up", text[:200]), res)
    started = time.perf_counter()
    result = pipeline.structure_note(preprocess.RawNote("list", text), res)
    elapsed = time.perf_counter() - started
    assert len(result.entities) > 350
    assert elapsed < 1.0, f"{elapsed:.2f} s"
