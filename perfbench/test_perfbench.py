"""Tests of the benchmark's own parts: the generator and the checkers.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
import stub  # noqa: E402

DATA = HERE.parent / "src" / "ehrstruct" / "data"


def small_corpus(seed=1, fault_every=0, classes=(corpus.LengthClass(400, 6),)):
    lexicon = corpus.sample_lexicon(DATA)
    abbrev = corpus.read_abbreviation_types(DATA / "sample_abbreviations.tsv")
    return corpus.make_corpus(seed, "t", classes, lexicon, abbrev, fault_every)


def structure(notes, path, backend="rule", base_url=None):
    """Run the program the way the benchmark does and write its output."""
    from ehrstruct import integrate, pipeline
    from ehrstruct.preprocess import RawNote

    cfg = pipeline.PipelineConfig(
        lexicon=str(DATA / "sample_lexicon.tsv"),
        abbreviations=str(DATA / "sample_abbreviations.tsv"),
        backend=backend,
        max_retries=0,
    )
    if base_url:
        cfg.base_url = base_url
    res = pipeline.build_resources(cfg)
    results = pipeline.run_structure([RawNote(n.note_id, n.text) for n in notes], res)
    with open(path, "w", encoding="utf-8") as fh:
        integrate.serialize(results, fh)
    return path


def corrupt(path, note_id, change):
    """Apply change(record) to the first output record of note_id."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if rec["note_id"] == note_id:
            change(rec)
            lines[i] = json.dumps(rec)
            break
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_same_seed_gives_same_corpus():
    key = lambda notes: [(n.note_id, n.text, n.gold, n.length_class) for n in notes]  # noqa: E731
    assert key(small_corpus(seed=7)) == key(small_corpus(seed=7))
    assert [n.text for n in small_corpus(seed=7)] != [n.text for n in small_corpus(seed=8)]


def test_same_seed_gives_same_big_lexicon(tmp_path):
    a = corpus.big_lexicon(DATA, tmp_path / "a.tsv", 3, 5000)
    b = corpus.big_lexicon(DATA, tmp_path / "b.tsv", 3, 5000)
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
    assert a.all_surfaces == 5000 and a.terms == b.terms


def test_fault_notes_do_not_depend_on_the_seed():
    classes = (corpus.LengthClass(300, 4), corpus.LengthClass(600, 5))
    faults = lambda seed: sorted(  # noqa: E731
        (n.note_id, n.text, n.length_class)
        for n in small_corpus(seed, fault_every=3, classes=classes)
        if n.planted_fault
    )
    assert faults(1) == faults(2)
    assert len(faults(1)) == 3
    assert all("İ" in text for _, text, _ in faults(1))


def test_note_lengths_stay_near_their_class():
    notes = small_corpus(classes=(corpus.LengthClass(500, 5), corpus.LengthClass(4000, 2)))
    for n in notes:
        target = (500, 4000)[n.length_class]
        assert 0.97 * target <= len(n.text) <= 1.03 * target + 120


def test_generator_refuses_filler_that_forms_a_term():
    note = small_corpus()[0]
    lexicon = corpus.sample_lexicon(DATA)
    corpus.verify_planting(note, lexicon)
    note.text = note.text + " Chest pain again."
    with pytest.raises(AssertionError):
        corpus.verify_planting(note, lexicon)


def test_tail_percentile_leaves_ten_notes_of_a_round():
    import run

    for wl in run.workloads().values():
        beyond = wl.notes_per_round * (100 - wl.tail_percentile) / 100
        assert beyond >= 10


@pytest.fixture
def rule_output(tmp_path):
    notes = [n for n in small_corpus() if n.gold]
    return notes, structure(notes, tmp_path / "out.jsonl")


def test_rule_output_passes(rule_output):
    notes, path = rule_output
    assert checks.failing_notes(notes, path, llm=False) == {}


@pytest.mark.parametrize(
    "change",
    [
        lambda r: r.update(assertion_status="Absent" if r["assertion_status"] != "Absent" else "Present"),
        lambda r: r.update(span={"start": r["span"]["start"] + 1, "end": r["span"]["end"] + 1}),
        lambda r: r.update(semantic_type="Eukaryote"),
        lambda r: r.update(surface=r["surface"].upper() + "x"),
    ],
    ids=["flipped-status", "shifted-span", "wrong-type", "wrong-surface"],
)
def test_rule_checker_rejects_corruption(rule_output, change):
    notes, path = rule_output
    corrupt(path, notes[0].note_id, change)
    assert list(checks.failing_notes(notes, path, llm=False)) == [notes[0].note_id]


def test_rule_checker_rejects_a_missing_entity(rule_output):
    notes, path = rule_output
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    Path(path).write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
    assert list(checks.failing_notes(notes, path, llm=False)) == [json.loads(lines[0])["note_id"]]


@pytest.fixture
def stub_url():
    server = stub.StubServer(latency=False)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture
def llm_output(tmp_path, stub_url, monkeypatch):
    monkeypatch.setenv("GENIE_API_KEY", "test")
    notes = [n for n in small_corpus() if n.gold]
    return notes, structure(notes, tmp_path / "out.jsonl", backend="llm", base_url=stub_url)


def test_llm_output_passes(llm_output):
    notes, path = llm_output
    assert checks.failing_notes(notes, path, llm=True) == {}


@pytest.mark.parametrize(
    "change",
    [
        lambda r: r.update(modifiers=["mild"]),
        lambda r: r.update(purpose="pain relief" if r["purpose"] == "not applicable" else "not applicable"),
        lambda r: r.update(value=None),
        lambda r: r.update(assertion_status="Title" if r["assertion_status"] != "Title" else "Present"),
    ],
    ids=["wrong-modifier", "applicability", "missing-value", "flipped-status"],
)
def test_llm_checker_rejects_corruption(llm_output, change):
    notes, path = llm_output
    corrupt(path, notes[0].note_id, change)
    assert list(checks.failing_notes(notes, path, llm=True)) == [notes[0].note_id]


def test_stub_answers_every_listed_term_in_order():
    from ehrstruct.attributes import default_prompt_template, render_prompt

    for kind in ("location", "modifier", "value", "unit", "purpose"):
        prompt = render_prompt(default_prompt_template(kind), "{{fever}} and {{HSM}}", kind, ["fever", "HSM"])
        assert stub.parse_prompt(prompt) == (kind, ["fever", "HSM"])
        assert stub.respond(prompt) == f"fever: {stub.answer('fever', kind)}\nHSM: {stub.answer('HSM', kind)}"
