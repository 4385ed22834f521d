"""The LLM backend sends each note's prompts concurrently: failures stay
with their note, output does not depend on the order answers arrive in, and
`max_in_flight` bounds the calls in flight, against the conftest stub."""

import dataclasses
import hashlib
import io
import json
from collections import Counter
from pathlib import Path

import pytest

from ehrstruct import integrate, pipeline
from ehrstruct.attributes import LlmBackend
from ehrstruct.cli import main
from ehrstruct.llm_client import ChatClient, EndpointConfig

NOTES = Path(__file__).parent / "fixtures" / "sample_notes.jsonl"
FAILED_NOTE = "note-002"


@pytest.fixture(autouse=True)
def api_key(monkeypatch):
    monkeypatch.setenv("GENIE_API_KEY", "test-key")


def reply(prompt):
    """A value per listed term that depends on the whole prompt, so an
    answer read back for the wrong prompt changes the output."""
    digest = hashlib.sha1(prompt.encode("utf-8")).hexdigest()[:6]
    terms = prompt.rsplit("Here are the terms:", 1)[1].splitlines()
    return "\n".join(f"{t}: v{digest}-{i}" for i, t in enumerate(terms) if t)


def hashed_delay(prompt):
    """5-40 ms by a hash of the prompt, so answers come back out of order."""
    return (5 + int(hashlib.sha1(prompt.encode("utf-8")).hexdigest(), 16) % 36) / 1000.0


@pytest.fixture
def notes():
    with NOTES.open(encoding="utf-8") as fh:
        return pipeline.read_notes(fh)


@pytest.fixture
def rule_resources(lexicon_path, abbrev_path):
    return pipeline.build_resources(pipeline.PipelineConfig(lexicon=lexicon_path, abbreviations=abbrev_path))


def llm_resources(rule_resources, server, max_in_flight, max_tokens=1, **endpoint):
    cfg = EndpointConfig(
        base_url=server.base_url, backoff_base=0.01, max_in_flight=max_in_flight, **endpoint
    )
    return dataclasses.replace(rule_resources, backend=LlmBackend(ChatClient(cfg), max_tokens=max_tokens))


def entities(results):
    out = io.StringIO()
    integrate.serialize(results, out)
    return out.getvalue()


# (what the stub answers the failing prompt with, the client's endpoint
# settings); on a timeout the stub answers only after SLOW seconds
SLOW = 0.6
FAULTS = {
    "500-storm": (500, dict(max_retries=2)),
    "400": (400, dict(max_retries=2)),
    "non-json": ("non-json", dict(max_retries=2)),
    "timeout": (None, dict(max_retries=1, timeout=0.2)),
}


@pytest.mark.parametrize("max_in_flight", [1, 4])
@pytest.mark.parametrize("fault_name", list(FAULTS))
def test_a_failing_prompt_rejects_only_its_note(stub_server, rule_resources, notes, fault_name, max_in_flight):
    fault, endpoint = FAULTS[fault_name]
    timeout = fault_name == "timeout"
    attempts = 1 + endpoint["max_retries"] if fault == 500 or timeout else 1
    stub_server.reply = reply
    # clean run, one note at a time and one prompt at a time: each note's
    # prompts in prompt order
    clean_res = llm_resources(rule_resources, stub_server, max_in_flight=1)
    clean_results, prompts_of = [], {}
    for note in notes:
        before = len(stub_server.prompts)
        clean_results.append(pipeline.structure_note(note, clean_res))
        prompts_of[note.note_id] = stub_server.prompts[before:]
    assert not any(r.rejected for r in clean_results)
    failed_prompts = prompts_of[FAILED_NOTE]
    assert len(failed_prompts) > 2 * 4

    # The second prompt of the note fails. With max_in_flight 4, the other
    # three prompts of the first window are already in flight; the stub holds
    # them until after the failure (on a timeout they time out as well), so
    # every later prompt of the note starts after it and must not be sent.
    target = failed_prompts[1]
    held = set(failed_prompts[:max_in_flight]) - {target} if max_in_flight > 1 else set()
    before_target = {failed_prompts[0]} - held
    stub_server.fault = lambda p: fault if p == target else None
    stub_server.delay = lambda p: SLOW if p in held or (timeout and p == target) else 0.0
    stub_server.prompts.clear()
    stub_server.request_count = 0
    res = llm_resources(rule_resources, stub_server, max_in_flight, **endpoint)
    results = pipeline.run_structure(notes, res, workers=1)

    assert [r.note_id for r in results if r.rejected] == [FAILED_NOTE]
    others = [r for r in results if r.note_id != FAILED_NOTE]
    assert entities(others) == entities([r for r in clean_results if r.note_id != FAILED_NOTE])
    expected = [p for note_id, ps in prompts_of.items() if note_id != FAILED_NOTE for p in ps]
    expected += list(before_target) + [target] * attempts
    expected += sorted(held) * (attempts if timeout else 1)
    assert Counter(stub_server.prompts) == Counter(expected)
    assert stub_server.request_count == len(expected)


def run_live(rule_resources, server, notes, max_in_flight, workers, max_tokens=1):
    server.prompts.clear()
    server.max_observed_in_flight = 0
    res = llm_resources(rule_resources, server, max_in_flight, max_tokens=max_tokens)
    results = pipeline.run_structure(notes, res, workers=workers)
    assert not any(r.rejected for r in results)
    return entities(results), Counter(server.prompts), server.max_observed_in_flight


def test_output_and_prompts_do_not_depend_on_answer_order(stub_server, rule_resources, notes):
    stub_server.reply = reply
    stub_server.delay = hashed_delay
    runs = {}
    for max_in_flight in (1, 4):
        for workers in (1, 3):
            out, prompts, peak = run_live(rule_resources, stub_server, notes, max_in_flight, workers)
            assert peak <= max_in_flight
            runs[max_in_flight, workers] = out, prompts
    (out, prompts), *rest = runs.values()
    assert out.count("\n") == 13
    assert all(other == (out, prompts) for other in rest)


def test_one_multi_chunk_note_fills_the_in_flight_bound(stub_server, rule_resources, notes):
    stub_server.reply = reply
    stub_server.delay = hashed_delay
    note = [n for n in notes if n.note_id == FAILED_NOTE]
    _, prompts, peak = run_live(rule_resources, stub_server, note, max_in_flight=4, workers=1)
    assert sum(prompts.values()) == 20
    assert peak == 4


def structure(args, lexicon_path, abbrev_path, out):
    return main(["structure", "--lexicon", lexicon_path, "--abbreviations", abbrev_path,
                 "--max-tokens", "1", *args, str(NOTES), str(out)])


def test_recorded_transcript_replays_offline(stub_server, lexicon_path, abbrev_path, tmp_path):
    stub_server.reply = reply
    stub_server.delay = hashed_delay
    transcripts, outputs = [], []
    for max_in_flight, workers in ((1, 1), (4, 3)):
        config = tmp_path / f"llm-{max_in_flight}.cfg"
        config.write_text(
            f"base_url = {stub_server.base_url}\nmax_in_flight = {max_in_flight}\n", encoding="utf-8"
        )
        transcript = tmp_path / f"transcript-{max_in_flight}-{workers}.jsonl"
        out = tmp_path / f"live-{max_in_flight}-{workers}.jsonl"
        args = ["--config", str(config), "--backend", "llm", "--transcript", str(transcript),
                "--workers", str(workers)]
        assert structure(args, lexicon_path, abbrev_path, out) == 0
        transcripts.append(transcript.read_bytes())
        outputs.append(out.read_bytes())
    assert transcripts[0] == transcripts[1]
    assert outputs[0] == outputs[1]

    sent = stub_server.request_count
    replayed = tmp_path / "replayed.jsonl"
    args = ["--backend", "replay", "--transcript", str(tmp_path / "transcript-4-3.jsonl")]
    assert structure(args, lexicon_path, abbrev_path, replayed) == 0
    assert replayed.read_bytes() == outputs[0]
    assert stub_server.request_count == sent

    # a replay miss rejects only the note whose prompt is missing
    lines = transcripts[0].decode("utf-8").splitlines(keepends=True)
    missing = next(i for i, line in enumerate(lines) if "{{penicillin}}" in line)
    partial = tmp_path / "partial.jsonl"
    partial.write_text("".join(lines[:missing] + lines[missing + 1:]), encoding="utf-8")
    rejections = tmp_path / "rejections.jsonl"
    args = ["--backend", "replay", "--transcript", str(partial), "--rejections", str(rejections)]
    assert structure(args, lexicon_path, abbrev_path, replayed) == 2
    rejected = rejections.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["note_id"] for line in rejected] == [FAILED_NOTE]
    kept = [line for line in outputs[0].decode("utf-8").splitlines(keepends=True) if FAILED_NOTE not in line]
    assert replayed.read_text(encoding="utf-8") == "".join(kept)


def test_transcript_directory_must_exist(tmp_path, lexicon_path, capsys):
    missing = tmp_path / "no-such-dir" / "transcript.jsonl"
    code = main(["structure", "--lexicon", lexicon_path, "--backend", "llm", "--transcript", str(missing),
                 str(NOTES), str(tmp_path / "out.jsonl")])
    assert code == 1
    assert "transcript: directory not found" in capsys.readouterr().err
