"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -s` to see the
per-criterion lines."""

import math
import random
import threading
import time
from pathlib import Path

from ehrstruct.assertion import AssertionStatus, classify, load_triggers
from ehrstruct.attributes import LlmBackend
from ehrstruct.cli import main
from ehrstruct.evaluate import evaluate, match_phrases, phrase_f1
from ehrstruct.integrate import (
    NoteResult,
    align,
    assemble,
    entity_to_dict,
    parse_entities,
    serialize,
)
from ehrstruct.llm_client import ChatClient, ConfigurationError, EndpointConfig, Transcript
from ehrstruct.pipeline import PipelineResources, structure_note
from ehrstruct.preprocess import (
    NormalizedNote,
    RawNote,
    chunk_note,
    restore_linebreaks,
    segment,
)
from ehrstruct.recognition import recognize
from ehrstruct.terminology import (
    NOT_APPLICABLE,
    AbbreviationTable,
    ApplicabilityTable,
    SemanticType,
    TermIndex,
)
from oracles import brute_force_recognize

FIXTURES = Path(__file__).parent / "fixtures"


def report(number, description, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_fmm_oracle_equivalence():
    rng = random.Random(20260824)
    vocab = [
        "pain", "chest", "fever", "acute", "left", "lobe", "mass", "renal",
        "bowel", "heart", "rate", "high", "scan", "edema", "cva", "mi",
    ]
    start_time = time.monotonic()
    mismatches = 0
    for _ in range(1000):
        n_entries = rng.randint(1, 200)
        surfaces = set()
        while len(surfaces) < n_entries:
            surfaces.add(" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 4))))
        surfaces = sorted(surfaces)
        words = [rng.choice(vocab + [",", "(", ")", "/"]) for _ in range(rng.randint(0, 250))]
        text = " ".join(words)[:2000]
        index = TermIndex((s, f"C{i}", SemanticType.DISEASE) for i, s in enumerate(surfaces))
        note = NormalizedNote("n", text, list(range(len(text))))
        got = [(m.norm_start, m.norm_end) for m in recognize(note, index)]
        if got != brute_force_recognize(text, surfaces):
            mismatches += 1
    elapsed = time.monotonic() - start_time
    report(
        1,
        f"FMM oracle equivalence, 1000 randomized instances, 0 mismatches, {elapsed:.1f}s < 10s",
        mismatches == 0 and elapsed < 10.0,
    )


def test_criterion_2_assertion_case_fixtures():
    rules = load_triggers()
    results = []

    text = "concerning for partial small bowel obstruction and/or ileus"
    s = text.index("small bowel obstruction")
    results.append(classify(text, s, s + 23, rules) is AssertionStatus.POSSIBLE)

    text = "Allergies: Patient recorded as having No Known Allergies to Drugs"
    s = text.index("Allergies", 1)
    results.append(classify(text, s, s + 9, rules) is AssertionStatus.ABSENT)

    text = "ALLERGIES: penicillin"
    s = text.index("penicillin")
    results.append(classify(text, s, s + 10, rules) is AssertionStatus.CONDITIONAL)

    text = "FAMILY HISTORY:"
    results.append(classify(text, 0, len("FAMILY HISTORY"), rules) is AssertionStatus.TITLE)

    report(2, "case-study assertion fixtures (Possible/Absent/Conditional/Title)", all(results))


def _case_resources(transcript):
    entries = [
        ("fever", "C1", SemanticType.SIGN_SYMPTOM_OR_FINDING),
        ("hypoxemia", "C2", SemanticType.SIGN_SYMPTOM_OR_FINDING),
        ("small bowel obstruction", "C3", SemanticType.DISEASE),
        ("lisinopril", "C4", SemanticType.CHEMICAL_OR_DRUG),
    ]
    client = ChatClient(EndpointConfig(), mode="replay", transcript=transcript)
    return PipelineResources(
        index=TermIndex(entries),
        abbreviations=AbbreviationTable(),
        rules=load_triggers(),
        applicability=ApplicabilityTable(),
        backend=LlmBackend(client, max_tokens=800),
    )


def test_criterion_3_attribute_case_fixtures():
    text = (
        "aspirated to the LLL with resultant high fever (105) and hypoxemia. "
        "Imaging shows small bowel obstruction. Started Lisinopril."
    )
    raw = RawNote("case", text)

    def reply(prompt):
        if "body location" in prompt:
            return (
                "fever: null\nhypoxemia: Left Lower Lobe\nsmall bowel obstruction: null"
            )
        if "its value" in prompt:
            return "fever: 105\nhypoxemia: null\nsmall bowel obstruction: null\nLisinopril: null"
        if "its purpose" in prompt:
            # adversarial: tries to give the disease a purpose
            return "small bowel obstruction: to treat\nLisinopril: control blood pressure"
        terms = prompt.rsplit("Here are the terms:", 1)[1].strip().splitlines()
        return "\n".join(f"{t}: null" for t in terms if t)

    # record pass against the scripted replies to learn the exact prompts
    class Recorder:
        def __init__(self):
            self.transcript = Transcript()

        def complete(self, prompt):
            response = reply(prompt)
            self.transcript.put(prompt, response)
            return response

        def complete_all(self, prompts):
            return [self.complete(prompt) for prompt in prompts]

    recorder = Recorder()
    res = _case_resources(Transcript())
    res.backend = LlmBackend(recorder)
    structure_note(raw, res)

    res = _case_resources(recorder.transcript)
    result = structure_note(raw, res)
    by_phrase = {e.phrase.lower(): e for e in result.entities}

    ok_location = by_phrase["hypoxemia"].locations == ["Left Lower Lobe"]
    ok_value = by_phrase["fever"].value == "105"
    disease_ok = all(
        e.purpose is NOT_APPLICABLE
        for e in result.entities
        if e.semantic_type is SemanticType.DISEASE
    )
    serialized = entity_to_dict(by_phrase["small bowel obstruction"])
    ok_encoding = serialized["purpose"] == "not applicable"
    report(
        3,
        "replay attributes: hypoxemia->Left Lower Lobe, fever->105, disease purpose not applicable",
        ok_location and ok_value and disease_ok and ok_encoding,
    )


def test_criterion_4_metric_arithmetic(abbrev_table):
    p, r, f1 = phrase_f1(3, 1, 2)
    ok_arithmetic = (
        math.isclose(p, 0.750, abs_tol=1e-12)
        and math.isclose(r, 0.600, abs_tol=1e-12)
        and math.isclose(f1, 2.0 / 3.0, abs_tol=1e-9)
        and round(f1, 4) == 0.6667
    )

    from ehrstruct.integrate import StructuredEntity

    def ent(phrase, **kw):
        return StructuredEntity(
            note_id="n", phrase=phrase, surface=kw.get("surface", phrase), span=(0, 0),
            semantic_type=SemanticType.SIGN_SYMPTOM_OR_FINDING,
            assertion_status="Present", locations=["chest"], modifiers=["mild"],
            value="1", unit="mg", purpose="relief",
        )

    gold = [ent("fever"), ent("edema")]
    identical, _ = evaluate(gold, gold)
    ok_perfect = identical.f1 == 1.0 and all(
        identical.kinds[k].accuracy == 1.0 for k in identical.kinds
    )

    tp, _, _ = match_phrases([ent("hepatosplenomegaly")], [ent("HSM")], abbrev=abbrev_table)
    ok_abbrev = len(tp) == 1

    report(
        4,
        "metric arithmetic: P=0.750 R=0.600 F1=0.6667, perfect=1.0 everywhere, HSM==hepatosplenomegaly",
        ok_arithmetic and ok_perfect and ok_abbrev,
    )


def test_criterion_5_alignment_invariants():
    rng = random.Random(5150)
    names = ["a", "b", "c", "d", "e"]

    from ehrstruct.recognition import Mention

    def mk(phrase, start):
        return Mention("n", start, start + 1, start, start + 1, phrase, phrase,
                       SemanticType.DISEASE)

    ok = True
    for _ in range(10000):
        mentions = [mk(rng.choice(names), i * 5) for i in range(rng.randint(0, 10))]
        lines = [(rng.choice(names + ["zz"]), rng.random()) for _ in range(rng.randint(0, 10))]
        assignments, dropped = align(mentions, lines)
        mention_idxs = [m for _, m, _ in assignments]
        line_idxs = [l for l, _, _ in assignments]
        ok &= len(assignments) + len(dropped) == len(lines)  # conservation
        ok &= all(x < y for x, y in zip(line_idxs, line_idxs[1:]))
        ok &= all(x < y for x, y in zip(mention_idxs, mention_idxs[1:]))
        ok &= len(set(mention_idxs)) == len(mention_idxs)  # one-to-one

    # threshold-driven rejection at ratio > 0.2 exactly
    for dropped_n in range(0, 12):
        for total_n in range(0, 12):
            if dropped_n > total_n:
                continue
            result = assemble("n", [], [], [], dropped_lines=dropped_n, total_lines=total_n)
            expected = dropped_n / max(1, total_n) > 0.2
            ok &= result.rejected == expected
    report(5, "alignment invariants over 10,000 randomized sequences + exact 0.2 threshold", ok)


def test_criterion_6_chunker_properties():
    rng = random.Random(606)
    vocab = ["alpha", "beta", "gamma.", "HEADER:", "- item", "x9", ""]
    ok = True
    for _ in range(1000):
        raw_text = "\n".join(
            " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 30)))
            for _ in range(rng.randint(0, 12))
        )
        note = restore_linebreaks(RawNote("n", raw_text))
        chunks = chunk_note(note, segment(note.text), rng.choice([15, 50, 800]))
        ok &= "".join(c.text for c in chunks) == note.text
        for c in chunks:
            ok &= c.token_count <= 800 or c.oversize
            ok &= note.text[c.norm_start : c.norm_end] == c.text
    report(6, "chunker coverage, budget/oversize flags, concatenation identity on 1000 notes", ok)


def test_criterion_7_serialization_round_trip():
    rng = random.Random(7)
    from ehrstruct.integrate import StructuredEntity
    import io

    values = [None, NOT_APPLICABLE, "105", "<7", "a b c"]
    lists = [None, NOT_APPLICABLE, ["left knee"], ["a", "b"]]
    entities = []
    for _ in range(500):
        start = rng.randint(0, 900)
        entities.append(
            StructuredEntity(
                note_id=f"n{rng.randint(0, 9)}",
                phrase=rng.choice(["fever", "ileus", "Blood pressure"]),
                surface=rng.choice(["fever", "HSM"]),
                span=(start, start + rng.randint(1, 40)),
                semantic_type=rng.choice([t for t in SemanticType if t.reportable]),
                assertion_status=rng.choice([s.value for s in AssertionStatus]),
                locations=rng.choice(lists),
                modifiers=rng.choice(lists),
                value=rng.choice(values),
                unit=rng.choice(values),
                purpose=rng.choice(values),
            )
        )
    buf = io.StringIO()
    serialize([NoteResult("n", entities)], buf)
    buf.seek(0)
    parsed = parse_entities(buf)
    ok = len(parsed) == len(entities) and all(
        entity_to_dict(a) == entity_to_dict(b) for a, b in zip(entities, parsed)
    )
    sample = entity_to_dict(
        StructuredEntity("n", "x", "x", (0, 1), SemanticType.DISEASE, "Present",
                         purpose=NOT_APPLICABLE, value=None)
    )
    ok &= sample["purpose"] == "not applicable" and sample["value"] is None
    report(7, "serialization round-trip on 500 random entities + schema encodings", ok)


def test_criterion_8_worker_determinism(tmp_path, lexicon_path, abbrev_path):
    outputs = []
    for workers in (1, 8):
        out = tmp_path / f"w{workers}.jsonl"
        code = main([
            "structure", "--lexicon", lexicon_path, "--abbreviations", abbrev_path,
            "--backend", "rule", "--workers", str(workers),
            str(FIXTURES / "sample_notes.jsonl"), str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    report(8, "cmd_structure byte-identical at --workers 1 and --workers 8", outputs[0] == outputs[1])


def test_criterion_9_llm_client_contract(stub_server, monkeypatch):
    monkeypatch.setenv("GENIE_API_KEY", "k")
    ok = True

    cfg = dict(base_url=stub_server.base_url, backoff_base=0.01)

    stub_server.script = [500, 429, 200]
    client = ChatClient(EndpointConfig(max_retries=3, **cfg))
    ok &= client.complete("retry me") == "ok"
    ok &= stub_server.request_count == 3

    stub_server.script = [401]
    stub_server.request_count = 0
    client = ChatClient(EndpointConfig(max_retries=3, **cfg))
    try:
        client.complete("reject me")
        ok = False
    except ConfigurationError:
        ok &= stub_server.request_count == 1

    stub_server.script = [200]
    stub_server.request_count = 0
    stub_server.max_observed_in_flight = 0
    stub_server.delay = 0.04
    client = ChatClient(EndpointConfig(max_in_flight=3, **cfg))
    threads = [threading.Thread(target=client.complete, args=(f"p{i}",)) for i in range(9)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    ok &= stub_server.max_observed_in_flight <= 3

    transcript = Transcript()
    transcript.put("replayed", "stored answer")
    replay = ChatClient(EndpointConfig(**cfg), mode="replay", transcript=transcript)
    ok &= replay.complete("replayed") == "stored answer"
    ok &= replay.network_calls == 0

    report(9, "client contract: retry 5xx/429, no retry 401, in-flight bound, replay offline", ok)
