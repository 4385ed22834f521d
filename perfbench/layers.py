"""Per-layer metrics of a traced run, from its spans and counters.

Every `_ms` and count is per round (one pass over the workload's corpus) and
is the median over the run's traced rounds, except the terminology set-up
times, which are per `build_resources` call. A layer that does not run on a
workload reads 0.
"""

from __future__ import annotations

import json
import statistics
import sys

UNITS = {
    "terminology.load_lexicon_ms": "ms",
    "terminology.build_index_ms": "ms",
    "terminology.surfaces": "count",
    "preprocess.restore_linebreaks_self_ms": "ms",
    "preprocess.chunk_note_self_ms": "ms",
    "preprocess.chunks": "count",
    "recognition.recognize_note_self_ms": "ms",
    "recognition.mentions": "count",
    "assertion.sentence_for_calls": "count",
    "assertion.sentence_for_self_ms": "ms",
    "assertion.paragraph_for_calls": "count",
    "assertion.paragraph_for_self_ms": "ms",
    "assertion.classify_calls": "count",
    "assertion.classify_self_ms": "ms",
    "assertion.sentence_for_calls_per_mention": "calls/mention",
    "attributes.annotate_note_self_ms": "ms",
    "attributes.backend_annotate_calls": "count",
    "attributes.rule_extract_locations_self_ms": "ms",
    "attributes.rule_extract_value_unit_self_ms": "ms",
    "attributes.rule_extract_modifiers_self_ms": "ms",
    "attributes.llm_extract_self_ms": "ms",
    "attributes.discarded_answers": "count",
    "llm_client.complete_calls": "count",
    "llm_client.complete_wait_ms": "ms",
    "llm_client.prompt_kchars": "kchar",
    "llm_client.response_kchars": "kchar",
    "llm_client.retries": "count",
    "llm_client.stub_calls": "count",
    "llm_client.stub_prompt_kchars": "kchar",
    "integrate.align_calls": "count",
    "integrate.align_self_ms": "ms",
    "integrate.lines_total": "count",
    "integrate.lines_aligned_per_line": "ratio",
    "integrate.assemble_self_ms": "ms",
    "integrate.serialize_ms": "ms",
    "pipeline.structure_note_ms": "ms",
    "trace.overhead_ratio": "x",
}


def per_layer(run, tracer, stub_before, stub_after) -> dict[str, float]:
    totals = tracer.totals()
    traced = sorted(r for r in totals if r > 0)

    def span(name, field, rnd):
        return totals[rnd][name][field] if name in totals[rnd] else 0.0

    def count(name, rnd):
        return tracer.counts.get((rnd, name), 0.0)

    def per_round(fn):
        return statistics.median(fn(r) for r in traced)

    def per_setup(name):
        setup = totals.get(0, {}).get(name)
        return setup["ms"] / setup["calls"] if setup else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "terminology.load_lexicon_ms": per_setup("terminology.load_lexicon"),
        "terminology.build_index_ms": per_setup("terminology.build_index"),
        "terminology.surfaces": run.index_size,
    }
    self_ms = {
        "preprocess.restore_linebreaks_self_ms": "preprocess.restore_linebreaks",
        "preprocess.chunk_note_self_ms": "preprocess.chunk_note",
        "recognition.recognize_note_self_ms": "recognition.recognize_note",
        "assertion.sentence_for_self_ms": "assertion.sentence_for",
        "assertion.paragraph_for_self_ms": "assertion.paragraph_for",
        "assertion.classify_self_ms": "assertion.classify",
        "attributes.annotate_note_self_ms": "attributes.annotate_note",
        "attributes.rule_extract_locations_self_ms": "attributes.rule_extract_locations",
        "attributes.rule_extract_value_unit_self_ms": "attributes.rule_extract_value_unit",
        "attributes.rule_extract_modifiers_self_ms": "attributes.rule_extract_modifiers",
        "attributes.llm_extract_self_ms": "attributes.llm_extract",
        "integrate.align_self_ms": "integrate.align",
        "integrate.assemble_self_ms": "integrate.assemble",
    }
    calls = {
        "assertion.sentence_for_calls": "assertion.sentence_for",
        "assertion.paragraph_for_calls": "assertion.paragraph_for",
        "assertion.classify_calls": "assertion.classify",
        "attributes.backend_annotate_calls": "attributes.backend_annotate",
        "llm_client.complete_calls": "llm_client.complete",
        "integrate.align_calls": "integrate.align",
    }
    for metric, name in self_ms.items():
        m[metric] = per_round(lambda r, n=name: span(n, "self_ms", r))
    for metric, name in calls.items():
        m[metric] = per_round(lambda r, n=name: span(n, "calls", r))
    m.update({
        "preprocess.chunks": per_round(lambda r: count("preprocess.chunks", r)),
        "recognition.mentions": per_round(lambda r: count("recognition.mentions", r)),
        "assertion.sentence_for_calls_per_mention": per_round(
            lambda r: ratio(span("assertion.sentence_for", "calls", r), count("recognition.mentions", r))
        ),
        "attributes.discarded_answers": per_round(lambda r: count("attributes.discarded_answers", r)),
        "llm_client.complete_wait_ms": per_round(lambda r: span("llm_client.complete", "ms", r)),
        "llm_client.prompt_kchars": per_round(lambda r: count("llm_client.prompt_chars", r) / 1000.0),
        "llm_client.response_kchars": per_round(lambda r: count("llm_client.response_chars", r) / 1000.0),
        "llm_client.retries": per_round(
            lambda r: span("llm_client.http_post", "calls", r) - span("llm_client.complete", "calls", r)
        ),
        "integrate.lines_total": per_round(lambda r: count("integrate.lines_total", r)),
        "integrate.lines_aligned_per_line": per_round(
            lambda r: ratio(count("integrate.lines_aligned", r), count("integrate.lines_seen", r))
        ),
        "integrate.serialize_ms": per_round(lambda r: span("integrate.serialize", "ms", r)),
        "pipeline.structure_note_ms": per_round(lambda r: span("pipeline.structure_note", "ms", r)),
        # Each traced round over the untraced round just before it, so that
        # the machine's slow drift cancels within a pair.
        "trace.overhead_ratio": statistics.median(
            t / u for t, u in zip(run.traced_round_s, run.round_s)
        ),
    })
    # The stub counts what reaches it; untraced rounds run between the
    # snapshots too, so divide by every round the run made.
    rounds = len(run.round_s) + len(run.traced_round_s)
    if stub_before is not None:
        m["llm_client.stub_calls"] = (stub_after["calls"] - stub_before["calls"]) / rounds
        m["llm_client.stub_prompt_kchars"] = (
            (stub_after["prompt_chars"] - stub_before["prompt_chars"]) / 1000.0 / rounds
        )
    else:
        m["llm_client.stub_calls"] = m["llm_client.stub_prompt_kchars"] = 0.0
    return {name: float(m[name]) for name in UNITS}


def report(run, tracer, stub_stats, spans_path, report_path) -> None:
    """Write the spans and a summary; name every wrap point never called,
    so that a renamed function cannot silently zero a layer."""
    import tracing

    written = tracer.write(spans_path)
    called = tracer.called_points()
    never = sorted({name for _, _, name in tracing.WRAP_POINTS} - called)
    summary = {
        "workload": run.wl.name,
        "spans": written,
        "traced_rounds": len(run.traced_round_s),
        "untraced_rounds": len(run.round_s),
        "missing_wrap_points": tracer.missing,
        "never_called": never,
    }
    if stub_stats and stub_stats["calls"]:
        calls = stub_stats["calls"]
        summary["stub"] = {
            "calls": calls,
            "errors": stub_stats["errors"],
            "wait_ms_per_call": stub_stats["wait_ms"] / calls,
            "own_ms_per_call": stub_stats["own_ms"] / calls,
        }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    if tracer.missing:
        print(f"trace: wrap points not found: {', '.join(tracer.missing)}", file=sys.stderr)
    print(f"trace: {written} spans in {spans_path}; never called: {', '.join(never) or 'none'}",
          file=sys.stderr)
