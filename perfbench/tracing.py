"""Spans around the calls into each layer, recorded from outside the program.

The tracer replaces a function at the place where the pipeline looks it up
(a module global such as `ehrstruct.pipeline.chunk_note`, or a method on a
class) with a wrapper that records a span: name, start, end, parent span and
note id. Spans stay in per-thread lists in memory until the run writes them
out. No file of the program is edited, and `uninstall` puts every original
back.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict

from ehrstruct.terminology import NOT_APPLICABLE

# (module, attribute path, span name). A span name may be wrapped at several
# lookup places: the pipeline calls assertion.sentence_for through the
# assertion module, the rule backend through its own import.
WRAP_POINTS = (
    ("ehrstruct.pipeline", "load_lexicon", "terminology.load_lexicon"),
    ("ehrstruct.pipeline", "build_index", "terminology.build_index"),
    ("ehrstruct.pipeline", "structure_note", "pipeline.structure_note"),
    ("ehrstruct.pipeline", "restore_linebreaks", "preprocess.restore_linebreaks"),
    ("ehrstruct.pipeline", "chunk_note", "preprocess.chunk_note"),
    ("ehrstruct.pipeline", "recognize_note", "recognition.recognize_note"),
    ("ehrstruct.assertion", "sentence_for", "assertion.sentence_for"),
    ("ehrstruct.attributes", "sentence_for", "assertion.sentence_for"),
    ("ehrstruct.assertion", "paragraph_for", "assertion.paragraph_for"),
    ("ehrstruct.assertion", "classify", "assertion.classify"),
    ("ehrstruct.pipeline", "annotate_note", "attributes.annotate_note"),
    ("ehrstruct.attributes", "RuleBackend.annotate", "attributes.backend_annotate"),
    ("ehrstruct.attributes", "LlmBackend.annotate", "attributes.backend_annotate"),
    ("ehrstruct.attributes", "rule_extract_locations", "attributes.rule_extract_locations"),
    ("ehrstruct.attributes", "rule_extract_value_unit", "attributes.rule_extract_value_unit"),
    ("ehrstruct.attributes", "rule_extract_modifiers", "attributes.rule_extract_modifiers"),
    ("ehrstruct.attributes", "llm_extract", "attributes.llm_extract"),
    ("ehrstruct.attributes", "apply_applicability", "attributes.apply_applicability"),
    ("ehrstruct.attributes", "align", "integrate.align"),
    ("ehrstruct.llm_client", "ChatClient.complete", "llm_client.complete"),
    ("requests", "Session.post", "llm_client.http_post"),
    ("ehrstruct.pipeline", "assemble", "integrate.assemble"),
    ("ehrstruct.integrate", "serialize", "integrate.serialize"),
)


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lists: list[list] = []  # one span list per thread
        self._lists_lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # wrap points that no longer exist
        self.round = 0  # tagged onto every span
        # Counts taken from arguments and results, per (round, name).
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self._counts_lock = threading.Lock()

    # -- recording -------------------------------------------------------
    def _thread_state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            local.note = None
            with self._lists_lock:
                self._lists.append(local.spans)
        return local

    def count(self, name: str, amount: float = 1) -> None:
        with self._counts_lock:
            self.counts[(self.round, name)] += amount

    def _wrap(self, name, fn):
        tracer = self
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            local = tracer._thread_state()
            span_id = next(tracer._ids)
            parent = local.stack[-1] if local.stack else 0
            outer_note = note = local.note
            if name == "pipeline.structure_note":
                note = local.note = args[0].note_id
            local.stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                local.stack.pop()
                local.note = outer_note
                local.spans.append((span_id, name, start, end, parent, note, tracer.round))
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ------------------------------------------------------
    def install(self) -> None:
        import importlib

        self.missing = []
        for module_name, path, name in WRAP_POINTS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(name, original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------
    def spans(self) -> list[tuple]:
        with self._lists_lock:
            out = [s for lst in self._lists for s in lst]
        out.sort(key=lambda s: s[0])
        return out

    def totals(self) -> dict[int, dict[str, dict[str, float]]]:
        """round -> span name -> {calls, ms, self_ms}. Self time is a span's
        duration minus the durations of its child spans."""
        spans = self.spans()
        child_ms: dict[int, float] = defaultdict(float)
        for span_id, _name, start, end, parent, _note, _round in spans:
            if parent:
                child_ms[parent] += (end - start) * 1000.0
        out: dict[int, dict[str, dict[str, float]]] = defaultdict(
            lambda: defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        )
        for span_id, name, start, end, _parent, _note, rnd in spans:
            ms = (end - start) * 1000.0
            t = out[rnd][name]
            t["calls"] += 1
            t["ms"] += ms
            t["self_ms"] += ms - child_ms.get(span_id, 0.0)
        return out

    def called_points(self) -> set[str]:
        """Names of the wrap points that recorded at least one span."""
        return {s[1] for s in self.spans()}

    def write(self, path) -> int:
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, note, rnd in spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent or None, "note_id": note, "round": rnd,
                }) + "\n")
        return len(spans)


# Counters taken where the work happens, from a traced call's arguments and
# result: observer(tracer, args, kwargs, result).
def _chunks(tracer, args, kwargs, result):
    tracer.count("preprocess.chunks", len(result))


def _mentions(tracer, args, kwargs, result):
    tracer.count("recognition.mentions", len(result))


def _annotate_note(tracer, args, kwargs, result):
    tracer.count("integrate.lines_total", result[2])


def _applicability(tracer, args, kwargs, result):
    mention, raw, table = args[:3]
    applicable = table.applicable_attributes(mention.semantic_type)
    for kind in ("location", "modifier", "value", "unit", "purpose"):
        value = raw.get(kind)
        if kind not in applicable and value is not None and value is not NOT_APPLICABLE:
            tracer.count("attributes.discarded_answers")


def _align(tracer, args, kwargs, result):
    tracer.count("integrate.lines_seen", len(args[1]))
    tracer.count("integrate.lines_aligned", len(result[0]))


def _complete(tracer, args, kwargs, result):
    tracer.count("llm_client.prompt_chars", len(args[1]))
    tracer.count("llm_client.response_chars", len(result))


_OBSERVERS = {
    "preprocess.chunk_note": _chunks,
    "recognition.recognize_note": _mentions,
    "attributes.annotate_note": _annotate_note,
    "attributes.apply_applicability": _applicability,
    "integrate.align": _align,
    "llm_client.complete": _complete,
}
