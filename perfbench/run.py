"""Benchmark for `ehrstruct structure`, run in-process on generated notes.

    python3 perfbench/run.py --workload rule_long --seed 1 --seconds 20 --trace 0

It makes the calls `cli.cmd_structure` makes: `build_resources`, then
`run_structure` over the notes, then `integrate.serialize` to a file, and
times them from outside. A run repeats whole rounds over one seeded corpus
until --seconds of processing have been measured, checks every note of every
round against the generator's planted gold, and prints one JSON object as
the last line of stdout. --trace 0 reports the end-to-end metrics; --trace 1
alternates untraced and traced rounds and reports the per-layer metrics.
Work files go to .perfbench_out/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import logging
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "ehrstruct" / "data"
WORK = ROOT / ".perfbench_out"


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str  # rule | llm
    workers: int
    classes: tuple  # of corpus.LengthClass, shortest first
    setups: int  # build_resources calls per run; setup_s is their median
    lexicon_size: int = 0  # 0: the shipped sample lexicon
    fault_every: int = 0  # every k-th note opens with a dotted-capital-I name

    @property
    def notes_per_round(self) -> int:
        return sum(c.count for c in self.classes)

    @property
    def tail_percentile(self) -> int:
        """Highest whole percentile with at least ten notes of one round
        beyond it; every run processes at least one round."""
        return int(100 * (1 - 10 / self.notes_per_round))


def workloads():
    from corpus import LengthClass as L

    return {
        w.name: w
        for w in (
            Workload("rule_long", "rule", 1, (L(500, 25), L(2000, 12), L(8000, 2), L(16000, 1)),
                     setups=3, lexicon_size=300_000, fault_every=25),
            Workload("llm_stub", "llm", 2, (L(1000, 12), L(2000, 10), L(4000, 18)), setups=25),
        )
    }


END_TO_END = {
    "setup_s": "s",
    "notes_per_s": "notes/s",
    "kchars_per_s": "kchar/s",
    "entities_per_s": "entities/s",
    "note_latency_p50_ms": "ms",
    "note_latency_tail_ms": "ms",
    "length_cost_ratio": "x",
    "peak_rss_mb": "MB",
}


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Stub:
    """The LLM stub in a process of its own."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "PORT":
            self.close()
            raise RuntimeError("LLM stub did not start")
        self.port = int(line[1])
        self.base_url = f"http://127.0.0.1:{self.port}/v1"

    def stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()  # the stub exits when its stdin closes
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def build_corpus(wl: Workload, seed: int):
    import corpus

    abbrev_types = corpus.read_abbreviation_types(DATA / "sample_abbreviations.tsv")
    if wl.lexicon_size:
        lexicon = corpus.big_lexicon(DATA, WORK / f"{wl.name}-lexicon.tsv", seed, wl.lexicon_size)
    else:
        lexicon = corpus.sample_lexicon(DATA)
    notes = corpus.make_corpus(seed, wl.name, wl.classes, lexicon, abbrev_types, wl.fault_every)
    return lexicon, notes


def config_for(wl: Workload, lexicon, stub):
    from ehrstruct.pipeline import PipelineConfig

    cfg = PipelineConfig(
        lexicon=str(lexicon.tsv_path or DATA / "sample_lexicon.tsv"),
        abbreviations=str(DATA / "sample_abbreviations.tsv"),
        backend=wl.backend,
        workers=wl.workers,
    )
    if stub is not None:
        cfg.base_url = stub.base_url
        os.environ.setdefault(cfg.api_key_env, "perfbench-stub")
    problems = cfg.validate()
    if problems:
        raise RuntimeError(f"config error: {problems}")
    return cfg


class Run:
    """One benchmark run: set up, then whole rounds over the corpus."""

    def __init__(self, wl: Workload, notes, cfg, tracer=None):
        from ehrstruct import pipeline
        from ehrstruct.preprocess import RawNote

        self.wl = wl
        self.notes = notes
        self.raw = [RawNote(n.note_id, n.text) for n in notes]
        self.by_id = {n.note_id: n for n in notes}
        self.cfg = cfg
        self.tracer = tracer
        self.out_path = WORK / f"{wl.name}-entities.jsonl"
        self.setup_s: list[float] = []
        self.round_s: list[float] = []
        self.traced_round_s: list[float] = []
        self.round_latency: list[dict[str, float]] = []  # note_id -> seconds, per untraced round
        self.entities: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.unexpected: dict[str, list[str]] = {}
        # Per-note latency: time each structure_note call where run_structure
        # looks it up. The wrapper is two clock reads per note.
        original = pipeline.structure_note
        sink = self._note_times = []

        def timed_structure_note(raw, res):
            t0 = time.perf_counter()
            result = original(raw, res)
            sink.append((raw.note_id, time.perf_counter() - t0))
            return result

        pipeline.structure_note = timed_structure_note
        self._restore = lambda: setattr(pipeline, "structure_note", original)

    def close(self) -> None:
        self._restore()

    def setup(self):
        from ehrstruct import pipeline

        res = None
        for _ in range(self.wl.setups):
            res = None
            gc.collect()
            t0 = time.perf_counter()
            res = pipeline.build_resources(self.cfg)
            self.setup_s.append(time.perf_counter() - t0)
        self.index_size = len(res.index)
        return res

    def warm_up(self, res) -> None:
        """Fill the regex caches and open the endpoint connection."""
        from ehrstruct import integrate, pipeline

        shortest = sorted(self.raw, key=lambda r: len(r.text))[:4]
        results = pipeline.run_structure(shortest, res, workers=self.wl.workers)
        with open(os.devnull, "w", encoding="utf-8") as fh:
            integrate.serialize(results, fh)
        self._note_times.clear()

    def one_round(self, res, traced: bool) -> float:
        import checks
        from ehrstruct import integrate, pipeline

        self._note_times.clear()
        t0 = time.perf_counter()
        results = pipeline.run_structure(self.raw, res, workers=self.wl.workers)
        with open(self.out_path, "w", encoding="utf-8") as fh:
            integrate.serialize(results, fh)
        elapsed = time.perf_counter() - t0
        if not traced:
            self.round_latency.append(dict(self._note_times))
        for r in results:
            self.entities[r.note_id] = len(r.entities)
        failures = checks.failing_notes(self.notes, self.out_path, llm=self.wl.backend == "llm")
        self.attempted += len(self.raw)
        self.failed += len(failures)
        for note_id, problems in failures.items():
            note = self.by_id.get(note_id)
            if note is None or not note.planted_fault:
                self.unexpected[note_id] = problems
        return elapsed

    def measure(self, res, seconds: float) -> None:
        """Whole rounds until `seconds` of processing were measured; with a
        tracer, untraced and traced rounds alternate, starting untraced."""
        traced_next = False
        while True:
            if self.tracer is not None and traced_next:
                self.tracer.round += 1
                self.tracer.install()
                try:
                    self.traced_round_s.append(self.one_round(res, traced=True))
                finally:
                    self.tracer.uninstall()
            else:
                self.round_s.append(self.one_round(res, traced=False))
            if self.tracer is not None:
                traced_next = not traced_next
            measured = sum(self.round_s) + sum(self.traced_round_s)
            if measured >= seconds and (self.tracer is None or (self.traced_round_s and not traced_next)):
                break

    def end_to_end(self) -> dict[str, float]:
        """Rates divide the work of all untraced rounds by their total time,
        and latency percentiles run over the notes of one round, each note
        taking its mean latency over those rounds. Means, not medians: the
        machine's speed switches between states that last from seconds to a
        whole run, and a median or a percentile of pooled samples jumps from
        one state to the other where a mean moves smoothly."""
        wl = self.wl
        rounds = len(self.round_s)
        total_s = sum(self.round_s)
        note_s = {n.note_id: statistics.fmean(lat[n.note_id] for lat in self.round_latency) for n in self.notes}
        class_s = [0.0] * len(wl.classes)
        class_entities = [0] * len(wl.classes)
        for n in self.notes:
            class_s[n.length_class] += note_s[n.note_id]
            class_entities[n.length_class] += self.entities[n.note_id]
        note_ms = [s * 1000.0 for s in note_s.values()]
        return {
            "setup_s": statistics.median(self.setup_s),
            "notes_per_s": len(self.raw) * rounds / total_s,
            "kchars_per_s": sum(len(r.text) for r in self.raw) * rounds / 1000.0 / total_s,
            "entities_per_s": sum(self.entities.values()) * rounds / total_s,
            "note_latency_p50_ms": percentile(note_ms, 50),
            "note_latency_tail_ms": percentile(note_ms, wl.tail_percentile),
            "length_cost_ratio": (class_s[-1] / class_entities[-1]) / (class_s[0] / class_entities[0]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ehrstruct" / "__init__.py").is_file():
        print(f"error: no ehrstruct sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    wls = workloads()
    if args.workload not in wls:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(wls)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    wl = wls[args.workload]
    WORK.mkdir(exist_ok=True)
    os.environ["NO_PROXY"] = "127.0.0.1,localhost"
    # Like the CLI, warnings go through logging; here to a file.
    logging.basicConfig(
        level=logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        filename=WORK / f"{wl.name}-warnings.log",
        filemode="w",
        force=True,
    )

    lexicon, notes = build_corpus(wl, args.seed)
    stub = Stub() if wl.backend == "llm" else None
    run = None
    try:
        cfg = config_for(wl, lexicon, stub)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        run = Run(wl, notes, cfg, tracer)
        if tracer is not None:
            tracer.install()
        try:
            res = run.setup()
        finally:
            if tracer is not None:
                tracer.uninstall()
        run.warm_up(res)
        stub_before = stub.stats() if stub else None
        run.measure(res, args.seconds)
        stub_after = stub.stats() if stub else None
    finally:
        if run is not None:
            run.close()
        if stub is not None:
            stub.close()

    correct = not run.unexpected
    print(f"{wl.name}: setups {' '.join(f'{t:.4f}' for t in run.setup_s)} s; rounds "
          f"{' '.join(f'{t:.3f}' for t in run.round_s)} s; traced rounds "
          f"{' '.join(f'{t:.3f}' for t in run.traced_round_s) or '-'} s", file=sys.stderr)
    for note_id, problems in sorted(run.unexpected.items())[:5]:
        print(f"FAIL {note_id}: {'; '.join(problems[:3])}", file=sys.stderr)
    if args.trace:
        import layers

        metrics = layers.per_layer(run, tracer, stub_before, stub_after)
        layers.report(run, tracer, stub_after, WORK / f"{wl.name}-trace.jsonl", WORK / f"{wl.name}-trace-report.json")
        units = layers.UNITS
    else:
        metrics = run.end_to_end()
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name:45s} {value:14.4f} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
