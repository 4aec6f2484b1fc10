#!/usr/bin/env python3
"""Benchmark for smmtrack: one workload, one seed, one closed loop.

    python3 bench/run.py --workload paper_dyads --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is reached from outside only:
``python -m smmtrack.cli`` as a child process (``src`` on ``PYTHONPATH``)
and the public names of the ``smmtrack`` package.  Every output is checked
against the generator ledger (see checks.py).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  README.md describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# GenConfig fields, a multiplier over the generator's default rates, and how
# many times a run builds the corpus for setup_s.  long_level has no
# cross-team spread: with three teams, per-team baselines drawn from the seed
# would change its size from one seed to the next by up to a factor of two.
WORKLOADS = {
    "paper_dyads": dict(teams=20, levels=4, rate_scale=1, setup_reps=30),
    "many_teams": dict(teams=500, levels=4, rate_scale=1, setup_reps=3),
    "long_level": dict(teams=3, levels=2, rate_scale=440, team_baseline_spread=0.0,
                       setup_reps=3),
}
MIN_ROUNDS = 2
STARTUP_REPS = 5
CHILD_TIMEOUT_S = 150.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "smmtrack" / "__init__.py").is_file():
        print(f"bench: no smmtrack package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


def gen_config(workload: str, seed: int):
    from smmtrack import GenConfig

    fields = dict(WORKLOADS[workload])
    scale = fields.pop("rate_scale")
    del fields["setup_reps"]
    rates = {k: v * scale for k, v in GenConfig().rate_by_kind.items()}
    return GenConfig(seed=seed, rate_by_kind=rates, **fields)


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One benchmark run; returns the result object printed last."""
    config = gen_config(workload, seed)
    reps = WORKLOADS[workload]["setup_reps"]
    tracer = Tracer() if trace else None
    span = tracer.span if trace else _no_span
    startup = measure_startup() if trace else {}

    setup_times, corpus = build_corpus(config, work, reps, span)
    with open(corpus / "ledger.json", encoding="utf-8") as handle:
        expected = checks.Expected(json.load(handle))
    loop = TracedLoop(corpus, expected, work, tracer) if trace else Loop(corpus, expected, work)

    start = time.perf_counter()
    while True:
        loop.round()
        elapsed = time.perf_counter() - start
        if loop.rounds >= MIN_ROUNDS and elapsed * (1 + 1 / loop.rounds) > seconds:
            break

    result = {"correct": loop.failed == 0, "attempted": loop.attempted, "failed": loop.failed}
    print(f"{workload} seed {seed}: {loop.rounds} rounds in {elapsed:.2f} s, "
          f"{loop.attempted} operations, {loop.failed} failed")
    print(f"setup_s samples: {_fmt(setup_times)}")
    if trace:
        metrics = loop.metrics(startup)
        path = tracer.write(OUT / f"trace-{workload}-seed{seed}.json")
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics = loop.metrics(setup_times)
    result["metrics"] = metrics
    return result


# --- set-up ------------------------------------------------------------------

def build_corpus(config, work: Path, reps: int, span) -> tuple[list[float], Path]:
    """Generate and write the corpus ``reps`` times, as ``smmtrack generate``
    does; returns the per-repetition times and the last corpus directory."""
    from smmtrack import generate, write_corpus

    times = []
    corpus = None
    for rep in range(reps):
        if corpus is not None:
            shutil.rmtree(corpus)
        corpus = work / f"corpus{rep}"
        start = time.perf_counter()
        with span("setup"):
            with span("synth.generate"):
                generated = generate(config)
            with span("ingest.write"):
                write_corpus(generated, str(corpus))
        times.append(time.perf_counter() - start)
    return times, corpus


def corpus_files(corpus: Path) -> tuple[str, list[str]]:
    return str(corpus / "scenario.json"), sorted(str(p) for p in corpus.glob("events_t*.jsonl"))


def load_streams(scenario_path: str, events: list[str], span=None):
    """Parse the corpus and group update events by (team, level)."""
    from smmtrack import load_events, load_scenario

    span = span or _no_span
    with span("ingest.scenario"):
        scenario = load_scenario(scenario_path)
    with span("ingest.events"):
        records = []
        for path in events:
            records.extend(load_events(path, scenario))
    streams: dict[tuple[int, int], list] = {}
    for record in records:
        streams.setdefault((record.team, record.level), []).append(record)
    return scenario, streams, len(records)


# --- the untraced loop -------------------------------------------------------

class Loop:
    """Closed loop of whole rounds.  One round is one ``report`` child plus
    an in-process ``EngineState.step`` pass over every stream; each checked
    output is one operation (the report, then one per stream)."""

    def __init__(self, corpus: Path, expected: checks.Expected, work: Path) -> None:
        self.expected = expected
        self.work = work
        self.scenario_path, self.events = corpus_files(corpus)
        self.scenario, self.streams, _ = load_streams(self.scenario_path, self.events)
        self.rounds = self.attempted = self.failed = 0
        self._batch: dict[tuple[int, int], set] = {}
        self.report_s: list[float] = []
        self.rss_mb: list[float] = []
        self.step_ns: list[list[int]] = []

    def round(self) -> None:
        self.rounds += 1
        self.step_ns.append([])
        self._operation(self._report)
        for key, events in sorted(self.streams.items()):
            self._operation(lambda: self._stream(key, events))

    def _operation(self, body) -> None:
        self.attempted += 1
        try:
            problems = body()
        except Exception as exc:  # any crash of the program is a failed operation
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            for problem in problems[:5]:
                print(f"bench: check failed: {problem}", file=sys.stderr)

    def _report(self) -> list[str]:
        out, plot = self.work / "report.json", self.work / "plot.csv"
        plot.unlink(missing_ok=True)
        cmd = [sys.executable, "-m", "smmtrack.cli", "report", "--format", "json",
               "--plot-data", str(plot), "--scenario", self.scenario_path,
               "--events", *self.events]
        wall, status, usage = run_child(cmd, out)
        if status != 0:
            return [f"report exited with {status}"]
        self.report_s.append(wall)
        self.rss_mb.append(usage.ru_maxrss / 1024)
        return check_report_files(self.expected, out, plot)

    def _stream(self, key: tuple[int, int], events: list) -> list[str]:
        from smmtrack import EngineState

        team, level = key
        state = EngineState.fresh(team, level, self.scenario.roles,
                                  self.scenario.ground_truth[level])
        opened = []
        clock = time.perf_counter_ns
        samples = self.step_ns[-1]
        for event in events:
            start = clock()
            _, new, _ = state.step(event)
            samples.append(clock() - start)
            opened += new
        return self._check_stream(self.scenario, key, state, opened)

    def _check_stream(self, scenario, key: tuple[int, int], state, opened: list) -> list[str]:
        from smmtrack import detect_all

        team, level = key
        # Replays are deterministic, so the batch detectors run once per
        # stream and run; later rounds compare against that same result.
        batch = self._batch.get(key)
        if batch is None:
            batch = detect_all(state.snapshots(), scenario.ground_truth[level],
                               team=team, level=level)
            self._batch[key] = batch
        return checks.check_stream(self.expected, team, level, opened,
                                   state.open_records(), batch)

    def metrics(self, setup_times: list[float]) -> dict:
        # Every round replays the same events in the same order, so each
        # call's latency is taken as its median over the rounds; a slow
        # moment of the machine then moves one sample of a call, not the call.
        steps = sorted(statistics.median(call) for call in zip(*self.step_ns))
        print(f"report_s samples: {_fmt(self.report_s)}")
        print(f"peak_rss_mb samples: {_fmt(self.rss_mb)}")
        print(f"step calls: {len(steps)} x {len(self.step_ns)} rounds")
        return {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "report_s": _metric(statistics.median(self.report_s), "s"),
            "peak_rss_mb": _metric(statistics.median(self.rss_mb), "MB"),
            "step_p50_us": _metric(_rank(steps, 0.50) / 1000, "us"),
            "step_p99_us": _metric(_rank(steps, 0.99) / 1000, "us"),
        }


def run_child(cmd: list[str], stdout_path: Path):
    """Run one child with stdout to a file; return wall time, exit code and
    its own resource usage."""
    env = dict(os.environ, PYTHONPATH=str(SRC), SMM_LOG="warn")
    with open(stdout_path, "w", encoding="utf-8") as stdout:
        start = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=stdout, env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, child.returncode, usage


def check_report_files(expected: checks.Expected, out: Path, plot: Path) -> list[str]:
    doc = json.loads(out.read_text(encoding="utf-8"))
    return checks.check_report(expected, doc, plot.read_text(encoding="utf-8"))


# --- the traced loop ---------------------------------------------------------

class Tracer:
    """Spans (name, start, end, parent) kept in memory, written at the end."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus what its child spans cover."""
        own = {}
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        for index, (name, start, end, _) in enumerate(self.spans):
            own[name] = own.get(name, 0.0) + (end - start - child_ns[index]) / 1e9
        return own

    def write(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"self_s": self.self_times(),
               "spans": [{"name": n, "start_ns": s, "end_ns": e, "parent": p}
                         for n, s, e, p in self.spans]}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        return path


@contextlib.contextmanager
def _no_span(name: str):
    yield


def measure_startup() -> dict[str, float]:
    """Median wall time of a bare interpreter and of ``import smmtrack`` in a
    child, and the peak RSS of the latter."""
    bare, imported, rss = [], [], []
    sink = WORK / f"startup-{os.getpid()}.out"
    sink.parent.mkdir(parents=True, exist_ok=True)
    for _ in range(STARTUP_REPS):
        wall, _, _ = run_child([sys.executable, "-c", "pass"], sink)
        bare.append(wall)
        wall, status, usage = run_child([sys.executable, "-c", "import smmtrack"], sink)
        if status != 0:
            raise RuntimeError(f"import smmtrack exited with {status}")
        imported.append(wall)
        rss.append(usage.ru_maxrss / 1024)
    sink.unlink()
    return {
        "startup.bare_s": statistics.median(bare),
        "startup.import_s": statistics.median(imported),
        "startup.import_rss_mb": statistics.median(rss),
    }


class TracedLoop(Loop):
    """Same rounds and checks as :class:`Loop`, run in process with spans
    around every call into a layer.  Each round also repeats the API work
    without spans, for the tracing overhead; the report operation is an
    in-process ``cli.main`` call instead of a child."""

    def __init__(self, corpus, expected, work, tracer: Tracer) -> None:
        self.expected = expected
        self.work = work
        self.tracer = tracer
        self.scenario_path, self.events = corpus_files(corpus)
        self.rounds = self.attempted = self.failed = 0
        self._batch = {}
        self.per_round: list[dict[str, float]] = []
        self.traced_s: list[float] = []
        self.untraced_s: list[float] = []
        self.records = 0
        self.replay: dict[str, int] = {}

    def round(self) -> None:
        self.rounds += 1
        mark = len(self.tracer.spans)
        if self.rounds % 2 == 0:
            self._untraced_pipeline()
        with self.tracer.span("round"):
            start = time.perf_counter()
            scenario, states = self._pipeline(self.tracer.span)
            self.traced_s.append(time.perf_counter() - start)
            with self.tracer.span("ingest.json_floor"):
                json_floor(self.events)
            self._operation(self._cli_report)
        if self.rounds % 2 == 1:
            self._untraced_pipeline()
        for key, state, opened in states:
            self._operation(lambda: self._check_stream(scenario, key, state, opened))
        totals: dict[str, float] = {}
        for name, begin, end, _ in self.tracer.spans[mark:]:
            totals[name] = totals.get(name, 0.0) + (end - begin) / 1e9
        self.per_round.append(totals)

    def _untraced_pipeline(self) -> None:
        start = time.perf_counter()
        self._pipeline(_no_span)
        self.untraced_s.append(time.perf_counter() - start)

    def _pipeline(self, span):
        """Parse, replay, count and forecast in process; returns the scenario
        and, per stream, its key, final engine state and opened records."""
        from smmtrack import (EngineState, batch_report, build_history, count_level,
                              pearson, uniform_weights)

        scenario, streams, self.records = load_streams(self.scenario_path, self.events, span)
        states = []
        opened_total = closed_total = peak = 0
        with span("discrepancies.replay"):
            for (team, level), events in sorted(streams.items()):
                state = EngineState.fresh(team, level, scenario.roles,
                                          scenario.ground_truth[level])
                opened, open_now = [], 0
                for event in events:
                    _, new, gone = state.step(event)
                    opened += new
                    open_now += len(new) - len(gone)
                    closed_total += len(gone)
                    peak = max(peak, open_now)
                opened_total += len(opened)
                states.append(((team, level), state, opened))
        self.replay = {"events": sum(len(e) for e in streams.values()),
                       "open_peak": peak, "opened": opened_total, "closed": closed_total}
        with span("episodes.count"):
            counts = [count_level(state.all_records(), *key) for key, state, _ in states]
        with span("prediction.forecast"):
            target = max(scenario.level_ids())
            scheme = uniform_weights(set(scenario.level_ids()) - {target})
            report = batch_report(build_history(counts), target, scheme)
        if report.pearson is not None:
            totals = [p for p in report.predictions if p.kind == checks.TOTAL]
            with span("prediction.pearson"):
                pearson([p.predicted for p in totals], [float(p.actual) for p in totals])
        return scenario, states

    def _cli_report(self) -> list[str]:
        from smmtrack.cli import main as cli_main

        out, plot = self.work / "report.json", self.work / "plot.csv"
        plot.unlink(missing_ok=True)
        with self.tracer.span("cli.main"):
            status = cli_main(["report", "--format", "json", "--plot-data", str(plot),
                               "--output", str(out), "--scenario", self.scenario_path,
                               "--events", *self.events])
        if status != 0:
            return [f"cli.main report returned {status}"]
        return check_report_files(self.expected, out, plot)

    def metrics(self, startup: dict) -> dict:
        from smmtrack import load_events, load_scenario

        def med(name: str) -> float:
            return statistics.median(r.get(name, 0.0) for r in self.per_round)

        scenario = load_scenario(self.scenario_path)
        tracemalloc.start()
        records = [load_events(path, scenario) for path in self.events]
        parse_peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        del records

        setup_spans = {name: [] for name in ("synth.generate", "ingest.write")}
        for name, begin, end, _ in self.tracer.spans:
            if name in setup_spans:
                setup_spans[name].append((end - begin) / 1e9)
        api_s = sum(med(name) for name in ("ingest.scenario", "ingest.events", "discrepancies.replay",
                                           "episodes.count", "prediction.forecast"))
        traced, untraced = statistics.median(self.traced_s), statistics.median(self.untraced_s)
        values = {
            **startup,
            "synth.generate_s": statistics.median(setup_spans["synth.generate"]),
            "ingest.write_s": statistics.median(setup_spans["ingest.write"]),
            "ingest.scenario_s": med("ingest.scenario"),
            "ingest.events_s": med("ingest.events"),
            "ingest.records": self.records,
            "ingest.records_per_s": self.records / med("ingest.events"),
            "ingest.json_floor_s": med("ingest.json_floor"),
            "ingest.parse_peak_mb": parse_peak,
            "discrepancies.replay_s": med("discrepancies.replay"),
            "discrepancies.events": self.replay["events"],
            "discrepancies.events_per_s": self.replay["events"] / med("discrepancies.replay"),
            "discrepancies.open_peak": self.replay["open_peak"],
            "discrepancies.records_opened": self.replay["opened"],
            "discrepancies.records_closed": self.replay["closed"],
            "episodes.count_s": med("episodes.count"),
            "prediction.forecast_s": med("prediction.forecast"),
            "prediction.pearson_s": med("prediction.pearson"),
            "cli.main_s": med("cli.main"),
            "cli.overhead_s": med("cli.main") - api_s,
            "trace.overhead_pct": 100.0 * (traced - untraced) / untraced,
        }
        print(f"pipeline traced {_fmt(self.traced_s)} untraced {_fmt(self.untraced_s)}")
        print("self time per span name (s, whole run):")
        for name, seconds in sorted(self.tracer.self_times().items(), key=lambda kv: -kv[1]):
            print(f"  {name:24s} {seconds:10.4f}")
        return {name: _metric(value, PER_LAYER_UNITS[name]) for name, value in values.items()}


PER_LAYER_UNITS = {
    "startup.bare_s": "s", "startup.import_s": "s", "startup.import_rss_mb": "MB",
    "synth.generate_s": "s", "ingest.write_s": "s",
    "ingest.scenario_s": "s", "ingest.events_s": "s", "ingest.records": "count",
    "ingest.records_per_s": "1/s", "ingest.json_floor_s": "s", "ingest.parse_peak_mb": "MB",
    "discrepancies.replay_s": "s", "discrepancies.events": "count",
    "discrepancies.events_per_s": "1/s", "discrepancies.open_peak": "count",
    "discrepancies.records_opened": "count", "discrepancies.records_closed": "count",
    "episodes.count_s": "s", "prediction.forecast_s": "s", "prediction.pearson_s": "s",
    "cli.main_s": "s", "cli.overhead_s": "s", "trace.overhead_pct": "%",
}


def json_floor(events: list[str]) -> None:
    """The parse floor: read each events file and ``json.loads`` every line."""
    for path in events:
        with open(path, encoding="utf-8") as handle:
            for line in handle.read().splitlines():
                if line.strip():
                    json.loads(line)


# --- helpers -----------------------------------------------------------------

def _rank(ordered: list[int], q: float) -> int:
    """Nearest-rank quantile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _fmt(values: list[float]) -> str:
    return "[" + ", ".join(f"{v:.4f}" for v in values) + "]"


if __name__ == "__main__":
    sys.exit(main())
