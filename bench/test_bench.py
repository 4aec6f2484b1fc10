"""Tests of the benchmark itself: a tiny shape passes every check, and the
checker reports a failed operation when the expectation is off by one.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import json
import math
import sys

import pytest

import checks
import run

sys.path.insert(0, str(run.SRC))

from smmtrack import GenConfig  # noqa: E402

TINY = GenConfig(teams=3, levels=3, seed=5)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    work = tmp_path_factory.mktemp("bench")
    times, path = run.build_corpus(TINY, work, 1, run._no_span)
    assert len(times) == 1 and times[0] > 0
    return work, path


def _ledger(path):
    return json.loads((path / "ledger.json").read_text(encoding="utf-8"))


def test_tiny_shape_passes_every_check(corpus):
    work, path = corpus
    loop = run.Loop(path, checks.Expected(_ledger(path)), work)
    loop.round()
    assert (loop.attempted, loop.failed) == (1 + 3 * 3, 0)
    metrics = loop.metrics([0.5])
    assert set(metrics) == {"setup_s", "report_s", "peak_rss_mb", "step_p50_us", "step_p99_us"}
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_round_reports_every_layer(corpus):
    work, path = corpus
    tracer = run.Tracer()
    loop = run.TracedLoop(path, checks.Expected(_ledger(path)), work, tracer)
    loop.round()
    assert (loop.attempted, loop.failed) == (1 + 3 * 3, 0)
    with tracer.span("synth.generate"), tracer.span("ingest.write"):
        pass
    startup = {"startup.bare_s": 0.1, "startup.import_s": 1.0, "startup.import_rss_mb": 50.0}
    metrics = loop.metrics(startup)
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert metrics["discrepancies.records_opened"]["value"] == len(_ledger(path)["planted"])
    assert metrics["discrepancies.records_closed"]["value"] == 0


def test_missing_planting_fails_the_stream_and_the_report(corpus):
    work, path = corpus
    ledger = _ledger(path)
    dropped = ledger["planted"].pop(0)
    loop = run.Loop(path, checks.Expected(ledger), work)
    loop.round()
    assert loop.attempted == 1 + 3 * 3
    assert loop.failed == 2, f"dropped {dropped}"


def test_count_off_by_one_fails_the_report(corpus):
    work, path = corpus
    expected = checks.Expected(_ledger(path))
    loop = run.Loop(path, expected, work)
    assert loop._report() == []
    doc = json.loads((work / "report.json").read_text(encoding="utf-8"))
    plot = (work / "plot.csv").read_text(encoding="utf-8")
    doc["counts"][0]["omission"] += 1
    problems = checks.check_report(expected, doc, plot)
    assert any("omission" in p for p in problems)


@pytest.mark.parametrize(
    "t, df, p",
    [
        (1.0, 1, 0.5),                       # theta = pi/4, A = 1/2
        (math.sqrt(2), 2, 1 - math.sqrt(0.5)),  # theta = pi/4, A = sin(pi/4)
        (3.0, 3, 1 / 3 - math.sqrt(3) / (2 * math.pi)),  # theta = pi/3
        (0.0, 7, 1.0),
        (math.inf, 9, 0.0),
    ],
)
def test_student_t_series_hand_values(t, df, p):
    assert math.isclose(checks.student_t_two_sided(t, df), p, rel_tol=1e-12, abs_tol=1e-15)


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "report_s", "peak_rss_mb", "step_p50_us", "step_p99_us"]
