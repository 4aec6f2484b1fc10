"""End-to-end command-line behavior: pipelines, formats, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from smmtrack import fixture_path
from smmtrack.cli import main
from smmtrack.episodes import KIND_ORDER
from smmtrack.synth import load_ledger

CSV_HEADER = "team,level,contradiction,omission,unsupported,false,total"


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    assert main(["generate", "--out-dir", str(root), "--seed", "5",
                 "--teams", "3", "--levels", "3"]) == 0
    return root


def corpus_args(root, *extra):
    events = sorted(str(p) for p in root.glob("events_t*.jsonl"))
    return ["--scenario", str(root / "scenario.json"), "--events",
            *events, *extra]


def csv_counts(text):
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    table = {}
    for line in lines[1:]:
        team, level, con, omi, uns, fal, tot = (int(v) for v in line.split(","))
        assert tot == con + omi + uns + fal
        table[(team, level)] = {
            "contradiction": con, "omission": omi,
            "unsupported": uns, "false": fal,
        }
    return table


def test_generate_writes_corpus_files(corpus_dir):
    names = sorted(p.name for p in corpus_dir.iterdir())
    assert names == ["events_t01.jsonl", "events_t02.jsonl",
                     "events_t03.jsonl", "ledger.json", "scenario.json"]


def test_analyze_counts_match_planted_ledger(corpus_dir, capsys):
    assert main(["analyze", *corpus_args(corpus_dir, "--format", "csv")]) == 0
    table = csv_counts(capsys.readouterr().out)
    ledger = load_ledger(str(corpus_dir / "ledger.json"))
    tallies = ledger.tallies()
    assert {(t, l) for t, l, _ in tallies} <= set(table)
    for (team, level), row in table.items():
        for kind in KIND_ORDER:
            assert row[kind.value] == tallies.get((team, level, kind), 0)


def test_output_formats_agree(corpus_dir, capsys, tmp_path):
    assert main(["analyze", *corpus_args(corpus_dir, "--format", "csv")]) == 0
    from_csv = csv_counts(capsys.readouterr().out)

    assert main(["analyze", *corpus_args(corpus_dir, "--format", "json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    from_json = {
        (row["team"], row["level"]): {
            kind.value: row[kind.value] for kind in KIND_ORDER}
        for row in doc
    }
    assert from_json == from_csv

    assert main(["analyze", *corpus_args(corpus_dir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == [
        "team", "level", "contradiction", "omission", "unsupported",
        "false", "total"]
    from_table = {}
    for line in lines[2:]:
        team, level, con, omi, uns, fal, _ = (int(v) for v in line.split())
        from_table[(team, level)] = {
            "contradiction": con, "omission": omi,
            "unsupported": uns, "false": fal,
        }
    assert from_table == from_csv


def test_analyze_empty_stream_yields_header_only(corpus_dir, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = main(["analyze", "--scenario", str(corpus_dir / "scenario.json"),
                 "--events", str(empty), "--format", "csv"])
    assert code == 0
    assert capsys.readouterr().out == CSV_HEADER + "\n"


def test_corrupt_stream_exits_1_with_location(corpus_dir, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "update"\n')
    code = main(["analyze", "--scenario", str(corpus_dir / "scenario.json"),
                 "--events", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ParseError: ")
    assert f"{bad}:1" in err


def test_missing_scenario_exits_2(capsys):
    code = main(["analyze", "--scenario", "/nonexistent/scenario.json",
                 "--events", "whatever.jsonl"])
    assert code == 2
    assert capsys.readouterr().err.startswith("i/o error: ")


def test_predict_defaults_to_last_level(corpus_dir, capsys):
    assert main(["predict", *corpus_args(corpus_dir, "--format", "json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["target"] == 3
    assert doc["caveat"]
    teams = {p["team"] for p in doc["predictions"]}
    assert teams == {1, 2, 3}


def test_predict_table_has_aggregate_lines(corpus_dir, capsys):
    assert main(["predict", *corpus_args(corpus_dir)]) == 0
    out = capsys.readouterr().out
    assert "MAE by kind:" in out
    assert "Pearson on totals:" in out
    assert "Caveat:" in out


def test_predict_explicit_weights(corpus_dir, capsys):
    code = main(["predict", *corpus_args(
        corpus_dir, "--target", "3", "--weights", "1:0.25,2:0.75",
        "--format", "json")])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["target"] == 3


def test_predict_rejects_bad_weights(corpus_dir, capsys):
    code = main(["predict", *corpus_args(
        corpus_dir, "--weights", "1:0.5,2:0.6")])
    assert code == 1
    assert capsys.readouterr().err.startswith("SchemeMismatch: ")


def test_predict_rejects_unknown_target(corpus_dir, capsys):
    code = main(["predict", *corpus_args(corpus_dir, "--target", "99")])
    assert code == 1
    assert capsys.readouterr().err.startswith("MissingLevel: ")


def test_score_reproduces_dyad_fixture(capsys):
    code = main(["score",
                 "--scenario", fixture_path("scenario_dyad.json"),
                 "--events", fixture_path("confirmations_team08.jsonl"),
                 fixture_path("confirmations_team16.jsonl")])
    assert code == 0
    out = capsys.readouterr().out
    assert "8 (42.1%)" in out
    assert "5 (26.3%)" in out
    assert "Total (19)" in out


def test_score_without_targets_fails(corpus_dir, capsys):
    code = main(["score", *corpus_args(corpus_dir)])
    assert code == 1
    assert "no targets" in capsys.readouterr().err


def test_output_flag_and_determinism(corpus_dir, tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for path in (first, second):
        assert main(["report", *corpus_args(
            corpus_dir, "--format", "csv", "--output", str(path))]) == 0
    assert first.read_bytes() == second.read_bytes()
    text = first.read_text()
    assert text.startswith(CSV_HEADER)
    assert "# Caveat:" in text


def test_report_json_and_plot_data(corpus_dir, tmp_path, capsys):
    plot = tmp_path / "plot.csv"
    assert main(["report", *corpus_args(
        corpus_dir, "--format", "json", "--plot-data", str(plot))]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"counts", "prediction"}
    assert doc["prediction"]["target"] == 3
    lines = plot.read_text().splitlines()
    assert lines[0] == "series,team,level,kind,value"
    series = {line.split(",")[0] for line in lines[1:]}
    assert series == {"count", "predicted", "actual"}


def update_line(ordinal, actor, op, pid, polarity="positive"):
    return json.dumps({
        "type": "update", "ordinal": ordinal, "team": 1, "level": 1,
        "t": float(ordinal), "actor": actor, "op": op,
        "proposition": {"id": pid, "polarity": polarity},
    })


@pytest.fixture
def order_files(tmp_path):
    """A two-role scenario and streams for team 1 level 1: ``opens`` holds
    a@1 asserting p and b@5 denying it (a contradiction opened at 5);
    ``closes`` retracts a's p at 3, ``quiet`` asserts q at 3 (opens and
    closes nothing)."""
    scenario = {
        "schema_version": 1, "roles": ["a", "b"],
        "levels": [{"level": 1, "duration_seconds": 60.0}],
        "ground_truth": {"1": {"facts": {}, "coverage": ["p", "q"]}},
        "targets": [],
    }
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    streams = {
        "opens": [update_line(1, "a", "assert", "p"),
                  update_line(5, "b", "assert", "p", "negative")],
        "closes": [update_line(3, "a", "retract", "p")],
        "quiet": [update_line(3, "a", "assert", "q")],
    }
    for name, lines in streams.items():
        (tmp_path / f"{name}.jsonl").write_text("\n".join(lines) + "\n")
    return tmp_path


@pytest.mark.parametrize("names", [
    ("opens", "closes"),   # the regression would close a record before it opened
    ("opens", "opens"),    # one file given twice
    ("opens", "quiet"),    # the regression touches no record
])
def test_stream_order_holds_across_event_files(order_files, names):
    events = [str(order_files / f"{name}.jsonl") for name in names]
    result = subprocess.run(
        [sys.executable, "-m", "smmtrack.cli", "analyze",
         "--scenario", str(order_files / "scenario.json"), "--events", *events],
        capture_output=True, text=True)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("OrdinalRegression: ")
    assert f"{events[1]}:1 (ordinal)" in result.stderr
    assert result.stdout == ""


def test_log_env_controls_stderr_only(corpus_dir):
    args = [sys.executable, "-m", "smmtrack.cli", "analyze",
            *corpus_args(corpus_dir, "--format", "csv")]
    quiet = subprocess.run(
        args, capture_output=True, text=True,
        env={**os.environ, "SMM_LOG": "error"})
    chatty = subprocess.run(
        args, capture_output=True, text=True,
        env={**os.environ, "SMM_LOG": "debug"})
    assert quiet.returncode == chatty.returncode == 0
    assert quiet.stderr == ""
    assert "analyzing" in chatty.stderr
    # diagnostics never leak into the data channel
    assert chatty.stdout == quiet.stdout
    assert csv_counts(chatty.stdout)
