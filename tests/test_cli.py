"""End-to-end command-line behavior: pipelines, formats, exit codes."""

from __future__ import annotations

import concurrent.futures
import csv
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading

import pytest

from smmtrack import cli, fixture_path
from smmtrack.cli import main
from smmtrack.episodes import KIND_ORDER
from smmtrack.synth import load_ledger
from test_prediction import exact_r

CSV_HEADER = "team,level,contradiction,omission,unsupported,false,total"


# a size threshold that keeps every read in this process, then one that sends
# every read of two or more regular --events files to worker processes, with
# two CPUs usable
THRESHOLDS = (math.inf, 0)


def main_on_both_paths(argv, capsys, monkeypatch):
    """``main(argv)``'s exit code, output and error text, which must be the
    same at either threshold."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    results = []
    for threshold in THRESHOLDS:
        monkeypatch.setattr(cli, "PARALLEL_MIN_BYTES", threshold, raising=False)
        results.append((main(argv), *capsys.readouterr()))
    assert results[0] == results[1], argv
    return results[0]


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


def test_generate_into_a_larger_corpus_exits_1_and_keeps_it(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["generate", "--out-dir", str(out), "--teams", "3", "--levels", "2",
                 "--seed", "1"]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()
    assert main(["generate", "--out-dir", str(out), "--teams", "2", "--levels", "2",
                 "--seed", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"InvalidConfig: {out} holds events_t03.jsonl")
    assert "Traceback" not in captured.err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


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


def test_undecodable_stream_exits_1_without_traceback(corpus_dir, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"\n\xff\n")
    result = subprocess.run(
        [sys.executable, "-m", "smmtrack.cli", "analyze",
         "--scenario", str(corpus_dir / "scenario.json"), "--events", str(bad)],
        capture_output=True, text=True)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"ParseError: {bad}:2:1: ")


def test_non_json_constant_in_scenario_exits_1_with_location(corpus_dir, tmp_path):
    text = (corpus_dir / "scenario.json").read_text()
    bad = tmp_path / "scenario.json"
    bad.write_text(text.replace('"duration_seconds": 480.0', '"duration_seconds": Infinity', 1))
    line = text[:text.index('"duration_seconds"')].count("\n") + 1
    result = subprocess.run(
        [sys.executable, "-m", "smmtrack.cli", "analyze", "--scenario", str(bad),
         "--events", *sorted(str(p) for p in corpus_dir.glob("events_t*.jsonl"))],
        capture_output=True, text=True)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"ParseError: {bad}:{line}:")
    assert "Infinity" in result.stderr


def test_repeated_key_in_scenario_exits_1_naming_it(corpus_dir, tmp_path, capsys):
    text = (corpus_dir / "scenario.json").read_text()
    bad = tmp_path / "scenario.json"
    bad.write_text(text.replace('"roles": ', '"roles": ["a", "b"], "roles": ', 1))
    events = sorted(str(p) for p in corpus_dir.glob("events_t*.jsonl"))
    assert main(["analyze", "--scenario", str(bad), "--events", *events]) == 1
    # the second "roles" on line 3, after '  "roles": ["a", "b"], '
    assert capsys.readouterr().err.startswith(
        f"ParseError: {bad}:3:24 (roles): key 'roles' given twice in one object")


def test_one_role_scenario_exits_1_naming_roles(corpus_dir, tmp_path):
    # an engine compares two agents' models; one role used to escape as a
    # ValueError traceback from the engine
    doc = json.loads((corpus_dir / "scenario.json").read_text())
    doc["roles"] = ["photographer"]
    for gt in doc["ground_truth"].values():
        gt["expected_knowledge"].pop("spotter", None)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    events = tmp_path / "events.jsonl"
    events.write_text(json.dumps({
        "type": "update", "ordinal": 1, "team": 1, "level": 1, "t": 1.0,
        "actor": "photographer", "op": "assert",
        "proposition": {"id": "x", "polarity": "positive"}}) + "\n")
    result = subprocess.run(
        [sys.executable, "-m", "smmtrack.cli", "analyze", "--scenario", str(scenario),
         "--events", str(events)],
        capture_output=True, text=True)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"ParseError: {scenario}")
    assert "roles" in result.stderr


def test_start_up_imports_neither_scipy_nor_numpy():
    # the CLI pays for every import on every call; scipy alone took over 1 s
    result = subprocess.run(
        [sys.executable, "-c", "import smmtrack, smmtrack.cli, sys; "
         "print(sorted({'scipy', 'numpy'} & {m.split('.')[0] for m in sys.modules}))"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


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


def test_predict_forecasts_from_earlier_levels_only(corpus_dir, capsys):
    # the forecast reads history: for level 2 that is level 1 alone, so
    # both the uniform and the explicit scheme predict level 1's counts
    assert main(["analyze", *corpus_args(corpus_dir, "--format", "csv")]) == 0
    expected = {}
    for (team, level), row in csv_counts(capsys.readouterr().out).items():
        if level == 1:
            expected.update({(team, kind): count for kind, count in row.items()})
            expected[team, "total"] = sum(row.values())
    for weights in ("uniform", "1:1"):
        assert main(["predict", *corpus_args(
            corpus_dir, "--target", "2", "--weights", weights, "--format", "json")]) == 0
        rows = json.loads(capsys.readouterr().out)["predictions"]
        assert {(row["team"], row["kind"]): row["predicted"] for row in rows} == expected


@pytest.mark.parametrize("weights", ["uniform", "1:1"])
def test_predict_first_level_has_no_predictors(corpus_dir, capsys, weights):
    code = main(["predict", *corpus_args(corpus_dir, "--target", "1", "--weights", weights)])
    assert code == 1
    assert capsys.readouterr().err.startswith("EmptyPredictorSet: ")


@pytest.mark.parametrize("weights", ["1:nan,2:0.5,3:0.5", "1:inf,2:-inf,3:1",
                                     "1:1e308,2:-1e308,3:1"])
def test_predict_rejects_non_finite_forecasts(tmp_path, capsys, weights):
    # these used to print "predicted": NaN, which is not JSON; the last
    # scheme sums to 1 but overflows once it weighs counts above one
    assert main(["generate", "--out-dir", str(tmp_path), "--seed", "3",
                 "--teams", "8"]) == 0
    capsys.readouterr()
    code = main(["predict", *corpus_args(tmp_path, "--weights", weights, "--format", "json")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("SchemeMismatch: ")


def test_predict_correlation_survives_squares_past_the_float_range(tmp_path, capsys):
    # weights of 1e200 square past the float range; r is the same as for
    # 1e150, and as from exact arithmetic over the printed totals
    assert main(["generate", "--out-dir", str(tmp_path), "--seed", "3",
                 "--teams", "8"]) == 0
    capsys.readouterr()
    for weights in ("1:1e200,2:-1e200,3:1", "1:1e150,2:-1e150,3:1"):
        assert main(["predict", *corpus_args(
            tmp_path, "--weights", weights, "--format", "json")]) == 0
        doc = json.loads(capsys.readouterr().out)
        totals = [(row["predicted"], row["actual"])
                  for row in doc["predictions"] if row["kind"] == "total"]
        exact = exact_r(*zip(*totals))
        assert abs(doc["aggregate"]["pearson"]["r"] - exact) <= 1e-9
        assert round(exact, 5) == 0.36141


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


def test_score_csv_quotes_ids_with_commas(tmp_path, capsys):
    with open(fixture_path("scenario_dyad.json"), encoding="utf-8") as handle:
        scenario = json.load(handle)
    scenario["targets"][0]["id"] = "target,1"
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    code = main(["score", "--scenario", str(tmp_path / "scenario.json"),
                 "--events", fixture_path("confirmations_team08.jsonl"),
                 fixture_path("confirmations_team16.jsonl"), "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 9
    assert all(len(row) == 6 for row in rows)
    assert rows[1][:2] == ["8", "target,1"]


def test_score_without_targets_fails(corpus_dir):
    # generated scenarios declare no targets: the error names the scenario
    result = subprocess.run(
        [sys.executable, "-m", "smmtrack.cli", "score", *corpus_args(corpus_dir)],
        capture_output=True, text=True)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr == (f"ParseError: {corpus_dir / 'scenario.json'} (targets): "
                             "scenario declares no targets to score\n")


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


ORDER_CASES = [
    ("opens", "closes"),   # the regression would close a record before it opened
    ("opens", "opens"),    # one file given twice
    ("opens", "quiet"),    # the regression touches no record
]


@pytest.mark.parametrize("names", ORDER_CASES)
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


def test_engine_error_names_path_and_line_in_input_order(order_files):
    retract = order_files / "retract.jsonl"
    retract.write_text(update_line(1, "a", "assert", "p") + "\n"
                       + update_line(2, "b", "retract", "nope") + "\n")
    broken = order_files / "broken.jsonl"
    broken.write_text("{oops\n")
    result = subprocess.run(
        [sys.executable, "-m", "smmtrack.cli", "analyze", "--scenario",
         str(order_files / "scenario.json"), "--events", str(retract), str(broken)],
        capture_output=True, text=True)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr == (f"RetractMissing: {retract}:2: "
                             "cannot retract absent proposition 'nope'\n")


@pytest.mark.parametrize("names", ORDER_CASES)
def test_stream_order_holds_across_event_files_on_both_paths(
        order_files, names, capsys, monkeypatch):
    events = [str(order_files / f"{name}.jsonl") for name in names]
    code, out, err = main_on_both_paths(
        ["analyze", "--scenario", str(order_files / "scenario.json"), "--events", *events],
        capsys, monkeypatch)
    assert code == 1
    assert err.startswith("OrdinalRegression: ")
    assert f"{events[1]}:1 (ordinal)" in err
    assert out == ""


def test_engine_error_names_path_and_line_in_input_order_on_both_paths(
        order_files, capsys, monkeypatch):
    retract = order_files / "retract.jsonl"
    retract.write_text(update_line(1, "a", "assert", "p") + "\n"
                       + update_line(2, "b", "retract", "nope") + "\n")
    broken = order_files / "broken.jsonl"
    broken.write_text("{oops\n")
    code, _, err = main_on_both_paths(
        ["analyze", "--scenario", str(order_files / "scenario.json"),
         "--events", str(retract), str(broken)], capsys, monkeypatch)
    assert code == 1
    assert err == f"RetractMissing: {retract}:2: cannot retract absent proposition 'nope'\n"


def test_bad_line_is_reported_before_a_later_missing_file(order_files, capsys, monkeypatch):
    # files open as they are reached, so the missing one is never opened
    bad = order_files / "bad.jsonl"
    bad.write_text(update_line(1, "a", "assert", "p") + "\n{oops\n")
    code, _, err = main_on_both_paths(
        ["analyze", "--scenario", str(order_files / "scenario.json"),
         "--events", str(bad), "/nonexistent.jsonl"], capsys, monkeypatch)
    assert code == 1
    assert err.startswith(f"ParseError: {bad}:2")
    assert "i/o error" not in err


def test_workers_merge_the_serial_counts_and_end_with_the_command(
        corpus_dir, monkeypatch, capsys):
    assert main(["analyze", *corpus_args(corpus_dir, "--format", "csv")]) == 0
    serial = capsys.readouterr().out
    monkeypatch.setattr(cli, "PARALLEL_MIN_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    forked, replays = [], []
    fork, replay = os.fork, cli._replay_in_workers

    def fork_spy():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def replay_spy(*args):
        replays.append(replay(*args))
        return replays[-1]

    monkeypatch.setattr(os, "fork", fork_spy)
    monkeypatch.setattr(cli, "_replay_in_workers", replay_spy)
    assert main(["analyze", *corpus_args(corpus_dir, "--format", "csv")]) == 0
    assert capsys.readouterr().out == serial
    # three files: three workers of four CPUs, all gone, and the merge, not a rerun
    assert len(forked) == 3
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(replays) == 1 and replays[0] is not None


@pytest.mark.parametrize("failure", ["exits", "raises", "no pool"])
def test_a_failed_worker_read_rereads_in_this_process(
        order_files, monkeypatch, capsys, failure):
    # the worker of one file ends without a result, killed say, or raises what
    # is not an input error, while the other sends more than a pipe holds; or
    # no pool starts at all
    many = order_files / "many.jsonl"
    many.write_text("".join(
        json.dumps({"type": "update", "ordinal": 1, "team": team, "level": 1, "t": 1.0,
                    "actor": "a", "op": "assert",
                    "proposition": {"id": "p", "polarity": "positive"}}) + "\n"
        for team in range(2, 2002)))
    opens = str(order_files / "opens.jsonl")
    argv = ["analyze", "--scenario", str(order_files / "scenario.json"),
            "--events", opens, str(many), "--format", "csv"]
    assert main(argv) == 0
    serial = capsys.readouterr().out
    parent, read_events, replay = os.getpid(), cli.read_events, cli._replay_in_workers
    replays = []

    def failing_read(paths, scenario):
        if os.getpid() != parent and paths == [opens]:
            if failure == "exits":
                os._exit(1)
            raise RuntimeError("not an input error")
        return read_events(paths, scenario)

    def replay_spy(*args):
        replays.append(replay(*args))
        return replays[-1]

    monkeypatch.setattr(cli, "PARALLEL_MIN_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cli, "read_events", failing_read)
    monkeypatch.setattr(cli, "_replay_in_workers", replay_spy)
    if failure == "no pool":
        def no_pool(*args):
            raise OSError("no semaphores")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert main(argv) == 0
    assert capsys.readouterr().out == serial
    assert replays == [None]
    assert multiprocessing.active_children() == []


def test_worker_read_needs_no_standard_output(corpus_dir, tmp_path, monkeypatch):
    # as when started with file descriptor 1 closed
    monkeypatch.setattr(cli, "PARALLEL_MIN_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sys, "stdout", None)
    out = tmp_path / "out.csv"
    assert main(["analyze", *corpus_args(corpus_dir, "--format", "csv", "--output", str(out))]) == 0
    assert out.read_text(encoding="utf-8").startswith(CSV_HEADER)


@pytest.mark.parametrize("case", ["one usable CPU", "a corpus below the threshold",
                                  "another thread running"])
def test_no_worker_is_forked(corpus_dir, monkeypatch, capsys, case):
    forked = []

    def no_fork():
        # a failed worker read would be read again here, so record the attempt
        forked.append(case)
        raise OSError("no fork")

    if case != "a corpus below the threshold":
        monkeypatch.setattr(cli, "PARALLEL_MIN_BYTES", 0)
    cpus = {0} if case == "one usable CPU" else {0, 1}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if case == "another thread running":
        thread.start()
    try:
        assert main(["analyze", *corpus_args(corpus_dir, "--format", "csv")]) == 0
    finally:
        release.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert capsys.readouterr().out.startswith(CSV_HEADER)
    assert forked == []


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
