"""Byte-for-byte CLI output against committed golden files.

Every subcommand that renders a result (analyze, predict, report, score) is
run in every ``--format`` on fixed inputs, and ``report --plot-data`` is
checked alongside.  The inputs are the README corpus (``generate --seed 3
--teams 8``), a two-team corpus whose forecast takes the ``correlation
unavailable`` path, and the bundled scorecard fixture.  The golden files
live in ``tests/golden`` and are never rewritten by the suite.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from smmtrack import cli, fixture_path
from smmtrack.cli import main
from test_cli import THRESHOLDS, main_on_both_paths

GOLDEN = Path(__file__).parent / "golden"

CORPORA = {
    "readme": ["--seed", "3", "--teams", "8"],
    "two_teams": ["--seed", "3", "--teams", "2"],
}
FORMATS = {"csv": "csv", "json": "json", "table": "txt"}


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    roots = {}
    for name, flags in CORPORA.items():
        root = tmp_path_factory.mktemp(name)
        assert main(["generate", "--out-dir", str(root), *flags]) == 0
        roots[name] = root
    return roots


def corpus_inputs(root):
    events = sorted(str(p) for p in root.glob("events_t*.jsonl"))
    return ["--scenario", str(root / "scenario.json"), "--events", *events]


def score_inputs():
    return ["--scenario", fixture_path("scenario_dyad.json"), "--events",
            fixture_path("confirmations_team08.jsonl"),
            fixture_path("confirmations_team16.jsonl")]


def expect(name):
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", ["analyze", "predict", "report"])
@pytest.mark.parametrize("corpus", CORPORA)
def test_corpus_output_is_golden(corpora, corpus, command, fmt, capsys, monkeypatch):
    code, out, _ = main_on_both_paths(
        [command, *corpus_inputs(corpora[corpus]), "--format", fmt], capsys, monkeypatch)
    assert code == 0
    assert out == expect(f"{corpus}_{command}.{FORMATS[fmt]}")


@pytest.mark.parametrize("corpus", CORPORA)
def test_plot_data_is_golden(corpora, corpus, tmp_path, monkeypatch):
    plot = tmp_path / "plot.csv"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for threshold in THRESHOLDS:
        monkeypatch.setattr(cli, "PARALLEL_MIN_BYTES", threshold, raising=False)
        assert main(["report", *corpus_inputs(corpora[corpus]), "--format", "json",
                     "--output", str(tmp_path / "report.json"), "--plot-data", str(plot)]) == 0
        assert plot.read_text(encoding="utf-8") == expect(f"{corpus}_plot.csv")
        assert (tmp_path / "report.json").read_text(encoding="utf-8") == \
            expect(f"{corpus}_report.json")


@pytest.mark.parametrize("fmt", FORMATS)
def test_score_output_is_golden(fmt, capsys):
    assert main(["score", *score_inputs(), "--format", fmt]) == 0
    assert capsys.readouterr().out == expect(f"dyad_score.{FORMATS[fmt]}")
