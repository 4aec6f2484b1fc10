"""Command-line interface.

Subcommands wire ingestion, the discrepancy engine, episode counting, the
predictor, and scoring into file-in/file-out pipelines:

* ``analyze``   per-team, per-level discrepancy counts
* ``predict``   weighted-sum forecasts for a target level
* ``score``     target-identification scorecards
* ``generate``  synthetic corpus with a planted-discrepancy ledger
* ``report``    analyze + predict in one document

Output is deterministic for identical inputs and flags: rows order by team,
then level, then kind name alphabetically.  Exit codes: 0 success, 1
validation error, 2 I/O error.  The ``SMM_LOG`` environment variable
(error, warn, info, debug) controls diagnostics on standard error only.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Iterable, Sequence

from .beliefs import LevelId, TeamId, UpdateEvent
from .discrepancies import replay
from .episodes import KIND_ORDER, TOTAL, EpisodeCounts, build_history, count_level
from .errors import MissingLevel, SchemeMismatch, SmmError
from .ingest import Confirmation, Record, Scenario, load_events, load_scenario
from .prediction import (
    REPORT_KINDS,
    PredictionReport,
    WeightScheme,
    batch_report,
    kind_label,
    uniform_weights,
)
from .scoring import ConfirmationLog, ScoreCard, TargetScore, TargetSpec, score
from .synth import GenConfig, generate, write_corpus

log = logging.getLogger("smmtrack")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _configure_logging() -> None:
    name = os.environ.get("SMM_LOG", "warn").strip().lower()
    level = _LOG_LEVELS.get(name, logging.WARNING)
    logging.basicConfig(
        stream=sys.stderr,
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
    )


# --- pipeline glue -----------------------------------------------------------

def analyze_records(scenario: Scenario, records: Sequence[Record]) -> list[EpisodeCounts]:
    """Count discrepancy episodes for every observed team at every declared
    level (absent combinations count zero)."""
    updates = [r for r in records if isinstance(r, UpdateEvent)]
    grouped: dict[tuple[TeamId, LevelId], list[UpdateEvent]] = {}
    for event in updates:
        grouped.setdefault((event.team, event.level), []).append(event)
    teams = sorted({event.team for event in updates})
    log.info("analyzing %d update events across %d teams", len(updates), len(teams))

    all_counts: list[EpisodeCounts] = []
    for team in teams:
        for level in scenario.level_ids():
            events = grouped.get((team, level), [])
            state = replay(
                team, level, scenario.roles, scenario.ground_truth[level], events
            )
            counts = count_level(state.all_records(), team, level)
            log.debug(
                "team %d level %d: %d events, %d discrepancies",
                team, level, len(events), counts.total,
            )
            all_counts.append(counts)
    return all_counts


def score_records(scenario: Scenario, records: Sequence[Record]) -> list[ScoreCard]:
    """Score every team observed in the records; teams without
    confirmations score zero."""
    if not scenario.targets:
        raise SmmError("scenario declares no targets to score")
    confirmed: dict[TeamId, set[str]] = {}
    for record in records:
        confirmed.setdefault(record.team, set())
        if isinstance(record, Confirmation):
            confirmed[record.team].add(record.element_id)
    cards = []
    for team in sorted(confirmed):
        log_entry = ConfirmationLog(team=team, confirmed=frozenset(confirmed[team]))
        cards.append(score(scenario.targets, log_entry))
    return cards


def parse_weight_spec(spec: str, predictor_levels: Iterable[LevelId]) -> WeightScheme:
    """``uniform`` or an explicit ``level:weight`` list like ``1:0.5,2:0.5``."""
    text = spec.strip()
    if text == "uniform":
        return uniform_weights(predictor_levels)
    weights: dict[LevelId, float] = {}
    for part in text.split(","):
        level_text, _, weight_text = part.partition(":")
        try:
            level = int(level_text)
            weight = float(weight_text)
        except ValueError:
            raise SchemeMismatch(
                f"cannot parse weight spec part {part.strip()!r} "
                "(expected level:weight)"
            ) from None
        if level in weights:
            raise SchemeMismatch(f"level {level} given twice in weight spec")
        weights[level] = weight
    return WeightScheme(weights)


def _resolve_target(scenario: Scenario, target: int | None) -> LevelId:
    declared = scenario.level_ids()
    if target is None:
        return max(declared)
    if target not in declared:
        raise MissingLevel(f"target level {target} not declared by the scenario")
    return target


def _predict_from_counts(
    scenario: Scenario,
    all_counts: Sequence[EpisodeCounts],
    target: int | None,
    weight_spec: str,
) -> PredictionReport:
    resolved = _resolve_target(scenario, target)
    histories = build_history(list(all_counts))
    if not histories:
        raise MissingLevel("no teams observed; nothing to predict")
    predictor_levels = set(scenario.level_ids()) - {resolved}
    scheme = parse_weight_spec(weight_spec, predictor_levels)
    return batch_report(histories, resolved, scheme)


# --- rendering ---------------------------------------------------------------

def _table(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Aligned columns with a dashed rule under the header."""
    cells = [list(header), *([str(cell) for cell in row] for row in rows)]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


class Output:
    """A result as a header plus rows; ``getattr(output, fmt)()`` renders it
    as ``csv`` (cells written with ``str``, so floats read as in JSON),
    ``json`` or ``table``.  Subclasses override a format where theirs
    differs from the plain rows."""

    header: Sequence[str]
    rows: list[list]

    def csv(self) -> str:
        return "".join(",".join(map(str, row)) + "\n" for row in [self.header, *self.rows])

    def doc(self) -> object:
        return [dict(zip(self.header, row)) for row in self.rows]

    def json(self) -> str:
        return json.dumps(self.doc(), indent=2) + "\n"

    def table(self) -> str:
        return _table(self.header, self.rows)


class CountsOutput(Output):
    """One row per (team, level), ordered by team then level."""

    header = ("team", "level", *(kind.value for kind in KIND_ORDER), TOTAL)

    def __init__(self, all_counts: Sequence[EpisodeCounts]) -> None:
        self.rows = [
            [c.team, c.level, *(c.get(kind) for kind in KIND_ORDER), c.total]
            for c in sorted(all_counts, key=lambda c: (c.team, c.level))
        ]


class PredictionOutput(Output):
    """One row per team and kind in report order, then the aggregates and
    the caveat."""

    header = ("team", "kind", "predicted", "actual", "error")

    def __init__(self, report: PredictionReport) -> None:
        self.report = report
        self.rows = [[p.team, kind_label(p.kind), p.predicted, p.actual, p.error]
                     for p in report.predictions]

    def csv(self) -> str:
        return super().csv() + f"# {self.report.caveat}\n"

    def doc(self) -> dict:
        report, r = self.report, self.report.pearson
        aggregate = {"mae_by_kind": dict(report.mae_by_kind),
                     "pearson": None if r is None else {"r": r.r, "p": r.p_value, "n": r.n}}
        if report.pearson_note is not None:
            aggregate["pearson_note"] = report.pearson_note
        predictions = [{**row, "abs_error": p.abs_error}
                       for row, p in zip(super().doc(), report.predictions)]
        return {"target": report.target, "predictions": predictions,
                "aggregate": aggregate, "caveat": report.caveat}

    def table(self) -> str:
        report, r = self.report, self.report.pearson
        rows = [[team, kind, f"{predicted:.3f}", actual, f"{error:+.3f}"]
                for team, kind, predicted, actual, error in self.rows]
        mae = "  ".join(f"{k}={v:.3f}" for k, v in sorted(report.mae_by_kind.items()))
        pearson = report.pearson_note if r is None else f"r={r.r:.4f} p={r.p_value:.4g} n={r.n}"
        return (_table(self.header, rows) + f"MAE by kind: {mae}\n"
                f"Pearson on totals: {pearson}\n{report.caveat}\n")


class ScorecardOutput(Output):
    """One row per team and target (by id), then the team's ``total`` row;
    the table shows targets (in declaration order) by teams."""

    header = ("team", "target", "difficulty", "earned", "max", "percent")

    def __init__(self, targets: Sequence[TargetSpec], cards: Sequence[ScoreCard]) -> None:
        self.targets, self.cards = targets, sorted(cards, key=lambda c: c.team)
        self.difficulty = {spec.id: spec.difficulty.value for spec in targets}
        self.rows = [
            [card["team"], *target.values()]
            for card in self.doc()
            for target in [*card["targets"], {"id": TOTAL, "difficulty": "", **card["total"]}]
        ]

    def doc(self) -> list[dict]:
        def points(ts: TargetScore) -> dict:
            return {"earned": ts.earned, "max": ts.max_points, "percent": ts.percent}

        return [{"team": card.team,
                 "targets": [{"id": tid, "difficulty": self.difficulty[tid], **points(ts)}
                             for tid, ts in sorted(card.per_target.items())],
                 "total": points(card.total)} for card in self.cards]

    def table(self) -> str:
        rows = [[f"{spec.id} ({spec.difficulty.value}, {spec.max_points})",
                 *(card.per_target[spec.id].cell() for card in self.cards)]
                for spec in self.targets]
        rows.append([f"Total ({sum(spec.max_points for spec in self.targets)})",
                     *(card.total.cell() for card in self.cards)])
        return _table(["Target (Difficulty, Points)", *(f"Team {c.team}" for c in self.cards)],
                      rows)


class ReportOutput(Output):
    """Counts, then the prediction: one JSON document, or the two outputs
    separated by a blank line."""

    def __init__(self, counts: CountsOutput, prediction: PredictionOutput) -> None:
        self.parts = {"counts": counts, "prediction": prediction}

    def csv(self) -> str:
        return "\n".join(part.csv() for part in self.parts.values())

    def doc(self) -> dict:
        return {name: part.doc() for name, part in self.parts.items()}

    def table(self) -> str:
        return "\n".join(part.table() for part in self.parts.values())


class PlotOutput(Output):
    """Long-format series for external plotting tools."""

    header = ("series", "team", "level", "kind", "value")

    def __init__(self, all_counts: Sequence[EpisodeCounts], report: PredictionReport) -> None:
        self.rows = [["count", c.team, c.level, kind_label(kind), c.get(kind)]
                     for c in sorted(all_counts, key=lambda c: (c.team, c.level))
                     for kind in REPORT_KINDS]
        for p in report.predictions:
            for series, value in (("predicted", p.predicted), ("actual", p.actual)):
                self.rows.append([series, p.team, report.target, kind_label(p.kind), value])


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


# --- subcommands -------------------------------------------------------------

def _load_inputs(args: argparse.Namespace) -> tuple[Scenario, list[Record]]:
    scenario = load_scenario(args.scenario)
    records: list[Record] = []
    last_ordinal: dict[tuple[TeamId, LevelId], int] = {}
    for path in args.events:
        records.extend(load_events(path, scenario, last_ordinal=last_ordinal))
    log.info(
        "loaded scenario %s (%d roles, %d levels) and %d records",
        args.scenario, len(scenario.roles), len(scenario.levels), len(records),
    )
    return scenario, records


def _cmd_render(args: argparse.Namespace) -> int:
    """Load the inputs, build the subcommand's output, write it in ``--format``."""
    scenario, records = _load_inputs(args)
    output = args.build(args, scenario, records)
    _emit(getattr(output, args.format)(), args.output)
    return 0


def _analyze(args: argparse.Namespace, scenario: Scenario, records: list[Record]) -> Output:
    return CountsOutput(analyze_records(scenario, records))


def _predict(args: argparse.Namespace, scenario: Scenario, records: list[Record]) -> Output:
    all_counts = analyze_records(scenario, records)
    return PredictionOutput(
        _predict_from_counts(scenario, all_counts, args.target, args.weights))


def _score(args: argparse.Namespace, scenario: Scenario, records: list[Record]) -> Output:
    return ScorecardOutput(scenario.targets, score_records(scenario, records))


def _report(args: argparse.Namespace, scenario: Scenario, records: list[Record]) -> Output:
    all_counts = analyze_records(scenario, records)
    report = _predict_from_counts(scenario, all_counts, args.target, args.weights)
    if args.plot_data is not None:
        _emit(PlotOutput(all_counts, report).csv(), args.plot_data)
    return ReportOutput(CountsOutput(all_counts), PredictionOutput(report))


def _cmd_generate(args: argparse.Namespace) -> int:
    config = GenConfig(
        teams=args.teams,
        levels=args.levels,
        seed=args.seed,
        team_baseline_spread=args.spread,
        noise=args.noise,
    )
    corpus = generate(config)
    paths = write_corpus(corpus, args.out_dir)
    log.info("generated %d plantings", len(corpus.ledger.planted))
    sys.stdout.write("\n".join(paths) + "\n")
    return 0


# --- argument parsing --------------------------------------------------------

def _add_io_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument(
        "--events", required=True, nargs="+", metavar="PATH",
        help="one or more JSONL event streams",
    )
    parser.add_argument(
        "--format", choices=("csv", "json", "table"), default="table",
        help="output format (default: table)",
    )
    parser.add_argument("--output", help="write to this path instead of stdout")


def _add_predict_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--target", type=int, default=None,
        help="level to predict (default: the last declared level)",
    )
    parser.add_argument(
        "--weights", default="uniform",
        help='"uniform" or an explicit list like "1:0.5,2:0.3,3:0.2"',
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smmtrack",
        description="Track belief discrepancies in team dialogue streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="count discrepancies per team and level")
    _add_io_arguments(analyze)
    analyze.set_defaults(func=_cmd_render, build=_analyze)

    predict = sub.add_parser(
        "predict", help="forecast a target level from the other levels")
    _add_io_arguments(predict)
    _add_predict_arguments(predict)
    predict.set_defaults(func=_cmd_render, build=_predict)

    score_p = sub.add_parser(
        "score", help="score target-identification confirmations")
    _add_io_arguments(score_p)
    score_p.set_defaults(func=_cmd_render, build=_score)

    generate_p = sub.add_parser(
        "generate", help="write a synthetic corpus with a planted ledger")
    generate_p.add_argument("--out-dir", required=True, help="output directory")
    generate_p.add_argument("--seed", type=int, default=0)
    generate_p.add_argument("--teams", type=int, default=20)
    generate_p.add_argument("--levels", type=int, default=4)
    generate_p.add_argument(
        "--spread", type=float, default=0.35,
        help="cross-team baseline variation (default: 0.35)",
    )
    generate_p.add_argument(
        "--noise", type=float, default=0.3,
        help="level-to-level jitter (default: 0.3)",
    )
    generate_p.set_defaults(func=_cmd_generate)

    report = sub.add_parser(
        "report", help="combined counts + prediction document")
    _add_io_arguments(report)
    _add_predict_arguments(report)
    report.add_argument(
        "--plot-data", metavar="PATH",
        help="also write a long-format CSV (series,team,level,kind,value)",
    )
    report.set_defaults(func=_cmd_render, build=_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SmmError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
