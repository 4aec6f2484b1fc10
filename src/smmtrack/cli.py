"""Command-line interface.

Subcommands wire ingestion, the discrepancy engine, episode counting, the
predictor, and scoring into file-in/file-out pipelines:

* ``analyze``   per-team, per-level discrepancy counts
* ``predict``   weighted-sum forecasts for a target level
* ``score``     target-identification scorecards
* ``generate``  synthetic corpus with a planted-discrepancy ledger
* ``report``    analyze + predict in one document

Output is deterministic for identical inputs and flags: rows order by team,
then level, then kind name alphabetically.  ``analyze``, ``predict`` and
``report`` read two or more regular ``--events`` files of at least
``PARALLEL_MIN_BYTES`` in all in forked worker processes, one per usable
CPU, with byte-identical output; any error, or a (team, level) found in two
files, re-reads them serially, so the error reported is the first in input
order.  Exit codes: 0 success, 1 validation error, 2 I/O error.  The
``SMM_LOG`` environment variable (error, warn, info, debug) controls
diagnostics on standard error only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import stat
import sys
from typing import Iterable, Sequence

from .beliefs import LevelId, TeamId, UpdateEvent
from .discrepancies import EngineState
from .episodes import KIND_ORDER, TOTAL, EpisodeCounts, build_history, count_level
from .errors import MissingLevel, ParseError, SchemeMismatch, SmmError
from .ingest import Confirmation, Record, Scenario, load_scenario, read_events
from .prediction import (
    AUTOCORRELATION_CAVEAT,
    REPORT_KINDS,
    PredictionReport,
    WeightScheme,
    batch_report,
    kind_label,
    predictor_levels,
    uniform_weights,
)
from .scoring import ScoreCard, TargetScore, TargetSpec, score
from .synth import GenConfig, generate, write_corpus

log = logging.getLogger("smmtrack")

# (path, line, record), as ingest.read_events yields them
Records = Iterable[tuple[str, int, Record]]
# counts per observed (team, level), and the number of update records
Replay = tuple[dict[tuple[TeamId, LevelId], EpisodeCounts], int]

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

def replay_records(scenario: Scenario, records: Records) -> Replay:
    """Step each update record, as it arrives, into the engine of its
    (team, level); return each engine's counts and the number of updates.
    An engine error keeps its class and gains the record's ``path:line``."""
    states: dict[tuple[TeamId, LevelId], EngineState] = {}
    updates = 0
    for path, line, record in records:
        if not isinstance(record, UpdateEvent):
            continue
        key = (record.team, record.level)
        state = states.get(key)
        if state is None:
            state = states[key] = EngineState.fresh(
                *key, scenario.roles, scenario.ground_truth[record.level])
        try:
            state.step(record)
        except SmmError as exc:
            exc.args = (f"{path}:{line}: {exc}",)
            raise
        updates += 1
    return {key: count_level(state.all_records(), *key) for key, state in states.items()}, updates


def fill_counts(scenario: Scenario, replay: Replay) -> list[EpisodeCounts]:
    """Every observed team at every declared level, by team then level;
    absent combinations count zero."""
    counts, updates = replay
    teams = sorted({team for team, _ in counts})
    log.info("analyzing %d update events across %d teams", updates, len(teams))
    all_counts: list[EpisodeCounts] = []
    for team in teams:
        for level in scenario.level_ids():
            level_counts = counts.get((team, level)) or count_level((), team, level)
            log.debug("team %d level %d: %d discrepancies", team, level, level_counts.total)
            all_counts.append(level_counts)
    return all_counts


def analyze_events(scenario: Scenario, paths: Sequence[str]) -> list[EpisodeCounts]:
    """:func:`fill_counts` of the replay of the files' records, read in
    worker processes where :func:`_worker_count` says so.  The counts, and
    the first error in input order, are those of one serial read."""
    workers = _worker_count(paths)
    replay = _replay_in_workers(scenario, paths, workers) if workers > 1 else None
    if replay is None:
        replay = replay_records(scenario, read_events(paths, scenario))
    return fill_counts(scenario, replay)


# Below this many bytes of --events files, this process reads them.  Read
# in process from a 500-team corpus (Python 3.11, 2 vCPUs), a pool of two
# workers lost 23-27 ms on 0.4 and 1.1 MB of its files and won 32-77 ms on
# 2.1 MB and 66-134 ms on 3.2 MB, and importing the pool costs 13-19 ms more
# in a new process.  A 20-team corpus (0.84 MB) stays here; a long level's
# three files (5.8 MB) and 500 teams (21 MB) go to workers.
PARALLEL_MIN_BYTES = 2_000_000


def _worker_count(paths: Sequence[str]) -> int:
    """Processes to read ``paths`` in: one per usable CPU, up to one per
    file, where there are two or more regular files of at least
    ``PARALLEL_MIN_BYTES`` in all and this process runs no other thread;
    else 1, this process.  A fork can copy a lock another thread holds; a
    FIFO cannot be read again by the serial rerun; and a file that cannot be
    probed is left for the serial read to report in its turn.  The threads
    are the OS's, as ``threading`` does not see those started in C, such as
    faulthandler's watchdog."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or len(paths) < 2:
        return 1
    try:
        if len(os.listdir("/proc/self/task")) > 1:
            return 1
        infos = [os.stat(path) for path in paths]
    except (OSError, ValueError):
        return 1
    if not all(stat.S_ISREG(info.st_mode) for info in infos) or \
            sum(info.st_size for info in infos) < PARALLEL_MIN_BYTES:
        return 1
    return min(len(os.sched_getaffinity(0)), len(paths))


def _replay_in_workers(scenario: Scenario, paths: Sequence[str], workers: int) -> Replay | None:
    """The files' replays from a pool of ``workers`` forked processes,
    merged; None where a file failed, a (team, level) is in two files, or
    the pool failed in any way, from not starting to a killed worker.  Disjoint
    streams replay as in one serial read, and their merge does not depend
    on its order."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    try:
        # forked, the workers share this process's scenario without a pickle
        pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                   _set_worker_scenario, (scenario,))
        try:
            results = list(pool.map(_replay_file, paths))
        finally:
            pool.shutdown(cancel_futures=True)
    except Exception:  # the serial rerun reports whatever the input causes
        log.debug("worker read failed; reading in this process", exc_info=True)
        return None
    merged: dict[tuple[TeamId, LevelId], EpisodeCounts] = {}
    updates = 0
    for result in results:
        if result is None or not merged.keys().isdisjoint(result[0]):
            return None
        merged.update(result[0])
        updates += result[1]
    return merged, updates


# in a worker, the scenario the pool started it with
_worker_scenario: Scenario | None = None


def _set_worker_scenario(scenario: Scenario) -> None:
    global _worker_scenario
    _worker_scenario = scenario


def _replay_file(path: str) -> Replay | None:
    """In a worker: the replay of one file, or None where it fails (the
    serial rerun reports its error; an ``IngestError`` may not survive a
    pickle)."""
    try:
        return replay_records(_worker_scenario, read_events([path], _worker_scenario))
    except (SmmError, OSError):
        return None


def score_records(scenario: Scenario, records: Records) -> list[ScoreCard]:
    """Score every team observed in the records; teams without
    confirmations score zero."""
    confirmed: dict[TeamId, set[str]] = {}
    for _, _, record in records:
        confirmed.setdefault(record.team, set())
        if isinstance(record, Confirmation):
            confirmed[record.team].add(record.element_id)
    return [score(scenario.targets, team, confirmed[team]) for team in sorted(confirmed)]


def parse_weight_spec(spec: str, levels: Iterable[LevelId]) -> WeightScheme:
    """``uniform`` over ``levels``, or a ``level:weight`` list like ``1:0.5,2:0.5``."""
    text = spec.strip()
    if text == "uniform":
        return uniform_weights(levels)
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
    scheme = parse_weight_spec(weight_spec, predictor_levels(scenario.level_ids(), resolved))
    return batch_report(histories, resolved, scheme)


# --- rendering ---------------------------------------------------------------

def _decimals(value: float, sign: str = "") -> str:
    """``value`` to three decimals, or from magnitude 1e16 on, where a double
    holds no fraction, in the short form CSV and JSON print."""
    return f"{value:{sign}.3f}" if abs(value) < 1e16 else f"{value:{sign}}"


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
    ``json`` or ``table``; CSV cells are quoted only where they need it.
    Subclasses override a format where theirs differs from the plain rows."""

    header: Sequence[str]
    rows: list[list]

    def csv(self) -> str:
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(
            map(str, row) for row in [self.header, *self.rows])
        return out.getvalue()

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
        return super().csv() + f"# {AUTOCORRELATION_CAVEAT}\n"

    def doc(self) -> dict:
        report, r = self.report, self.report.pearson
        aggregate = {"mae_by_kind": dict(report.mae_by_kind),
                     "pearson": None if r is None else {"r": r.r, "p": r.p_value, "n": r.n}}
        if report.pearson_note is not None:
            aggregate["pearson_note"] = report.pearson_note
        predictions = [{**row, "abs_error": p.abs_error}
                       for row, p in zip(super().doc(), report.predictions)]
        return {"target": report.target, "predictions": predictions,
                "aggregate": aggregate, "caveat": AUTOCORRELATION_CAVEAT}

    def table(self) -> str:
        report, r = self.report, self.report.pearson
        rows = [[team, kind, _decimals(predicted), actual, _decimals(error, "+")]
                for team, kind, predicted, actual, error in self.rows]
        mae = "  ".join(f"{k}={_decimals(v)}" for k, v in sorted(report.mae_by_kind.items()))
        pearson = report.pearson_note if r is None else f"r={r.r:.4f} p={r.p_value:.4g} n={r.n}"
        return (_table(self.header, rows) + f"MAE by kind: {mae}\n"
                f"Pearson on totals: {pearson}\n{AUTOCORRELATION_CAVEAT}\n")


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

def _cmd_render(args: argparse.Namespace) -> int:
    """Load the scenario, build the subcommand's output from it and the
    ``--events`` files, write it in ``--format``."""
    scenario = load_scenario(args.scenario)
    log.info("loaded scenario %s (%d roles, %d levels)",
             args.scenario, len(scenario.roles), len(scenario.durations))
    output = args.build(args, scenario)
    _emit(getattr(output, args.format)(), args.output)
    return 0


def _analyze(args: argparse.Namespace, scenario: Scenario) -> Output:
    return CountsOutput(analyze_events(scenario, args.events))


def _predict(args: argparse.Namespace, scenario: Scenario) -> Output:
    all_counts = analyze_events(scenario, args.events)
    return PredictionOutput(
        _predict_from_counts(scenario, all_counts, args.target, args.weights))


def _score(args: argparse.Namespace, scenario: Scenario) -> Output:
    if not scenario.targets:
        raise ParseError("scenario declares no targets to score",
                         path=args.scenario, key="targets")
    return ScorecardOutput(scenario.targets,
                           score_records(scenario, read_events(args.events, scenario)))


def _report(args: argparse.Namespace, scenario: Scenario) -> Output:
    all_counts = analyze_events(scenario, args.events)
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
        "predict", help="forecast a target level from the levels before it")
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
