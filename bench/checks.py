"""Output checks for the benchmark, computed apart from smmtrack.

Every expected value here comes from the generator ledger (``ledger.json``,
read with the standard ``json`` module) and from standard-library
arithmetic: ``fractions`` for the uniform forecast, ``statistics`` for
Pearson's r and a closed-form Student-t series for its p-value.  Nothing is
compared against a stored copy of earlier program output.

Each check returns a list of problem strings; an empty list means the output
is correct.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

KINDS = ("contradiction", "omission", "unsupported", "false")
TOTAL = "total"

# p-value tolerance: |p - p_ref| <= P_ABS_TOL + P_REL_TOL * p_ref.  The
# reference is 1 - A(t|df), so it carries an absolute rounding error of a
# few 1e-14 for df in the hundreds; the relative term covers moderate p.
P_ABS_TOL = 1e-12
P_REL_TOL = 1e-9
# MAE and r are sums of floats taken in another order than the program's.
FLOAT_REL_TOL = 1e-12
R_ABS_TOL = 1e-12


class Expected:
    """What a correct pipeline must produce, derived from one ledger."""

    def __init__(self, ledger_doc: dict) -> None:
        config = ledger_doc["generator"]["config"]
        self.teams = list(range(1, config["teams"] + 1))
        self.levels = list(range(1, config["levels"] + 1))
        self.target = self.levels[-1]
        self.predictors = self.levels[:-1]
        # (team, level) -> {(kind, proposition id): last ledger position}
        self.plantings: dict[tuple[int, int], dict[tuple[str, str], int]] = {
            (team, level): {} for team in self.teams for level in self.levels
        }
        self._tallies: dict[tuple[int, int, str], int] = {}
        for entry in ledger_doc["planted"]:
            team, level, kind = entry["team"], entry["level"], entry["kind"]
            stream = self.plantings[(team, level)]
            stream[(kind, entry["proposition_id"])] = max(entry["positions"])
            for label in (kind, TOTAL):
                self._tallies[(team, level, label)] = self._tallies.get((team, level, label), 0) + 1

    def count(self, team: int, level: int, kind: str) -> int:
        """Planted episodes of ``kind`` (or ``TOTAL``) in one (team, level)."""
        return self._tallies.get((team, level, kind), 0)

    def predicted(self, team: int, kind: str) -> Fraction:
        """Uniform forecast: the exact mean over the predictor levels."""
        total = sum(self.count(team, level, kind) for level in self.predictors)
        return Fraction(total, len(self.predictors))


def check_stream(
    expected: Expected,
    team: int,
    level: int,
    opened: list,
    final_open: list,
    batch: set,
) -> list[str]:
    """Check one replayed (team, level) stream.

    ``opened`` are the records ``EngineState.step`` reported as opened,
    ``final_open`` the records still open at the end, ``batch`` what
    ``detect_all`` finds on the final snapshots.
    """
    problems = []
    where = f"team {team} level {level}"
    plantings = expected.plantings[(team, level)]
    seen = {(r.kind.value, r.proposition_id) for r in opened}
    if len(seen) != len(opened) or seen != set(plantings):
        problems.append(
            f"{where}: opened {len(opened)} records on {len(seen)} ids, "
            f"ledger plants {len(plantings)}; "
            f"{len(seen - set(plantings))} unplanted, "
            f"{len(set(plantings) - seen)} missed"
        )
    for record in opened:
        position = plantings.get((record.kind.value, record.proposition_id))
        if position is not None and record.opened_at != position:
            problems.append(
                f"{where}: {record.kind.value} {record.proposition_id} opened at "
                f"{record.opened_at}, its planting ends at {position}"
            )
    open_keys = {_key(r) for r in final_open}
    batch_keys = {_key(r) for r in batch}
    if open_keys != batch_keys:
        problems.append(
            f"{where}: {len(open_keys)} open records, batch detectors find "
            f"{len(batch_keys)} ({len(open_keys ^ batch_keys)} differ)"
        )
    return problems


def _key(record) -> tuple:
    return (record.kind.value, record.proposition_id, record.holder, record.counterpart)


def check_report(expected: Expected, doc: dict, plot_csv: str) -> list[str]:
    """Check a ``report --format json`` document and its ``--plot-data`` CSV."""
    problems = []
    counts = {(row["team"], row["level"]): row for row in doc["counts"]}
    if set(counts) != set(expected.plantings) or len(doc["counts"]) != len(counts):
        problems.append(
            f"counts cover {len(doc['counts'])} (team, level) rows, "
            f"expected {len(expected.plantings)}"
        )
    for team, level in sorted(set(counts) & set(expected.plantings)):
        row = counts[(team, level)]
        for kind in (*KINDS, TOTAL):
            want = expected.count(team, level, kind)
            if row.get(kind) != want:
                problems.append(
                    f"team {team} level {level} {kind}: report {row.get(kind)}, ledger {want}"
                )

    prediction = doc["prediction"]
    if prediction["target"] != expected.target:
        problems.append(f"target {prediction['target']}, expected {expected.target}")
    problems += _check_predictions(expected, prediction["predictions"])
    problems += _check_aggregate(expected, prediction["aggregate"])
    problems += _check_plot_data(expected, doc, plot_csv)
    return problems


def _check_predictions(expected: Expected, rows: list[dict]) -> list[str]:
    problems = []
    labels = sorted((*KINDS, TOTAL))
    want_keys = [(team, kind) for team in expected.teams for kind in labels]
    got_keys = [(row["team"], row["kind"]) for row in rows]
    if got_keys != want_keys:
        return [f"prediction rows {len(got_keys)}, expected {len(want_keys)} in team, kind order"]
    for row in rows:
        team, kind = row["team"], row["kind"]
        predicted = float(expected.predicted(team, kind))
        actual = expected.count(team, expected.target, kind)
        error = predicted - actual
        got = (row["predicted"], row["actual"], row["error"], row["abs_error"])
        if got != (predicted, actual, error, abs(error)):
            problems.append(
                f"team {team} {kind}: report (predicted, actual, error, abs) {got}, "
                f"ledger {(predicted, actual, error, abs(error))}"
            )
    return problems


def _check_aggregate(expected: Expected, aggregate: dict) -> list[str]:
    problems = []
    for kind in (*KINDS, TOTAL):
        errors = [
            abs(expected.predicted(team, kind) - expected.count(team, expected.target, kind))
            for team in expected.teams
        ]
        mae = float(sum(errors) / len(errors))
        got = aggregate["mae_by_kind"].get(kind)
        if got is None or not math.isclose(got, mae, rel_tol=FLOAT_REL_TOL, abs_tol=1e-15):
            problems.append(f"MAE {kind}: report {got}, ledger {mae}")

    xs = [float(expected.predicted(team, TOTAL)) for team in expected.teams]
    ys = [float(expected.count(team, expected.target, TOTAL)) for team in expected.teams]
    defined = len(xs) >= 3 and len(set(xs)) > 1 and len(set(ys)) > 1
    got = aggregate["pearson"]
    if not defined:
        if got is not None or "pearson_note" not in aggregate:
            problems.append(f"pearson {got} where r is undefined")
        return problems
    if got is None:
        return problems + [f"pearson missing: {aggregate.get('pearson_note')}"]
    r = statistics.correlation(xs, ys)
    p = student_t_two_sided(_t_statistic(r, len(xs)), len(xs) - 2)
    if got["n"] != len(xs):
        problems.append(f"pearson n {got['n']}, expected {len(xs)}")
    if abs(got["r"] - r) > R_ABS_TOL:
        problems.append(f"pearson r {got['r']!r}, statistics.correlation {r!r}")
    if not 0.0 <= got["p"] <= 1.0 or abs(got["p"] - p) > P_ABS_TOL + P_REL_TOL * p:
        problems.append(f"pearson p {got['p']!r}, Student-t series {p!r}")
    return problems


def _check_plot_data(expected: Expected, doc: dict, plot_csv: str) -> list[str]:
    lines = plot_csv.splitlines()
    if not lines or lines[0] != "series,team,level,kind,value":
        return ["plot data: missing header"]
    want = []
    for row in sorted(doc["counts"], key=lambda row: (row["team"], row["level"])):
        for kind in sorted((*KINDS, TOTAL)):
            want.append(f"count,{row['team']},{row['level']},{kind},{row[kind]}")
    for row in doc["prediction"]["predictions"]:
        target, kind = expected.target, row["kind"]
        want.append(f"predicted,{row['team']},{target},{kind},{row['predicted']!r}")
        want.append(f"actual,{row['team']},{target},{kind},{row['actual']}")
    if lines[1:] != want:
        differ = sum(1 for a, b in zip(lines[1:], want) if a != b)
        return [f"plot data: {len(lines) - 1} rows, expected {len(want)}, {differ} differ"]
    return []


def _t_statistic(r: float, n: int) -> float:
    if abs(r) >= 1.0:
        return math.inf
    return r * math.sqrt((n - 2) / (1.0 - r * r))


def student_t_two_sided(t: float, df: int) -> float:
    """P(|T| > |t|) for Student's t with integer ``df`` degrees of freedom.

    Closed-form finite series, Abramowitz & Stegun 26.7.3 (odd df) and
    26.7.4 (even df), with theta = atan(|t| / sqrt(df)); the result is
    1 - A(t|df).
    """
    if df < 1:
        raise ValueError("df must be >= 1")
    theta = math.atan(abs(t) / math.sqrt(df)) if math.isfinite(t) else math.pi / 2
    sin, cos2 = math.sin(theta), math.cos(theta) ** 2
    if df % 2 == 0:
        term, series = 1.0, 1.0
        for k in range(1, df // 2):
            term *= cos2 * (2 * k - 1) / (2 * k)
            series += term
        a = sin * series
    else:
        series = 0.0
        if df > 1:
            term = math.cos(theta)
            series = term
            for k in range(1, (df - 1) // 2):
                term *= cos2 * (2 * k) / (2 * k + 1)
                series += term
        a = 2.0 / math.pi * (theta + sin * series)
    return min(1.0, max(0.0, 1.0 - a))
