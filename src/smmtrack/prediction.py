"""Weighted-sum forecasting of episode discrepancy counts.

A target level's count is predicted as a weighted sum of the counts at every
other level, with the weights constrained to sum to one.  The default scheme
is uniform weighting (each predictor level weighted 1/n), which makes the
prediction exactly the arithmetic mean of the prior counts; the scheme
interface also accepts arbitrary (even negative) weights so alternative
schemes can be plugged in without code changes, but no fitting procedure is
provided.

Predictions stay real-valued, never rounded: rounding would hide small
systematic bias in the error metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from scipy.stats import t as student_t

from .beliefs import LevelId, TeamId
from .discrepancies import DiscrepancyKind
from .episodes import KIND_ORDER, TOTAL, TeamHistory
from .errors import (
    DegenerateVariance,
    EmptyPredictorSet,
    InsufficientSamples,
    LengthMismatch,
    SchemeMismatch,
    UnknownTarget,
)

WEIGHT_SUM_TOL = 1e-9

# Cross-team correlation is computed on per-team totals; it shares each
# team's baseline rate with the actuals, so it must be read as a stability
# measure, not as proof of mechanistic predictive signal.  Reports carry
# this caveat unconditionally.
AUTOCORRELATION_CAVEAT = (
    "Caveat: target-level counts are likely autocorrelated with the "
    "predictor levels, so a high cross-team correlation can reflect stable "
    "team-specific baseline rates rather than genuine predictive signal."
)


def kind_label(kind: DiscrepancyKind | str) -> str:
    """Short stable label for a kind or the total pseudo-kind."""
    return kind.value if isinstance(kind, DiscrepancyKind) else str(kind)


# per-kind labels plus "total", in alphabetical label order (stable report order)
REPORT_KINDS: tuple[DiscrepancyKind | str, ...] = tuple(
    sorted([*KIND_ORDER, TOTAL], key=kind_label)
)


@dataclass(frozen=True)
class WeightScheme:
    """Weights over the predictor levels, summing to 1.

    Negative weights are allowed; the sum constraint is the only invariant.
    Uniform schemes store exact rationals so the uniform baseline equals the
    arithmetic mean exactly, not just approximately.
    """

    weights: Mapping[LevelId, float | Fraction]

    def __post_init__(self) -> None:
        total = float(sum(self.weights.values()))
        if math.fabs(total - 1.0) > WEIGHT_SUM_TOL:
            raise SchemeMismatch(f"weights sum to {total!r}, expected 1")

    def levels(self) -> frozenset[LevelId]:
        return frozenset(self.weights)


def uniform_weights(predictor_levels: Iterable[LevelId]) -> WeightScheme:
    """Uniform scheme: each predictor level weighted exactly 1/n."""
    levels = set(predictor_levels)
    if not levels:
        raise EmptyPredictorSet("no predictor levels")
    share = Fraction(1, len(levels))
    return WeightScheme({level: share for level in sorted(levels)})


@dataclass(frozen=True)
class Prediction:
    """One forecast: a team, a target level, and one kind (or the total)."""

    team: TeamId
    target: LevelId
    kind: DiscrepancyKind | str
    predicted: float
    actual: int
    error: float
    abs_error: float


@dataclass(frozen=True)
class CorrelationResult:
    """Sample Pearson correlation with a t-based two-tailed p-value."""

    r: float
    p_value: float
    n: int


def predict(
    history: TeamHistory,
    target: LevelId,
    scheme: WeightScheme,
    kind: DiscrepancyKind | str = TOTAL,
) -> Prediction:
    """Forecast ``kind`` at ``target`` as the weighted sum of the other
    levels' counts; the target's own count is read only as the actual."""
    levels = set(history.levels())
    if target not in levels:
        raise UnknownTarget(f"level {target} not in team {history.team} history")
    predictor_levels = levels - {target}
    if scheme.levels() != predictor_levels:
        raise SchemeMismatch(
            f"scheme covers levels {sorted(scheme.levels())}, "
            f"expected {sorted(predictor_levels)}"
        )
    predicted = float(
        sum(w * history.episode(level).get(kind) for level, w in scheme.weights.items())
    )
    actual = history.episode(target).get(kind)
    error = predicted - actual
    return Prediction(
        team=history.team,
        target=target,
        kind=kind,
        predicted=predicted,
        actual=actual,
        error=error,
        abs_error=abs(error),
    )


def pearson(predicted: Sequence[float], actual: Sequence[float]) -> CorrelationResult:
    """Sample Pearson r with two-tailed significance.

    The p-value tests r against zero via t = r * sqrt((n-2) / (1-r^2)) on a
    Student-t distribution with n-2 degrees of freedom.

    Raises:
        LengthMismatch: vectors differ in length.
        InsufficientSamples: fewer than three pairs.
        DegenerateVariance: either vector is constant.
    """
    if len(predicted) != len(actual):
        raise LengthMismatch(f"{len(predicted)} predictions vs {len(actual)} actuals")
    n = len(predicted)
    if n < 3:
        raise InsufficientSamples(f"need at least 3 pairs, got {n}")
    mean_x = sum(predicted) / n
    mean_y = sum(actual) / n
    dx = [x - mean_x for x in predicted]
    dy = [y - mean_y for y in actual]
    ss_x = sum(d * d for d in dx)
    ss_y = sum(d * d for d in dy)
    if ss_x == 0.0 or ss_y == 0.0:
        raise DegenerateVariance("zero variance leaves r undefined")
    r = sum(a * b for a, b in zip(dx, dy)) / math.sqrt(ss_x * ss_y)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        p = 0.0
    else:
        t_stat = r * math.sqrt((n - 2) / (1.0 - r * r))
        p = 2.0 * float(student_t.sf(abs(t_stat), n - 2))
    return CorrelationResult(r=r, p_value=p, n=n)


@dataclass(frozen=True)
class PredictionReport:
    """Per-team predictions for every kind plus aggregate error metrics.

    ``pearson`` is the cross-team correlation of predicted vs actual totals;
    it is absent (with ``pearson_note`` explaining why) when fewer than three
    teams are available or the totals are degenerate.
    """

    target: LevelId
    predictions: tuple[Prediction, ...]
    mae_by_kind: Mapping[str, float]
    pearson: CorrelationResult | None
    pearson_note: str | None
    caveat: str = AUTOCORRELATION_CAVEAT


def batch_report(
    histories: Sequence[TeamHistory],
    target: LevelId,
    scheme: WeightScheme,
) -> PredictionReport:
    """Predict every kind and the total for every team, then aggregate.

    Rows are ordered by team, then kind label; per-kind mean absolute errors
    average over teams.
    """
    predictions: list[Prediction] = []
    for history in sorted(histories, key=lambda h: h.team):
        for kind in REPORT_KINDS:
            predictions.append(predict(history, target, scheme, kind))

    mae: dict[str, float] = {}
    for kind in REPORT_KINDS:
        errors = [p.abs_error for p in predictions if p.kind == kind]
        mae[kind_label(kind)] = sum(errors) / len(errors) if errors else 0.0

    totals = [p for p in predictions if p.kind == TOTAL]
    correlation = None
    note = None
    try:
        correlation = pearson(
            [p.predicted for p in totals], [float(p.actual) for p in totals]
        )
    except (InsufficientSamples, DegenerateVariance) as exc:
        note = f"correlation unavailable: {exc}"

    return PredictionReport(
        target=target,
        predictions=tuple(predictions),
        mae_by_kind=mae,
        pearson=correlation,
        pearson_note=note,
    )
