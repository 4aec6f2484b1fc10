"""Weighted-sum forecasting of episode discrepancy counts.

A target level's count is predicted as a weighted sum of the counts at every
earlier level, with the weights constrained to sum to one.  The default scheme
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
# measure, not as proof of mechanistic predictive signal.  Every rendered
# report prints this caveat.
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
        total = _sum(self.weights.values())
        # a NaN or infinite weight makes the sum NaN or infinite, and NaN
        # fails every comparison: test that the sum is close, not that it is far
        if not math.fabs(total - 1.0) <= WEIGHT_SUM_TOL:
            raise SchemeMismatch(f"weights sum to {total!r}, expected 1")

    def levels(self) -> frozenset[LevelId]:
        return frozenset(self.weights)


def predictor_levels(levels: Iterable[LevelId], target: LevelId) -> frozenset[LevelId]:
    """The levels a forecast of ``target`` weighs: every level below it, so
    that a forecast reads history only.

    Raises:
        EmptyPredictorSet: no level lies below ``target``.
    """
    below = frozenset(level for level in levels if level < target)
    if not below:
        raise EmptyPredictorSet(f"no level before target level {target} to forecast from")
    return below


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

    @property
    def error(self) -> float:
        return self.predicted - self.actual

    @property
    def abs_error(self) -> float:
        return abs(self.error)


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
    """Forecast ``kind`` at ``target`` as the weighted sum of the earlier
    levels' counts; the target's own count is read only as the actual.

    Raises:
        UnknownTarget: ``target`` is not in the history.
        EmptyPredictorSet: ``target`` has no earlier level.
        SchemeMismatch: the scheme does not weigh exactly the earlier
            levels, or the weighted sum is not a finite number.
    """
    levels = history.levels()
    if target not in levels:
        raise UnknownTarget(f"level {target} not in team {history.team} history")
    expected = predictor_levels(levels, target)
    if scheme.levels() != expected:
        raise SchemeMismatch(
            f"scheme covers levels {sorted(scheme.levels())}, "
            f"expected {sorted(expected)}"
        )
    predicted = _sum(w * history.episode(level).get(kind)
                     for level, w in scheme.weights.items())
    if not math.isfinite(predicted):  # finite weights can still overflow
        raise SchemeMismatch(
            f"weighted sum {predicted!r} for team {history.team} {kind_label(kind)} "
            "is not a finite number")
    return Prediction(
        team=history.team,
        target=target,
        kind=kind,
        predicted=predicted,
        actual=history.episode(target).get(kind),
    )


def _sum(values: Iterable[float | Fraction]) -> float:
    """The sum as a float, the same on every supported Python: exact over
    Fractions and ints (a uniform scheme), else correctly rounded as
    :func:`_centred` explains; NaN where fsum meets inf - inf or overflows."""
    values = list(values)
    try:
        if any(isinstance(v, float) for v in values):
            return math.fsum(values)
        return float(sum(values))
    except (ValueError, OverflowError):
        return math.nan


def pearson(predicted: Sequence[float], actual: Sequence[float]) -> CorrelationResult:
    """Sample Pearson r with two-tailed significance.

    The p-value tests r against zero via t = r * sqrt((n-2) / (1-r^2)) on a
    Student-t distribution with n-2 degrees of freedom.

    Raises:
        LengthMismatch: vectors differ in length.
        InsufficientSamples: fewer than three pairs.
        DegenerateVariance: either vector is constant.
        ValueError: a value is NaN or infinite.
    """
    if len(predicted) != len(actual):
        raise LengthMismatch(f"{len(predicted)} predictions vs {len(actual)} actuals")
    n = len(predicted)
    if n < 3:
        raise InsufficientSamples(f"need at least 3 pairs, got {n}")
    for name, values in (("predicted", predicted), ("actual", actual)):
        for index, value in enumerate(values):
            if not math.isfinite(value):
                raise ValueError(f"{name}[{index}] is {value!r}; r needs finite values")
    # r does not depend on scale; scaling each input by a power of two to
    # below 1 is exact, and keeps its sums and squares inside the float range
    dx, ss_x = _centred(_unit_scaled(predicted)[0])
    dy, ss_y = _centred(_unit_scaled(actual)[0])
    if ss_x == 0.0 or ss_y == 0.0:
        raise DegenerateVariance("zero variance leaves r undefined")
    r = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(ss_x * ss_y)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        p = 0.0
    else:
        t_stat = r * math.sqrt((n - 2) / (1.0 - r * r))
        p = _student_t_two_sided(t_stat, n - 2)
    return CorrelationResult(r=r, p_value=p, n=n)


def _centred(values: Sequence[float]) -> tuple[list[float], float]:
    # fsum, not sum: Python 3.12 made sum() of floats compensated, and a
    # correctly rounded sum gives the same bits on every supported version
    mean = math.fsum(values) / len(values)
    deviations = [v - mean for v in values]
    return deviations, math.fsum(d * d for d in deviations)


def _unit_scaled(values: Sequence[float]) -> tuple[list[float], int]:
    """``values`` scaled below 1 by a power of two, and its exponent."""
    exponent = math.frexp(max(abs(v) for v in values))[1]
    return [math.ldexp(v, -exponent) for v in values], exponent


def _mean(values: Sequence[float]) -> float:
    """The mean of finite ``values``, which no partial sum overflows at unit
    scale; the scaling is exact above the subnormal range, so wherever
    ``fsum(values) / len(values)`` is finite this gives its bits."""
    scaled, exponent = _unit_scaled(values)
    return math.ldexp(math.fsum(scaled) / len(values), exponent)


def _student_t_two_sided(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom.

    This is the regularised incomplete beta I_x(df/2, 1/2) at
    x = df/(df+t^2) (DLMF 8.17.2, A&S 26.7.1), from its continued fraction
    by the modified Lentz method (Numerical Recipes, 3rd ed., section 6.4).
    The fraction converges fast only below x = (a+1)/(a+b+2); above it the
    symmetry I_x(a, b) = 1 - I_{1-x}(b, a) applies, with 1-x taken as
    t^2/(df+t^2) so that a tiny 1-x keeps its digits.
    """
    a, b = df / 2.0, 0.5
    x, y = df / (df + t * t), t * t / (df + t * t)
    flipped = x > (a + 1.0) / (a + b + 2.0)
    if flipped:
        a, b, x, y = b, a, y, x
    tiny = 1e-300
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    fraction = d
    # below the switch point under 100 terms suffice for any df up to 1e10
    for m in range(1, 1000):
        for coefficient in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + coefficient * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + coefficient / c
            c = c if abs(c) > tiny else tiny
            fraction *= c * d
        if abs(c * d - 1.0) < math.ulp(1.0):
            break
    inverse_beta = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    tail = x ** a * y ** b * inverse_beta * fraction / a
    return 1.0 - tail if flipped else tail


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
        mae[kind_label(kind)] = _mean(errors) if errors else 0.0

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
