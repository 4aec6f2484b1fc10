"""Weighted-sum prediction and correlation, checked against hand oracles.

The p-value oracle integrates the Student-t density numerically instead of
calling the same closed-form survival function the implementation uses.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from scipy.integrate import quad

from smmtrack.cli import PredictionOutput
from smmtrack.discrepancies import DiscrepancyKind
from smmtrack.episodes import TOTAL, EpisodeCounts, TeamHistory
from smmtrack.errors import (
    DegenerateVariance,
    EmptyPredictorSet,
    InsufficientSamples,
    LengthMismatch,
    SchemeMismatch,
    UnknownTarget,
)
from smmtrack.prediction import (
    AUTOCORRELATION_CAVEAT,
    WeightScheme,
    batch_report,
    pearson,
    predict,
    uniform_weights,
)

K = DiscrepancyKind


def history(team, per_level):
    """per_level: list of dicts kind -> count, level 1 first."""
    episodes = tuple(
        EpisodeCounts.of(team, level, by_kind)
        for level, by_kind in enumerate(per_level, start=1)
    )
    return TeamHistory(team=team, episodes=episodes)


def totals_history(team, totals):
    return history(team, [{K.CONTRADICTION: t} for t in totals])


# --- weight schemes ----------------------------------------------------------

def test_uniform_weights_are_exact():
    scheme = uniform_weights({1, 2, 3})
    assert all(w == Fraction(1, 3) for w in scheme.weights.values())
    assert sum(scheme.weights.values()) == 1
    assert scheme.levels() == frozenset({1, 2, 3})


def test_uniform_singleton_and_empty():
    assert uniform_weights({5}).weights[5] == 1
    with pytest.raises(EmptyPredictorSet):
        uniform_weights(set())


def test_uniform_leave_one_out_shape():
    scheme = uniform_weights({1, 3, 4})
    assert scheme.levels() == frozenset({1, 3, 4})
    assert all(w == Fraction(1, 3) for w in scheme.weights.values())


def test_scheme_sum_constraint():
    WeightScheme({1: 0.5, 2: 0.3, 3: 0.2})
    WeightScheme({1: 1.5, 2: -0.5})  # negative weights are legitimate
    with pytest.raises(SchemeMismatch):
        WeightScheme({1: 0.5, 2: 0.6})
    with pytest.raises(SchemeMismatch):
        WeightScheme({})


# --- predict -----------------------------------------------------------------

def test_uniform_prediction_is_exact_mean():
    h = totals_history(1, [10, 20, 30, 20])
    p = predict(h, 4, uniform_weights({1, 2, 3}), TOTAL)
    assert p.predicted == 20.0
    assert p.actual == 20
    assert p.error == 0.0 and p.abs_error == 0.0


def test_explicit_scheme_dot_product():
    h = totals_history(1, [10, 20, 30, 99])
    p = predict(h, 4, WeightScheme({1: 0.5, 2: 0.3, 3: 0.2}), TOTAL)
    # 0.5*10 + 0.3*20 + 0.2*30 = 17 by hand
    assert abs(p.predicted - 17.0) <= 1e-9


def test_all_zero_history_predicts_zero():
    h = totals_history(1, [0, 0, 0, 0])
    p = predict(h, 4, uniform_weights({1, 2, 3}), TOTAL)
    assert p.predicted == 0.0


def test_scheme_must_cover_exactly_the_predictors():
    h = totals_history(1, [1, 2, 3, 4])
    with pytest.raises(SchemeMismatch):
        predict(h, 4, uniform_weights({1, 2}), TOTAL)
    with pytest.raises(SchemeMismatch):
        predict(h, 4, uniform_weights({1, 2, 3, 4}), TOTAL)
    with pytest.raises(UnknownTarget):
        predict(h, 9, uniform_weights({1, 2, 3}), TOTAL)


def test_target_count_never_influences_prediction():
    base = totals_history(1, [10, 20, 30, 20])
    perturbed = totals_history(1, [10, 20, 30, 999])
    scheme = uniform_weights({1, 2, 3})
    a = predict(base, 4, scheme, TOTAL)
    b = predict(perturbed, 4, scheme, TOTAL)
    assert a.predicted == b.predicted
    assert a.error != b.error


def test_predict_is_linear_in_counts():
    rng = random.Random(3)
    for _ in range(30):
        counts = [rng.randint(0, 40) for _ in range(3)]
        scale = rng.randint(2, 5)
        h1 = totals_history(1, counts + [0])
        h2 = totals_history(1, [c * scale for c in counts] + [0])
        scheme = uniform_weights({1, 2, 3})
        p1 = predict(h1, 4, scheme, TOTAL)
        p2 = predict(h2, 4, scheme, TOTAL)
        assert abs(p2.predicted - scale * p1.predicted) <= 1e-9


def test_total_prediction_equals_sum_of_kinds():
    rng = random.Random(11)
    for _ in range(30):
        per_level = [
            {k: rng.randint(0, 9) for k in K} for _ in range(4)
        ]
        h = history(1, per_level)
        for scheme in (uniform_weights({1, 2, 3}),
                       WeightScheme({1: 0.5, 2: 0.3, 3: 0.2})):
            total = predict(h, 4, scheme, TOTAL).predicted
            parts = sum(predict(h, 4, scheme, k).predicted for k in K)
            assert abs(total - parts) <= 1e-9


# --- pearson -----------------------------------------------------------------

def t_density(x: float, df: int) -> float:
    c = math.gamma((df + 1) / 2) / (math.gamma(df / 2) * math.sqrt(df * math.pi))
    return c * (1 + x * x / df) ** (-(df + 1) / 2)


def p_value_oracle(r: float, n: int) -> float:
    t = abs(r) * math.sqrt((n - 2) / (1 - r * r))
    tail, _ = quad(lambda x: t_density(x, n - 2), t, math.inf)
    return 2 * tail


def test_perfect_correlations():
    assert pearson([1, 2, 3], [1, 2, 3]).r == 1.0
    assert pearson([1, 2, 3], [1, 2, 3]).p_value == 0.0
    assert pearson([1, 2, 3], [3, 2, 1]).r == -1.0


def test_hand_computed_example():
    # x=[1,2,3,4], y=[2,1,4,3]: deviations (-1.5,-.5,.5,1.5) and
    # (-.5,-1.5,1.5,.5); cross sum 3.0, each square sum 5.0; r = 3/5
    result = pearson([1, 2, 3, 4], [2, 1, 4, 3])
    assert abs(result.r - 0.6) <= 1e-9
    assert result.n == 4


def test_p_value_matches_numerical_integration():
    cases = [
        ([1, 2, 3, 4], [2, 1, 4, 3]),
        ([1, 2, 3, 4, 5, 6], [2, 1, 4, 3, 7, 5]),
        ([3, 1, 4, 1, 5, 9, 2, 6], [2, 7, 1, 8, 2, 8, 1, 8]),
        ([1, 4, 2, 8, 5, 7], [10, 3, 6, 1, 9, 4]),
    ]
    for x, y in cases:
        result = pearson(x, y)
        expected = p_value_oracle(result.r, result.n)
        assert abs(result.p_value - expected) <= 1e-9, (x, y)
        assert 0.0 <= result.p_value <= 1.0


def test_pearson_input_validation():
    with pytest.raises(LengthMismatch):
        pearson([1, 2, 3], [1, 2])
    with pytest.raises(InsufficientSamples):
        pearson([1, 2], [3, 4])
    with pytest.raises(DegenerateVariance):
        pearson([5, 5, 5], [1, 2, 3])
    with pytest.raises(DegenerateVariance):
        pearson([1, 2, 3], [7, 7, 7])


def test_pearson_symmetry_and_affine_invariance():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(3, 12)
        x = [rng.uniform(-5, 5) for _ in range(n)]
        y = [rng.uniform(-5, 5) for _ in range(n)]
        try:
            forward = pearson(x, y)
        except DegenerateVariance:
            continue
        assert abs(forward.r - pearson(y, x).r) <= 1e-12
        a, b = rng.uniform(0.5, 3.0), rng.uniform(-4, 4)
        scaled = pearson([a * v + b for v in x], y)
        assert abs(forward.r - scaled.r) <= 1e-9


# --- batch_report ------------------------------------------------------------

def test_batch_report_rows_and_order():
    histories = [
        totals_history(2, [4, 4, 4, 4]),
        totals_history(1, [1, 2, 3, 4]),
    ]
    report = batch_report(histories, 4, uniform_weights({1, 2, 3}))
    teams = [p.team for p in report.predictions]
    assert teams == sorted(teams)
    labels = [p.kind if isinstance(p.kind, str) else p.kind.value
              for p in report.predictions[:5]]
    assert labels == ["contradiction", "false", "omission", "total",
                      "unsupported"]
    assert report.caveat == AUTOCORRELATION_CAVEAT


def test_batch_report_mae():
    histories = [
        totals_history(1, [0, 0, 0, 3]),    # predicted 0, actual 3
        totals_history(2, [6, 6, 6, 6]),    # predicted 6, actual 6
    ]
    report = batch_report(histories, 4, uniform_weights({1, 2, 3}))
    assert report.mae_by_kind["contradiction"] == pytest.approx(1.5)
    assert report.mae_by_kind["total"] == pytest.approx(1.5)
    assert report.mae_by_kind["omission"] == 0.0


def test_batch_report_correlation_note_on_degenerate_input():
    single = [totals_history(1, [1, 2, 3, 4])]
    report = batch_report(single, 4, uniform_weights({1, 2, 3}))
    assert report.pearson is None
    assert report.pearson_note is not None
    constant = [totals_history(t, [5, 5, 5, 5]) for t in (1, 2, 3)]
    report = batch_report(constant, 4, uniform_weights({1, 2, 3}))
    assert report.pearson is None
    assert "correlation unavailable" in report.pearson_note


def test_report_serializations_carry_rows_and_caveat():
    histories = [totals_history(1, [10, 20, 30, 20])]
    report = batch_report(histories, 4, uniform_weights({1, 2, 3}))
    output = PredictionOutput(report)
    csv_text = output.csv()
    lines = csv_text.splitlines()
    assert lines[0] == "team,kind,predicted,actual,error"
    assert lines[1] == "1,contradiction,20.0,20,0.0"
    assert len(lines) == 7
    assert lines[6] == f"# {AUTOCORRELATION_CAVEAT}"
    json_text = output.json()
    assert '"caveat"' in json_text
    assert '"mae_by_kind"' in json_text
