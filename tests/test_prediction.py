"""Weighted-sum prediction and correlation, checked against hand oracles.

The p-value is checked against the closed forms of the Student-t tail for
one and two degrees of freedom and, where scipy is installed, against a
numerical integral of the density and scipy's own survival function.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

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
    _student_t_two_sided,
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


def p_value_oracle(r: float, n: int, quad) -> float:
    t = abs(r) * math.sqrt((n - 2) / (1 - r * r))
    tail, _ = quad(lambda x: t_density(x, n - 2), t, math.inf)
    return 2 * tail


T_GRID = [10 ** (k / 8) for k in range(-24, 14)] + [50.0, 1e3, 1e6]


def relative_error(got: float, want: float) -> float:
    return abs(got - want) / want


def test_one_degree_of_freedom_is_cauchy():
    # p = 1 - (2/pi) atan|t|, written as (2/pi) atan(1/|t|) to keep its digits
    for t in T_GRID:
        for signed in (t, -t):
            expected = 2 / math.pi * math.atan(1 / t)
            assert relative_error(_student_t_two_sided(signed, 1), expected) <= 1e-13, t


def test_two_degrees_of_freedom_closed_form():
    # p = 1 - |t|/sqrt(2+t^2), written as 2/(s(s+|t|)) with s = sqrt(2+t^2)
    for t in T_GRID:
        s = math.sqrt(2 + t * t)
        for signed in (t, -t):
            expected = 2 / (s * (s + t))
            assert relative_error(_student_t_two_sided(signed, 2), expected) <= 1e-13, t


def test_zero_correlation_has_p_one():
    # deviations (-1, 0, 1) and (-2/3, 4/3, -2/3): the cross sum is exactly 0
    result = pearson([1, 2, 3], [1, 3, 1])
    assert result.r == 0.0
    assert result.p_value == 1.0


def test_p_value_matches_scipy_survival_function():
    stats = pytest.importorskip("scipy.stats")
    rng = random.Random(29)
    for _ in range(2000):
        df = rng.randint(1, 1000)
        t = 10 ** rng.uniform(-3, math.log10(50))
        expected = 2 * float(stats.t.sf(t, df))
        assert relative_error(_student_t_two_sided(t, df), expected) <= 1e-10, (t, df)


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
    quad = pytest.importorskip("scipy.integrate").quad
    cases = [
        ([1, 2, 3, 4], [2, 1, 4, 3]),
        ([1, 2, 3, 4, 5, 6], [2, 1, 4, 3, 7, 5]),
        ([3, 1, 4, 1, 5, 9, 2, 6], [2, 7, 1, 8, 2, 8, 1, 8]),
        ([1, 4, 2, 8, 5, 7], [10, 3, 6, 1, 9, 4]),
    ]
    for x, y in cases:
        result = pearson(x, y)
        expected = p_value_oracle(result.r, result.n, quad)
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pearson_rejects_non_finite_input(bad):
    # the clamp of r to [-1, 1] once read a NaN r as a perfect correlation
    with pytest.raises(ValueError, match=r"^predicted\[0\] is (nan|inf|-inf)"):
        pearson([bad, 1, 2], [1, 2, 3])
    with pytest.raises(ValueError, match=r"^actual\[2\] is (nan|inf|-inf)"):
        pearson([1, 2, 3], [1, 2, bad])


def exact_r(x, y):
    """Pearson r from exact rational arithmetic, rounded once at the end."""
    x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
    mean_x, mean_y = sum(x) / len(x), sum(y) / len(y)
    sxy = sum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
    sxx = sum((a - mean_x) ** 2 for a in x)
    syy = sum((b - mean_y) ** 2 for b in y)
    return math.copysign(math.sqrt(sxy * sxy / (sxx * syy)), sxy)


@pytest.mark.parametrize("x, y", [
    # a sum of squares overflows
    ([1e200, -2e200, 3e200], [1, 3, 2]),
    # each sum of squares is finite, their product overflows
    ([1e100, 2e100, 4e100], [1e100, 3e100, 2e100]),
    # their product underflows to zero
    ([1e-160, 2e-160, 4e-160], [1e-160, 3e-160, 2e-160]),
    # the squares underflow to zero
    ([1e-170, 2e-170, 4e-170], [1, 3, 2]),
    # the sum of the inputs overflows
    ([1.5e308, 1e308, -1e308, 1.7e308], [1, 2, 3, 4]),
    # each sum of squares is normal, their product is subnormal
    ([1e-100, 2e-100, 4e-100], [1e-60, 3e-60, 2e-60]),
])
def test_pearson_is_exact_where_squares_leave_the_float_range(x, y):
    # statistics.correlation reads 0.0 on the first case, so the reference
    # is exact arithmetic
    assert abs(pearson(x, y).r - exact_r(x, y)) <= 1e-12
    assert abs(pearson(y, x).r - exact_r(x, y)) <= 1e-12


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
