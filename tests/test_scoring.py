"""Target-identification scoring and its table rendering."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from smmtrack.cli import ScorecardOutput
from smmtrack.scoring import (
    Difficulty,
    TargetSpec,
    percent_of,
    score,
)


def dyad_targets():
    return (
        TargetSpec("target_1", Difficulty.HARD,
                   (("t1_e1", 2), ("t1_e2", 2), ("t1_e3", 2)), 6),
        TargetSpec("target_2", Difficulty.EASY,
                   (("t2_e1", 2), ("t2_e2", 1), ("t2_e3", 3)), 6),
        TargetSpec("target_3", Difficulty.EASY,
                   (("t3_e1", 4), ("t3_e2", 1), ("t3_e3", 2)), 7),
    )


def test_percent_rounds_half_up():
    assert percent_of(1, 6) == 16.7
    assert percent_of(5, 7) == 71.4
    assert percent_of(4, 7) == 57.1
    assert percent_of(8, 19) == 42.1
    assert percent_of(5, 19) == 26.3
    assert percent_of(0, 19) == 0.0
    assert percent_of(3, 8) == 37.5
    # 13/80 is exactly 16.25%: half-up gives 16.3 where banker's would 16.2
    assert percent_of(13, 80) == 16.3
    for maximum in range(1, 201):
        for earned in range(maximum + 1):
            tenths = math.floor(Fraction(1000 * earned, maximum) + Fraction(1, 2))
            assert percent_of(earned, maximum) == float(Fraction(tenths, 10)), (earned, maximum)


def test_score_per_target_and_totals():
    card = score(dyad_targets(), 8, frozenset({"t2_e1", "t2_e2", "t3_e1", "t3_e2"}))
    assert card.per_target["target_1"].earned == 0
    assert card.per_target["target_2"].earned == 3
    assert card.per_target["target_3"].earned == 5
    assert card.total.earned == 8
    assert card.total.max_points == 19
    assert card.total.percent == 42.1
    assert card.total.cell() == "8 (42.1%)"


def test_empty_log_scores_zero():
    card = score(dyad_targets(), 3, frozenset())
    assert card.total.earned == 0
    assert card.total.cell() == "0 (0.0%)"


def test_full_confirmation_reaches_max_everywhere():
    targets = dyad_targets()
    everything = frozenset(
        eid for spec in targets for eid in spec.element_ids())
    card = score(targets, 1, everything)
    for spec in targets:
        assert card.per_target[spec.id].earned == spec.max_points
    assert card.total.earned == card.total.max_points == 19
    assert card.total.percent == 100.0


def test_adding_confirmations_is_monotone():
    targets = dyad_targets()
    pool = sorted(eid for spec in targets for eid in spec.element_ids())
    for seed in range(20):
        rng = random.Random(seed)
        rng.shuffle(pool)
        confirmed: set[str] = set()
        previous = score(targets, 1, frozenset())
        for eid in pool:
            confirmed.add(eid)
            card = score(targets, 1, frozenset(confirmed))
            assert card.total.earned >= previous.total.earned
            for tid in card.per_target:
                assert card.per_target[tid].earned >= \
                    previous.per_target[tid].earned
            previous = card


def test_render_table_layout():
    targets = dyad_targets()
    cards = [
        score(targets, 8, frozenset({"t2_e1", "t2_e2", "t3_e1", "t3_e2"})),
        score(targets, 16, frozenset({"t2_e2", "t3_e1"})),
    ]
    text = ScorecardOutput(targets, cards).table()
    lines = text.splitlines()
    assert lines[0].split() == [
        "Target", "(Difficulty,", "Points)", "Team", "8", "Team", "16"]
    assert "target_1 (hard, 6)" in lines[2]
    assert "0 (0.0%)" in lines[2]
    assert "3 (50.0%)" in lines[3] and "1 (16.7%)" in lines[3]
    assert "5 (71.4%)" in lines[4] and "4 (57.1%)" in lines[4]
    assert "Total (19)" in lines[5]
    assert "8 (42.1%)" in lines[5] and "5 (26.3%)" in lines[5]


def test_csv_rows():
    targets = dyad_targets()
    cards = [score(targets, 16, frozenset({"t2_e2", "t3_e1"}))]
    text = ScorecardOutput(targets, cards).csv()
    lines = text.splitlines()
    assert lines[0] == "team,target,difficulty,earned,max,percent"
    assert lines[1] == "16,target_1,hard,0,6,0.0"
    assert lines[2] == "16,target_2,easy,1,6,16.7"
    assert lines[3] == "16,target_3,easy,4,7,57.1"
    assert lines[4] == "16,total,,5,19,26.3"
