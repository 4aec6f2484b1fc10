"""Episode counting, history assembly, and CSV layout."""

from __future__ import annotations

import pytest

from smmtrack.beliefs import EventOp, GroundTruth, Polarity, Proposition, UpdateEvent
from smmtrack.cli import CountsOutput
from smmtrack.discrepancies import DiscrepancyKind, replay
from smmtrack.episodes import (
    KIND_ORDER,
    TOTAL,
    EpisodeCounts,
    TeamHistory,
    build_history,
    count_level,
)
from smmtrack.errors import DuplicateEpisode, MissingLevel, MixedTeamOrLevel

K = DiscrepancyKind


def counts(team, level, contradiction=0, omission=0, unsupported=0, false=0):
    return EpisodeCounts.of(team, level, {
        K.CONTRADICTION: contradiction,
        K.OMISSION: omission,
        K.UNSUPPORTED: unsupported,
        K.FALSE: false,
    })


def test_of_zero_fills_and_totals():
    c = counts(1, 1, contradiction=2, false=1)
    assert c.total == 3
    assert c.get(K.OMISSION) == 0
    assert c.get(K.CONTRADICTION) == 2
    assert c.get(TOTAL) == 3
    assert c.get("false") == 1


def test_total_must_match_sum():
    with pytest.raises(ValueError):
        EpisodeCounts(team=1, level=1,
                      by_kind={k: 1 for k in KIND_ORDER}, total=5)
    with pytest.raises(ValueError):
        EpisodeCounts.of(1, 1, {K.CONTRADICTION: -1})


def ev(ordinal, actor, pid, polarity=Polarity.POSITIVE, team=1, level=1):
    return UpdateEvent(
        ordinal=ordinal, team=team, level=level, t=float(ordinal),
        actor=actor, op=EventOp.ASSERT,
        proposition=Proposition(pid, polarity),
    )


def test_count_level_counts_opens_not_net_state():
    """A contradiction that gets resolved mid-level still counts, and a
    reopened one counts again."""
    gt = GroundTruth.build({}, {"x"}, {"a": set(), "b": set()})
    events = [
        ev(1, "a", "x"),
        ev(2, "b", "x", Polarity.NEGATIVE),   # opens
        ev(3, "b", "x"),                      # closes
        ev(4, "b", "x", Polarity.NEGATIVE),   # reopens
        ev(5, "b", "x"),                      # closes again
    ]
    state = replay(1, 1, ("a", "b"), gt, events)
    tally = count_level(state.all_records(), 1, 1)
    assert tally.get(K.CONTRADICTION) == 2
    assert tally.total == 2


def test_count_level_rejects_foreign_records():
    gt = GroundTruth.empty(("a", "b"))
    state = replay(1, 1, ("a", "b"), gt,
                   [ev(1, "a", "x"), ev(2, "b", "x", Polarity.NEGATIVE)])
    with pytest.raises(MixedTeamOrLevel):
        count_level(state.all_records(), 2, 1)
    with pytest.raises(MixedTeamOrLevel):
        count_level(state.all_records(), 1, 3)


def test_count_level_empty_is_all_zero():
    tally = count_level([], 4, 2)
    assert tally.total == 0
    assert tally.team == 4 and tally.level == 2


def test_build_history_groups_and_sorts():
    vectors = [
        counts(2, 2, omission=1),
        counts(1, 1, contradiction=1),
        counts(2, 1),
        counts(1, 2),
    ]
    histories = build_history(vectors)
    assert [h.team for h in histories] == [1, 2]
    assert histories[0].levels() == [1, 2]
    assert histories[1].episode(2).get(K.OMISSION) == 1
    with pytest.raises(KeyError):
        histories[0].episode(9)


def test_build_history_rejects_duplicates_and_gaps():
    with pytest.raises(DuplicateEpisode):
        build_history([counts(1, 1), counts(1, 1)])
    with pytest.raises(MissingLevel):
        build_history([counts(1, 1), counts(1, 3)])


def test_csv_layout_and_ordering():
    vectors = [
        counts(2, 1, omission=3),
        counts(1, 2, contradiction=1, false=1),
        counts(1, 1, unsupported=2),
    ]
    text = CountsOutput(vectors).csv()
    csv_header = ",".join(CountsOutput.header)
    assert text.splitlines() == [
        csv_header,
        "1,1,0,0,2,0,2",
        "1,2,1,0,0,1,2",
        "2,1,0,3,0,0,3",
    ]
    assert csv_header == "team,level,contradiction,omission,unsupported,false,total"


def test_histories_are_value_like():
    h = TeamHistory(team=1, episodes=(counts(1, 1), counts(1, 2)))
    assert h == TeamHistory(team=1, episodes=(counts(1, 1), counts(1, 2)))
