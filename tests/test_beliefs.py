"""Mental-model update semantics, as ``EngineState.step`` applies them, and
ground-truth invariants."""

from __future__ import annotations

import random

import pytest

from smmtrack.beliefs import (
    Attitude,
    Entry,
    EventOp,
    GroundTruth,
    Polarity,
    UpdateEvent,
)
from smmtrack.discrepancies import EngineState
from smmtrack.errors import RetractMissing, StaleEvent


def ev(ordinal, actor, op, pid, polarity=Polarity.POSITIVE,
       attitude=Attitude.BELIEF):
    return UpdateEvent(
        ordinal=ordinal, team=1, level=1, t=float(ordinal), actor=actor,
        op=op, proposition_id=pid, polarity=polarity, attitude=attitude,
    )


def engine():
    """A two-agent engine for the events ``ev`` builds, with no ground truth."""
    return EngineState.fresh(1, 1, ("a", "b"), GroundTruth.empty(("a", "b")))


def test_polarity_flip_is_involutive():
    assert Polarity.POSITIVE.flipped() is Polarity.NEGATIVE
    assert Polarity.NEGATIVE.flipped() is Polarity.POSITIVE


def test_assert_adds_entry_and_advances_clock():
    state = engine()
    model = state.models["a"]
    state.step(ev(3, "a", EventOp.ASSERT, "route_clear"))
    assert model.clock == 3
    entry = model.entries["route_clear"]
    assert entry == Entry(Polarity.POSITIVE, Attitude.BELIEF, 3)


def test_identical_reassert_keeps_since_but_advances_clock():
    state = engine()
    model = state.models["a"]
    state.step(ev(1, "a", EventOp.ASSERT, "route_clear"))
    state.step(ev(5, "a", EventOp.ASSERT, "route_clear"))
    assert model.clock == 5
    assert model.entries["route_clear"].since == 1


def test_opposite_assert_overwrites():
    state = engine()
    model = state.models["a"]
    state.step(ev(1, "a", EventOp.ASSERT, "route_clear"))
    state.step(ev(2, "a", EventOp.ASSERT, "route_clear", Polarity.NEGATIVE))
    entry = model.entries["route_clear"]
    assert entry.polarity is Polarity.NEGATIVE
    assert entry.since == 2
    assert len(model.entries) == 1


def test_attitude_change_overwrites():
    state = engine()
    model = state.models["a"]
    state.step(ev(1, "a", EventOp.ASSERT, "reach_tower", attitude=Attitude.BELIEF))
    state.step(ev(2, "a", EventOp.ASSERT, "reach_tower", attitude=Attitude.GOAL))
    entry = model.entries["reach_tower"]
    assert entry.attitude is Attitude.GOAL
    assert entry.since == 2


def test_retract_removes_and_missing_retract_raises():
    state = engine()
    model = state.models["a"]
    state.step(ev(1, "a", EventOp.ASSERT, "route_clear"))
    state.step(ev(2, "a", EventOp.RETRACT, "route_clear"))
    assert "route_clear" not in model.entries
    with pytest.raises(RetractMissing):
        state.step(ev(3, "a", EventOp.RETRACT, "route_clear"))
    # the failed retract must not advance the clock
    assert model.clock == 2


def test_stale_ordinal_rejected():
    state = engine()
    state.step(ev(4, "a", EventOp.ASSERT, "route_clear"))
    with pytest.raises(StaleEvent):
        state.step(ev(4, "a", EventOp.ASSERT, "other"))
    with pytest.raises(StaleEvent):
        state.step(ev(2, "a", EventOp.ASSERT, "other"))


def test_snapshot_is_immutable_view():
    state = engine()
    state.step(ev(1, "a", EventOp.ASSERT, "route_clear"))
    snap, = (m for m in state.snapshots() if m.owner == "a")
    state.step(ev(2, "a", EventOp.ASSERT, "gate_open"))
    state.step(ev(3, "a", EventOp.RETRACT, "route_clear"))
    assert snap.clock == 1
    assert snap.entries == {"route_clear": Entry(Polarity.POSITIVE, Attitude.BELIEF, 1)}


def test_ground_truth_facts_must_be_covered():
    with pytest.raises(ValueError):
        GroundTruth.build({"x": Polarity.POSITIVE}, set(), {})
    gt = GroundTruth.build(
        {"x": Polarity.POSITIVE}, {"x", "y"}, {"a": {"y"}}
    )
    assert gt.facts["x"] is Polarity.POSITIVE
    assert gt.coverage == frozenset({"x", "y"})
    assert gt.expected_knowledge["a"] == frozenset({"y"})
    empty = GroundTruth.empty(("a", "b"))
    assert empty.expected_knowledge == {"a": frozenset(), "b": frozenset()}


def test_random_streams_match_dict_simulation():
    """A model is equivalent to a plain last-write-wins dict keyed by id."""
    pool = [f"p{i}" for i in range(6)]
    for seed in range(50):
        rng = random.Random(seed)
        state = engine()
        model = state.models["a"]
        mirror: dict[str, tuple[Polarity, Attitude]] = {}
        ordinal = 0
        for _ in range(80):
            ordinal += rng.randint(1, 3)
            pid = rng.choice(pool)
            if mirror and rng.random() < 0.3:
                pid = rng.choice(sorted(mirror))
                state.step(ev(ordinal, "a", EventOp.RETRACT, pid))
                del mirror[pid]
                continue
            polarity = rng.choice((Polarity.POSITIVE, Polarity.NEGATIVE))
            attitude = rng.choice(
                (Attitude.BELIEF, Attitude.GOAL, Attitude.COMMITMENT)
            )
            state.step(ev(ordinal, "a", EventOp.ASSERT, pid, polarity, attitude))
            mirror[pid] = (polarity, attitude)
        held = {pid: (e.polarity, e.attitude) for pid, e in model.entries.items()}
        assert held == mirror
        assert model.clock == ordinal
