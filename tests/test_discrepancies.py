"""Detector semantics against brute-force oracles.

The oracle functions below restate the four discrepancy definitions
directly from first principles, without reusing any engine code, so the
randomized comparisons are meaningful.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from smmtrack.beliefs import (
    Attitude,
    Entry,
    EventOp,
    GroundTruth,
    Polarity,
    Proposition,
    Snapshot,
    UpdateEvent,
)
from smmtrack.discrepancies import (
    DiscrepancyKind,
    EngineState,
    detect_all,
    detect_contradictions,
    detect_false_beliefs,
    detect_omissions,
    detect_unsupported,
    replay,
)
from smmtrack.errors import (
    DuplicateOwner,
    MixedTeamOrLevel,
    SmmError,
    StaleEvent,
    UnknownAgent,
)

K = DiscrepancyKind
POLARITIES = (Polarity.POSITIVE, Polarity.NEGATIVE)
ATTITUDES = (Attitude.BELIEF, Attitude.GOAL, Attitude.COMMITMENT)


# --- brute-force oracles -----------------------------------------------------

def oracle_keys(snapshots, gt):
    """Every discrepancy key, computed naively from the definitions."""
    keys = set()
    by_owner = {s.owner: s for s in snapshots}
    owners = sorted(by_owner)
    # contradiction: two agents hold the same id with opposite polarity and
    # the same attitude
    for a, b in combinations(owners, 2):
        for pid, ea in by_owner[a].entries.items():
            eb = by_owner[b].entries.get(pid)
            if eb is None:
                continue
            if ea.polarity is not eb.polarity and ea.attitude is eb.attitude:
                keys.add((K.CONTRADICTION, pid, a, b))
    # omission: an agent lacks an id their role expects while a teammate
    # holds it; the smallest-id holder is recorded
    for owner in owners:
        for pid in gt.expected_knowledge[owner]:
            if pid in by_owner[owner].entries:
                continue
            holders = [o for o in owners
                       if o != owner and pid in by_owner[o].entries]
            if holders:
                keys.add((K.OMISSION, pid, min(holders), owner))
    # unsupported: held id outside coverage that no teammate also holds
    for owner in owners:
        for pid in by_owner[owner].entries:
            if pid in gt.coverage:
                continue
            if any(pid in by_owner[o].entries for o in owners if o != owner):
                continue
            keys.add((K.UNSUPPORTED, pid, owner, None))
    # false: held polarity contradicts an authoritative fact
    for owner in owners:
        for pid, entry in by_owner[owner].entries.items():
            fact = gt.facts.get(pid)
            if fact is not None and entry.polarity is not fact:
                keys.add((K.FALSE, pid, owner, None))
    return keys


def snap(owner, clock=0, **entries):
    built = {
        pid: Entry(polarity, attitude, since)
        for pid, (polarity, attitude, since) in entries.items()
    }
    return Snapshot(owner=owner, clock=clock, entries=built)


def random_world(rng, n_agents):
    """Random snapshots plus a random ground truth over a small id pool."""
    pool = [f"p{i}" for i in range(8)]
    owners = ["a", "b", "c"][:n_agents]
    snapshots = []
    for owner in owners:
        entries = {}
        for pid in pool:
            if rng.random() < 0.45:
                entries[pid] = Entry(
                    rng.choice(POLARITIES), rng.choice(ATTITUDES), rng.randint(1, 9)
                )
        snapshots.append(Snapshot(owner=owner, clock=rng.randint(0, 9),
                                  entries=entries))
    coverage = {pid for pid in pool if rng.random() < 0.5}
    facts = {pid: rng.choice(POLARITIES) for pid in coverage
             if rng.random() < 0.6}
    expected = {
        owner: {pid for pid in pool if rng.random() < 0.3} for owner in owners
    }
    return snapshots, GroundTruth.build(facts, coverage, expected)


def test_detect_all_matches_oracle_on_random_worlds():
    for seed in range(300):
        rng = random.Random(seed)
        snapshots, gt = random_world(rng, rng.choice((2, 2, 3)))
        got = {d.key for d in detect_all(snapshots, gt)}
        assert got == oracle_keys(snapshots, gt), f"seed {seed}"


# --- targeted semantic cases -------------------------------------------------

def test_contradiction_basic_pair():
    a = snap("a", area_secure=(Polarity.POSITIVE, Attitude.BELIEF, 1))
    b = snap("b", area_secure=(Polarity.NEGATIVE, Attitude.BELIEF, 2))
    found = detect_contradictions([a, b])
    assert {d.key for d in found} == {(K.CONTRADICTION, "area_secure", "a", "b")}
    record = next(iter(found))
    assert record.holder == "a" and record.counterpart == "b"


def test_contradiction_requires_same_attitude():
    # believing the area is secure vs aiming for it not to be is a plan
    # conflict, not a belief contradiction
    a = snap("a", area_secure=(Polarity.POSITIVE, Attitude.BELIEF, 1))
    b = snap("b", area_secure=(Polarity.NEGATIVE, Attitude.GOAL, 2))
    assert detect_contradictions([a, b]) == set()


def test_contradiction_needs_two_models():
    a = snap("a", x=(Polarity.POSITIVE, Attitude.BELIEF, 1))
    assert detect_contradictions([a]) == set()
    assert detect_contradictions([]) == set()


def test_same_polarity_never_contradicts():
    a = snap("a", x=(Polarity.NEGATIVE, Attitude.BELIEF, 1))
    b = snap("b", x=(Polarity.NEGATIVE, Attitude.BELIEF, 2))
    assert detect_contradictions([a, b]) == set()


def test_omission_one_record_with_smallest_holder():
    gt = GroundTruth.build({}, {"gate_code"}, {
        "a": set(), "b": {"gate_code"}, "c": set(),
    })
    a = snap("a", gate_code=(Polarity.POSITIVE, Attitude.BELIEF, 1))
    b = snap("b")
    c = snap("c", gate_code=(Polarity.POSITIVE, Attitude.BELIEF, 2))
    found = detect_omissions([a, b, c], gt)
    assert {d.key for d in found} == {(K.OMISSION, "gate_code", "a", "b")}


def test_omission_nothing_when_nobody_holds_it():
    gt = GroundTruth.build({}, set(), {"a": set(), "b": {"gate_code"}})
    assert detect_omissions([snap("a"), snap("b")], gt) == set()


def test_omission_requires_declared_expectations():
    gt = GroundTruth.build({}, set(), {"a": set()})
    with pytest.raises(UnknownAgent):
        detect_omissions([snap("a"), snap("b")], gt)


def test_unsupported_outside_coverage_and_uncorroborated():
    gt = GroundTruth.build({}, {"known"}, {"a": set(), "b": set()})
    a = snap("a",
             known=(Polarity.POSITIVE, Attitude.BELIEF, 1),
             rumor=(Polarity.POSITIVE, Attitude.BELIEF, 2))
    b = snap("b")
    found = detect_unsupported([a, b], gt)
    assert {d.key for d in found} == {(K.UNSUPPORTED, "rumor", "a", None)}


def test_opposite_polarity_still_corroborates():
    # teammates disagreeing about an uncovered id is a contradiction, not
    # two unsupported beliefs
    gt = GroundTruth.build({}, set(), {"a": set(), "b": set()})
    a = snap("a", rumor=(Polarity.POSITIVE, Attitude.BELIEF, 1))
    b = snap("b", rumor=(Polarity.NEGATIVE, Attitude.BELIEF, 2))
    assert detect_unsupported([a, b], gt) == set()
    assert {d.key for d in detect_all([a, b], gt)} == {
        (K.CONTRADICTION, "rumor", "a", "b")
    }


def test_false_belief_any_attitude():
    gt = GroundTruth.build({"door_locked": Polarity.POSITIVE},
                           {"door_locked"}, {"a": set(), "b": set()})
    a = snap("a", door_locked=(Polarity.NEGATIVE, Attitude.GOAL, 1))
    b = snap("b", door_locked=(Polarity.POSITIVE, Attitude.BELIEF, 2))
    found = detect_false_beliefs([a, b], gt)
    assert {d.key for d in found} == {(K.FALSE, "door_locked", "a", None)}


def test_duplicate_owner_rejected():
    a1 = snap("a")
    a2 = snap("a")
    with pytest.raises(DuplicateOwner):
        detect_contradictions([a1, a2])


# --- incremental engine ------------------------------------------------------

def ev(ordinal, actor, op, pid, polarity=Polarity.POSITIVE,
       attitude=Attitude.BELIEF, team=1, level=1):
    return UpdateEvent(
        ordinal=ordinal, team=team, level=level, t=float(ordinal),
        actor=actor, op=op, proposition=Proposition(pid, polarity),
        attitude=attitude,
    )


def fresh_state(gt=None, agents=("a", "b")):
    # default world covers "x" so asserting it is not itself a discrepancy
    if gt is None:
        gt = GroundTruth.build({}, {"x"}, {agent: set() for agent in agents})
    return EngineState.fresh(1, 1, agents, gt)


def test_fresh_requires_two_agents_and_expectations():
    with pytest.raises(ValueError):
        EngineState.fresh(1, 1, ("a",), GroundTruth.empty(("a",)))
    with pytest.raises(UnknownAgent):
        EngineState.fresh(1, 1, ("a", "b"), GroundTruth.empty(("a",)))


def test_step_rejects_foreign_team_level_and_actor():
    state = fresh_state()
    with pytest.raises(MixedTeamOrLevel):
        state.step(ev(1, "a", EventOp.ASSERT, "x", team=2))
    with pytest.raises(MixedTeamOrLevel):
        state.step(ev(1, "a", EventOp.ASSERT, "x", level=2))
    with pytest.raises(UnknownAgent):
        state.step(ev(1, "z", EventOp.ASSERT, "x"))


def test_step_rejects_non_increasing_stream_ordinal():
    state = fresh_state()
    state.step(ev(1, "a", EventOp.ASSERT, "x"))
    state.step(ev(5, "b", EventOp.ASSERT, "x", Polarity.NEGATIVE))
    before = state.all_records()
    # a's own clock is 1, so only the stream clock can reject these
    for ordinal in (3, 5):
        with pytest.raises(StaleEvent) as caught:
            state.step(ev(ordinal, "a", EventOp.RETRACT, "x"))
        assert isinstance(caught.value, SmmError)
    assert state.all_records() == before
    assert "x" in state.models["a"].entries


def test_contradiction_opens_and_closes():
    state = fresh_state()
    _, opened, closed = state.step(ev(1, "a", EventOp.ASSERT, "x"))
    assert opened == [] and closed == []
    _, opened, closed = state.step(
        ev(2, "b", EventOp.ASSERT, "x", Polarity.NEGATIVE))
    assert [d.key for d in opened] == [(K.CONTRADICTION, "x", "a", "b")]
    assert opened[0].opened_at == 2 and opened[0].is_open
    # b comes around to a's polarity: the contradiction closes
    _, opened, closed = state.step(ev(3, "b", EventOp.ASSERT, "x"))
    assert opened == []
    assert [d.key for d in closed] == [(K.CONTRADICTION, "x", "a", "b")]
    assert closed[0].closed_at == 3 and not closed[0].is_open
    assert state.open_records() == []
    assert len(state.all_records()) == 1


def test_retraction_closes_contradiction():
    state = fresh_state()
    state.step(ev(1, "a", EventOp.ASSERT, "x"))
    state.step(ev(2, "b", EventOp.ASSERT, "x", Polarity.NEGATIVE))
    _, opened, closed = state.step(ev(3, "a", EventOp.RETRACT, "x"))
    assert [d.key for d in closed] == [(K.CONTRADICTION, "x", "a", "b")]
    assert opened == []


def test_omission_closes_when_lacker_learns():
    gt = GroundTruth.build({}, {"gate_code"},
                           {"a": set(), "b": {"gate_code"}})
    state = fresh_state(gt)
    _, opened, _ = state.step(ev(1, "a", EventOp.ASSERT, "gate_code"))
    assert [d.key for d in opened] == [(K.OMISSION, "gate_code", "a", "b")]
    _, opened, closed = state.step(ev(2, "b", EventOp.ASSERT, "gate_code"))
    assert opened == []
    assert [d.key for d in closed] == [(K.OMISSION, "gate_code", "a", "b")]


def test_reopened_discrepancy_is_a_new_record():
    state = fresh_state()
    state.step(ev(1, "a", EventOp.ASSERT, "x"))
    state.step(ev(2, "b", EventOp.ASSERT, "x", Polarity.NEGATIVE))
    state.step(ev(3, "b", EventOp.ASSERT, "x"))
    state.step(ev(4, "b", EventOp.ASSERT, "x", Polarity.NEGATIVE))
    records = state.all_records()
    assert len(records) == 2
    assert records[0].closed_at == 3
    assert records[1].opened_at == 4 and records[1].is_open


def random_stream(rng, agents, pool, length):
    """A valid per-(team, level) stream: retracts only touch held ids."""
    held = {agent: set() for agent in agents}
    events = []
    ordinal = 0
    for _ in range(length):
        ordinal += rng.randint(1, 2)
        actor = rng.choice(agents)
        if held[actor] and rng.random() < 0.25:
            pid = rng.choice(sorted(held[actor]))
            held[actor].discard(pid)
            events.append(ev(ordinal, actor, EventOp.RETRACT, pid))
        else:
            pid = rng.choice(pool)
            held[actor].add(pid)
            events.append(ev(
                ordinal, actor, EventOp.ASSERT, pid,
                rng.choice(POLARITIES), rng.choice(ATTITUDES),
            ))
    return events


def test_incremental_open_set_matches_batch_after_every_event():
    pool = [f"p{i}" for i in range(6)]
    for seed in range(40):
        rng = random.Random(seed)
        agents = ("a", "b", "c") if rng.random() < 0.3 else ("a", "b")
        coverage = {pid for pid in pool if rng.random() < 0.5}
        facts = {pid: rng.choice(POLARITIES) for pid in coverage
                 if rng.random() < 0.5}
        expected = {agent: {pid for pid in pool if rng.random() < 0.25}
                    for agent in agents}
        gt = GroundTruth.build(facts, coverage, expected)
        state = EngineState.fresh(1, 1, agents, gt)
        for event in random_stream(rng, agents, pool, 60):
            state.step(event)
            open_keys = {d.key for d in state.open_records()}
            batch_keys = {d.key for d in detect_all(state.snapshots(), gt)}
            assert open_keys == batch_keys, f"seed {seed} ordinal {event.ordinal}"


def test_replay_equals_manual_stepping():
    rng = random.Random(7)
    agents = ("a", "b")
    pool = ["p0", "p1", "p2"]
    gt = GroundTruth.build({}, {"p0"}, {a: {"p1"} for a in agents})
    events = random_stream(rng, agents, pool, 40)
    replayed = replay(1, 1, agents, gt, events)
    manual = EngineState.fresh(1, 1, agents, gt)
    for event in events:
        manual.step(event)
    assert [d.key for d in replayed.all_records()] == \
        [d.key for d in manual.all_records()]
    assert {s.owner: s.entries for s in replayed.snapshots()} == \
        {s.owner: s.entries for s in manual.snapshots()}
