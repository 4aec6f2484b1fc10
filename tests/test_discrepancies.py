"""Detector semantics against brute-force oracles.

The oracle functions below restate the four discrepancy definitions
directly from first principles, without reusing any engine code, so the
randomized comparisons are meaningful.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from itertools import combinations

import pytest

from smmtrack.beliefs import (
    Attitude,
    Entry,
    EventOp,
    GroundTruth,
    MentalModel,
    Polarity,
    UpdateEvent,
)
from smmtrack.discrepancies import (
    Discrepancy,
    DiscrepancyKind,
    EngineState,
    detect_all,
    replay,
    _key_sort,
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


def provenance(record):
    """A record's identity with the holder it carries (omission keys have
    no holder)."""
    return (record.kind, record.proposition_id, record.holder, record.counterpart)


def snap(owner, clock=0, **entries):
    built = {
        pid: Entry(polarity, attitude, since)
        for pid, (polarity, attitude, since) in entries.items()
    }
    return MentalModel(owner=owner, clock=clock, entries=built)


def random_world(rng, n_agents, n_ids=8, max_clock=9):
    """Random snapshots, in shuffled owner order, plus a random ground truth
    over a small id pool."""
    pool = [f"p{i}" for i in range(n_ids)]
    owners = ["a", "b", "c", "d", "e"][:n_agents]
    snapshots = []
    for owner in owners:
        entries = {}
        for pid in pool:
            if rng.random() < 0.45:
                entries[pid] = Entry(
                    rng.choice(POLARITIES), rng.choice(ATTITUDES), rng.randint(1, 9)
                )
        snapshots.append(MentalModel(owner=owner, clock=rng.randint(0, max_clock),
                                     entries=entries))
    coverage = {pid for pid in pool if rng.random() < 0.5}
    facts = {pid: rng.choice(POLARITIES) for pid in sorted(coverage)
             if rng.random() < 0.6}
    expected = {
        owner: {pid for pid in pool if rng.random() < 0.3} for owner in owners
    }
    rng.shuffle(snapshots)
    return snapshots, GroundTruth.build(facts, coverage, expected)


def test_detect_all_matches_oracle_on_random_worlds():
    for seed in range(300):
        rng = random.Random(seed)
        snapshots, gt = random_world(rng, rng.randint(1, 5))
        got = {provenance(d) for d in detect_all(snapshots, gt)}
        assert got == oracle_keys(snapshots, gt), f"seed {seed}"


# every record detect_all reports on the 2,000 worlds below, sorted by repr
RECORDS_PINNED = 8_856
DIGEST_PINNED = "a3fd8123f7aec85ab0295af5ab00480ff9ba247dc1bdd89a06adf3573803dc42"


def test_detect_all_records_are_pinned_on_random_worlds():
    # every field of every record, not only the keys: opened_at is the
    # latest snapshot clock, team and level are passed through
    records = []
    for seed in range(2_000):
        rng = random.Random(seed)
        snapshots, gt = random_world(
            rng, rng.randint(1, 5), n_ids=rng.randint(1, 9),
            max_clock=rng.choice((0, 9, 10**6)))
        records.extend(detect_all(snapshots, gt, team=rng.randint(0, 50),
                                  level=rng.randint(0, 9)))
    text = repr(sorted(records, key=repr))
    assert len(records) == RECORDS_PINNED
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST_PINNED


# --- the record type ---------------------------------------------------------

# every field but closed_at
OPENING_FIELDS = ("kind", "proposition_id", "holder", "counterpart", "team",
                  "level", "opened_at")


def record(**overrides):
    fields = dict(kind=K.CONTRADICTION, proposition_id="x", holder="a",
                  counterpart="b", team=1, level=2, opened_at=3)
    fields.update(overrides)
    return Discrepancy(**fields)


def test_record_is_immutable():
    made = record()
    for name in ("closed_at", "holder", "extra"):
        with pytest.raises(AttributeError):
            setattr(made, name, 9)
    assert made.closed_at is None


def test_record_equality_and_hash_are_by_value():
    assert record() == record() and hash(record()) == hash(record())
    assert record() != record(opened_at=4)
    assert record() != record(closed_at=5)
    assert len({record(), record(), record(closed_at=5)}) == 2


def test_record_key_and_is_open():
    assert record().key == (K.CONTRADICTION, "x", "a", "b")
    assert record().is_open and not record(closed_at=4).is_open
    omission = record(kind=K.OMISSION, holder="c", counterpart="b")
    assert omission.key == (K.OMISSION, "x", None, "b")
    unsupported = record(kind=K.UNSUPPORTED, counterpart=None)
    assert unsupported.key == (K.UNSUPPORTED, "x", "a", None)


def test_closing_keeps_every_other_field():
    state = EngineState.fresh(4, 2, ("a", "b"),
                              GroundTruth.build({}, {"x"}, {"a": set(), "b": set()}))
    state.step(ev(1, "a", EventOp.ASSERT, "x", team=4, level=2))
    _, [opened], _ = state.step(
        ev(2, "b", EventOp.ASSERT, "x", Polarity.NEGATIVE, team=4, level=2))
    _, _, [closed] = state.step(ev(5, "b", EventOp.RETRACT, "x", team=4, level=2))
    assert type(closed) is type(opened)
    assert opened.closed_at is None and closed.closed_at == 5
    assert [getattr(closed, name) for name in OPENING_FIELDS] == \
        [getattr(opened, name) for name in OPENING_FIELDS] == \
        [K.CONTRADICTION, "x", "a", "b", 4, 2, 2]
    assert state.all_records() == [closed]


# --- targeted semantic cases -------------------------------------------------

def detect(kind, snapshots, gt=None):
    """``detect_all``'s records of one kind; no ground truth stands for an
    empty one over the snapshots' owners."""
    if gt is None:
        gt = GroundTruth.empty(tuple(s.owner for s in snapshots))
    return {d for d in detect_all(snapshots, gt) if d.kind is kind}


def test_contradiction_basic_pair():
    a = snap("a", area_secure=(Polarity.POSITIVE, Attitude.BELIEF, 1))
    b = snap("b", area_secure=(Polarity.NEGATIVE, Attitude.BELIEF, 2))
    found = detect(K.CONTRADICTION, [a, b])
    assert {d.key for d in found} == {(K.CONTRADICTION, "area_secure", "a", "b")}
    record = next(iter(found))
    assert record.holder == "a" and record.counterpart == "b"


def test_contradiction_requires_same_attitude():
    # believing the area is secure vs aiming for it not to be is a plan
    # conflict, not a belief contradiction
    a = snap("a", area_secure=(Polarity.POSITIVE, Attitude.BELIEF, 1))
    b = snap("b", area_secure=(Polarity.NEGATIVE, Attitude.GOAL, 2))
    assert detect(K.CONTRADICTION, [a, b]) == set()


def test_contradiction_needs_two_models():
    a = snap("a", x=(Polarity.POSITIVE, Attitude.BELIEF, 1))
    assert detect(K.CONTRADICTION, [a]) == set()
    assert detect(K.CONTRADICTION, []) == set()


def test_same_polarity_never_contradicts():
    a = snap("a", x=(Polarity.NEGATIVE, Attitude.BELIEF, 1))
    b = snap("b", x=(Polarity.NEGATIVE, Attitude.BELIEF, 2))
    assert detect(K.CONTRADICTION, [a, b]) == set()


def test_omission_one_record_with_smallest_holder():
    gt = GroundTruth.build({}, {"gate_code"}, {
        "a": set(), "b": {"gate_code"}, "c": set(),
    })
    a = snap("a", gate_code=(Polarity.POSITIVE, Attitude.BELIEF, 1))
    b = snap("b")
    c = snap("c", gate_code=(Polarity.POSITIVE, Attitude.BELIEF, 2))
    found = detect(K.OMISSION, [a, b, c], gt)
    assert {provenance(d) for d in found} == {(K.OMISSION, "gate_code", "a", "b")}


def test_omission_nothing_when_nobody_holds_it():
    gt = GroundTruth.build({}, set(), {"a": set(), "b": {"gate_code"}})
    assert detect(K.OMISSION, [snap("a"), snap("b")], gt) == set()


def test_omission_requires_declared_expectations():
    gt = GroundTruth.build({}, set(), {"a": set()})
    with pytest.raises(UnknownAgent):
        detect(K.OMISSION, [snap("a"), snap("b")], gt)


def test_unsupported_outside_coverage_and_uncorroborated():
    gt = GroundTruth.build({}, {"known"}, {"a": set(), "b": set()})
    a = snap("a",
             known=(Polarity.POSITIVE, Attitude.BELIEF, 1),
             rumor=(Polarity.POSITIVE, Attitude.BELIEF, 2))
    b = snap("b")
    found = detect(K.UNSUPPORTED, [a, b], gt)
    assert {d.key for d in found} == {(K.UNSUPPORTED, "rumor", "a", None)}


def test_opposite_polarity_still_corroborates():
    # teammates disagreeing about an uncovered id is a contradiction, not
    # two unsupported beliefs
    gt = GroundTruth.build({}, set(), {"a": set(), "b": set()})
    a = snap("a", rumor=(Polarity.POSITIVE, Attitude.BELIEF, 1))
    b = snap("b", rumor=(Polarity.NEGATIVE, Attitude.BELIEF, 2))
    assert detect(K.UNSUPPORTED, [a, b], gt) == set()
    assert {d.key for d in detect_all([a, b], gt)} == {
        (K.CONTRADICTION, "rumor", "a", "b")
    }


def test_false_belief_any_attitude():
    gt = GroundTruth.build({"door_locked": Polarity.POSITIVE},
                           {"door_locked"}, {"a": set(), "b": set()})
    a = snap("a", door_locked=(Polarity.NEGATIVE, Attitude.GOAL, 1))
    b = snap("b", door_locked=(Polarity.POSITIVE, Attitude.BELIEF, 2))
    found = detect(K.FALSE, [a, b], gt)
    assert {d.key for d in found} == {(K.FALSE, "door_locked", "a", None)}


def test_duplicate_owner_rejected():
    a1 = snap("a")
    a2 = snap("a")
    with pytest.raises(DuplicateOwner, match=r"^duplicate snapshot owners: \['a'\]$"):
        detect(K.CONTRADICTION, [a1, a2])


# --- incremental engine ------------------------------------------------------

def ev(ordinal, actor, op, pid, polarity=Polarity.POSITIVE,
       attitude=Attitude.BELIEF, team=1, level=1):
    return UpdateEvent(
        ordinal=ordinal, team=team, level=level, t=float(ordinal),
        actor=actor, op=op, proposition_id=pid, polarity=polarity,
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
    assert [provenance(d) for d in opened] == [(K.OMISSION, "gate_code", "a", "b")]
    _, opened, closed = state.step(ev(2, "b", EventOp.ASSERT, "gate_code"))
    assert opened == []
    assert [provenance(d) for d in closed] == [(K.OMISSION, "gate_code", "a", "b")]


def test_omission_is_one_record_while_its_holders_change():
    # only c expects p; a joins, leaves and rejoins b as a holder, but c
    # lacks p throughout: one episode, holder b (the holder at opening)
    gt = GroundTruth.build({}, {"p"}, {"a": set(), "b": set(), "c": {"p"}})
    state = fresh_state(gt, agents=("a", "b", "c"))
    state.step(ev(1, "b", EventOp.ASSERT, "p"))
    state.step(ev(2, "a", EventOp.ASSERT, "p"))
    state.step(ev(3, "a", EventOp.RETRACT, "p"))
    state.step(ev(4, "a", EventOp.ASSERT, "p"))
    records = state.all_records()
    assert [provenance(r) for r in records] == [(K.OMISSION, "p", "b", "c")]
    assert records[0].opened_at == 1 and records[0].is_open


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
        facts = {pid: rng.choice(POLARITIES) for pid in sorted(coverage)
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


def test_records_keep_opening_order_for_any_roster():
    pool = [f"p{i}" for i in range(5)]
    for seed in range(30):
        rng = random.Random(seed)
        agents = ("a", "b", "c", "d")[:rng.choice((2, 3, 4))]
        coverage = {pid for pid in pool if rng.random() < 0.5}
        facts = {pid: rng.choice(POLARITIES) for pid in sorted(coverage)
                 if rng.random() < 0.5}
        expected = {agent: {pid for pid in pool if rng.random() < 0.4}
                    for agent in agents}
        gt = GroundTruth.build(facts, coverage, expected)
        state = EngineState.fresh(1, 1, agents, gt)
        for event in random_stream(rng, agents, pool, 50):
            state.step(event)
            records = state.all_records()
            assert records == sorted(
                records, key=lambda r: (r.opened_at, _key_sort(r.key))), f"seed {seed}"
            assert state.open_records() == [r for r in records if r.is_open]


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


def test_episode_counts_match_batch_key_entries():
    # an episode, defined apart from the engine: a key entering detect_all's
    # key set between one event and the next
    pool = [f"p{i}" for i in range(6)]
    for seed in range(10_000, 10_060):
        rng = random.Random(seed)
        agents = ("a", "b", "c", "d")[:rng.choice((2, 3, 4))]
        coverage = {pid for pid in pool if rng.random() < 0.5}
        facts = {pid: rng.choice(POLARITIES) for pid in sorted(coverage)
                 if rng.random() < 0.5}
        expected = {agent: {pid for pid in pool if rng.random() < 0.3}
                    for agent in agents}
        gt = GroundTruth.build(facts, coverage, expected)
        state = EngineState.fresh(1, 1, agents, gt)
        entries: Counter = Counter()
        before: set = set()
        for event in random_stream(rng, agents, pool, 150):
            state.step(event)
            after = {d.key for d in detect_all(state.snapshots(), gt)}
            entries.update(after - before)
            before = after
        records = state.all_records()
        assert Counter(r.kind for r in records) == \
            Counter(kind for kind, _, _, _ in entries.elements()), f"seed {seed}"
        assert Counter(r.key for r in records) == entries, f"seed {seed}"
