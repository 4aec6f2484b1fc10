"""The whole ``analyze`` path against brute-force episode counts, for any roster.

Random worlds of 2-5 roles, 1-3 levels, two teams and a pool of 3-9 ids are
written as a scenario and two ``--events`` files, each (team, level) stream
split at a random point between them, and read back through ``cli.main``,
in this process and in worker processes.  A world whose every stream is cut
at its start or end takes the merge of the workers' counts; any other
rereads serially.
A kind's expected count is the number of times a key enters the key set of
``oracle_keys``, the definitions restated without engine code, after an
event; an omission key drops its holder, as ``Discrepancy.key`` does.
"""

from __future__ import annotations

import dataclasses
import json
import random
from collections import Counter

from smmtrack.beliefs import Entry, EventOp, GroundTruth, Snapshot
from smmtrack.discrepancies import DiscrepancyKind
from smmtrack.episodes import KIND_ORDER, TOTAL
from smmtrack.ingest import Scenario, save_events, save_scenario

from test_cli import main_on_both_paths
from test_discrepancies import POLARITIES, oracle_keys, random_stream

SEEDS = range(200)
TEAMS = (1, 2)
ROLES = ("a", "b", "c", "d", "e")
MAX_EVENTS = 40
# random_stream's events carry t == ordinal, at most two per event
DURATION = 2.0 * MAX_EVENTS + 1


def random_world(rng):
    roles = ROLES[:rng.randint(2, 5)]
    pool = [f"p{i}" for i in range(rng.randint(3, 9))]
    ground_truth = {}
    for level in range(1, rng.randint(1, 3) + 1):
        coverage = {pid for pid in pool if rng.random() < 0.5}
        facts = {pid: rng.choice(POLARITIES) for pid in sorted(coverage)
                 if rng.random() < 0.5}
        expected = {role: {pid for pid in pool if rng.random() < 0.3}
                    for role in roles}
        ground_truth[level] = GroundTruth.build(facts, coverage, expected)
    return roles, pool, ground_truth


def oracle_entries(stream, roles, gt):
    """Per kind, how often a key enters ``oracle_keys``' key set after an
    event of the stream."""
    held = {role: {} for role in roles}
    entries: Counter = Counter()
    before: set = set()
    for event in stream:
        pid = event.proposition.id
        if event.op is EventOp.RETRACT:
            del held[event.actor][pid]
        else:
            held[event.actor][pid] = Entry(event.proposition.polarity,
                                           event.attitude, event.ordinal)
        after = {
            (kind, pid, None if kind is DiscrepancyKind.OMISSION else holder, other)
            for kind, pid, holder, other in oracle_keys(
                [Snapshot(role, 0, held[role]) for role in roles], gt)
        }
        entries.update(kind for kind, _, _, _ in after - before)
        before = after
    return entries


def test_analyze_counts_equal_oracle_episodes_for_any_roster(tmp_path, capsys, monkeypatch):
    scenario_path = str(tmp_path / "scenario.json")
    events_paths = [str(tmp_path / "head.jsonl"), str(tmp_path / "tail.jsonl")]
    for seed in SEEDS:
        rng = random.Random(seed)
        roles, pool, ground_truth = random_world(rng)
        head, tail, expected = [], [], []
        for team in TEAMS:
            for level, gt in ground_truth.items():
                stream = [dataclasses.replace(event, team=team, level=level)
                          for event in random_stream(rng, roles, pool,
                                                     rng.randint(1, MAX_EVENTS))]
                cut = rng.randint(0, len(stream))
                head += stream[:cut]
                tail += stream[cut:]
                counts = oracle_entries(stream, roles, gt)
                expected.append({"team": team, "level": level,
                                 **{kind.value: counts[kind] for kind in KIND_ORDER},
                                 TOTAL: sum(counts.values())})
        save_scenario(Scenario(roles, {level: DURATION for level in ground_truth},
                               ground_truth, ()), scenario_path)
        save_events(head, events_paths[0])
        save_events(tail, events_paths[1])
        code, out, err = main_on_both_paths(
            ["analyze", "--scenario", scenario_path, "--events", *events_paths,
             "--format", "json"], capsys, monkeypatch)
        assert code == 0, f"seed {seed}: {err}"
        assert json.loads(out) == expected, f"seed {seed}"
