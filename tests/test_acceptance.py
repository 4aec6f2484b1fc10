"""Acceptance gate.

One test per shipping criterion; each ``pytest -v`` line is the pass/fail
verdict for that criterion.  The synthetic sweep fixture runs the full
pipeline (generate, replay, count) exactly as the CLI would, with no
shortcuts through the ledger.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from smmtrack import fixture_path
from smmtrack.beliefs import (
    Attitude,
    EventOp,
    GroundTruth,
    Polarity,
    UpdateEvent,
)
from smmtrack.cli import ScorecardOutput, main
from smmtrack.discrepancies import (
    DiscrepancyKind,
    EngineState,
    detect_all,
    replay,
)
from smmtrack.episodes import EpisodeCounts, build_history, count_level
from smmtrack.errors import (
    DanglingReference,
    OrdinalRegression,
    OutOfRangeTime,
    ParseError,
)
from smmtrack.ingest import (
    dump_events,
    dump_scenario,
    load_events,
    load_scenario,
    parse_events,
    parse_scenario,
)
from smmtrack.prediction import (
    WeightScheme,
    batch_report,
    pearson,
    predict,
    uniform_weights,
)
from smmtrack.scoring import score
from smmtrack.synth import GenConfig, generate, write_corpus


@pytest.fixture(scope="module")
def sweep():
    """100 seeded default-shape corpora, fully replayed into count rows."""
    corpora = []
    for seed in range(100):
        corpus = generate(GenConfig(seed=seed))
        scenario = corpus.scenario
        counts = []
        for team in corpus.events_by_team:
            for level in scenario.level_ids():
                state = replay(
                    team, level, scenario.roles,
                    scenario.ground_truth[level],
                    corpus.team_level_events(team, level),
                )
                counts.append(count_level(state.all_records(), team, level))
        corpora.append(counts)
    return corpora


def test_c1_detector_equals_planted_oracle_on_1000_corpora():
    started = time.perf_counter()
    for seed in range(1000):
        corpus = generate(GenConfig(teams=1, seed=seed))
        scenario = corpus.scenario
        assert len(scenario.roles) == 2
        detected = set()
        opened_total = 0
        for level in scenario.level_ids():
            stream = corpus.team_level_events(1, level)
            assert len(stream) >= 50
            state = replay(1, level, scenario.roles,
                           scenario.ground_truth[level], stream)
            records = state.all_records()
            opened_total += len(records)
            for record in records:
                detected.add((1, level, record.kind.value,
                              record.proposition_id))
        assert detected == set(corpus.ledger.keys())
        assert opened_total == len(corpus.ledger.planted)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"1000 corpora, 0 missed, 0 spurious, {elapsed:.1f}s")


def _random_world(rng, agents):
    pool = [f"p{i}" for i in range(8)]
    facts = {}
    coverage = set()
    for pid in pool:
        roll = rng.random()
        if roll < 0.4:
            facts[pid] = rng.choice((Polarity.POSITIVE, Polarity.NEGATIVE))
            coverage.add(pid)
        elif roll < 0.6:
            coverage.add(pid)
    expected = {
        agent: {pid for pid in pool if rng.random() < 0.3} for agent in agents
    }
    return GroundTruth.build(facts, coverage, expected), pool


def _random_event(rng, ordinal, agents, pool, held):
    actor = rng.choice(agents)
    if held[actor] and rng.random() < 0.15:
        pid = rng.choice(sorted(held[actor]))
        held[actor].discard(pid)
        op = EventOp.RETRACT
    else:
        pid = rng.choice(pool)
        held[actor].add(pid)
        op = EventOp.ASSERT
    attitude = rng.choices(
        (Attitude.BELIEF, Attitude.GOAL, Attitude.COMMITMENT),
        weights=(8, 1, 1))[0]
    return UpdateEvent(
        ordinal=ordinal, team=1, level=1, t=float(ordinal), actor=actor,
        op=op, proposition_id=pid,
        polarity=rng.choice((Polarity.POSITIVE, Polarity.NEGATIVE)),
        attitude=attitude,
    )


def test_c2_incremental_equals_batch_after_every_event():
    for trial in range(500):
        rng = random.Random(trial)
        agents = ["a", "b", "c"][: rng.choice((2, 3))]
        gt, pool = _random_world(rng, agents)
        state = EngineState.fresh(1, 1, agents, gt)
        held = {agent: set() for agent in agents}
        for ordinal in range(1, 201):
            event = _random_event(rng, ordinal, agents, pool, held)
            state.step(event)
            incremental = {d.key for d in state.open_records()}
            batch = {d.key for d in detect_all(state.snapshots(), gt,
                                               team=1, level=1)}
            assert incremental == batch
    print("500 trials x 200 events: incremental == batch at every step")


def test_c3_weighted_sum_arithmetic(sweep):
    rows = [
        EpisodeCounts.of(1, level,
                         {DiscrepancyKind.CONTRADICTION: value})
        for level, value in ((1, 10), (2, 20), (3, 30), (4, 25))
    ]
    history = build_history(rows)[0]
    uniform = uniform_weights([1, 2, 3])
    exact = predict(history, 4, uniform, kind=DiscrepancyKind.CONTRADICTION)
    assert exact.predicted == 20.0

    explicit = WeightScheme({1: 0.5, 2: 0.3, 3: 0.2})
    weighted = predict(history, 4, explicit,
                       kind=DiscrepancyKind.CONTRADICTION)
    assert abs(weighted.predicted - 17.0) <= 1e-9

    checked = 0
    for counts in sweep:
        for history in build_history(counts):
            by_kind = sum(
                predict(history, 4, uniform, kind=kind).predicted
                for kind in DiscrepancyKind
            )
            total = predict(history, 4, uniform).predicted
            assert abs(total - by_kind) <= 1e-9
            checked += 1
    print(f"20.0 exact, 17.0 within 1e-9, total==sum on {checked} teams")


def test_c4_dyad_scorecard_reproduced_exactly():
    scenario = load_scenario(fixture_path("scenario_dyad.json"))
    cards = {}
    for team, name in ((8, "confirmations_team08.jsonl"),
                       (16, "confirmations_team16.jsonl")):
        records = load_events(fixture_path(name), scenario)
        confirmed = frozenset(r.element_id for r in records)
        cards[team] = score(scenario.targets, team, confirmed)

    assert [cards[8].per_target[t.id].earned for t in scenario.targets] == [0, 3, 5]
    assert [cards[16].per_target[t.id].earned for t in scenario.targets] == [0, 1, 4]
    assert cards[8].total.cell() == "8 (42.1%)"
    assert cards[16].total.cell() == "5 (26.3%)"

    table = ScorecardOutput(scenario.targets, [cards[8], cards[16]]).table()
    for fragment in ("0 (0.0%)", "3 (50.0%)", "5 (71.4%)",
                     "1 (16.7%)", "4 (57.1%)", "8 (42.1%)", "5 (26.3%)"):
        assert fragment in table
    print("team 8: 8/19 (42.1%), team 16: 5/19 (26.3%), rows exact")


def test_c5_correlation_shape_and_pearson_oracle(sweep):
    scheme = uniform_weights([1, 2, 3])
    above = 0
    for counts in sweep:
        report = batch_report(build_history(counts), 4, scheme)
        assert report.pearson is not None
        if report.pearson.r > 0.5:
            above += 1
    assert above >= 95

    identity = pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert identity.r == 1.0
    hand = pearson([1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 4.0, 3.0])
    assert abs(hand.r - 0.6) <= 1e-9
    print(f"r > 0.5 in {above}/100 seeds; hand oracles exact")


def test_c6_rare_kinds_stay_rare(sweep):
    cells = 0
    occupied = {DiscrepancyKind.FALSE: 0, DiscrepancyKind.UNSUPPORTED: 0}
    worst = 0
    for counts in sweep:
        for row in counts:
            cells += 1
            for kind in occupied:
                value = row.get(kind)
                assert value <= 2
                worst = max(worst, value)
                if value > 0:
                    occupied[kind] += 1
    for kind, hits in occupied.items():
        assert hits / cells < 0.20
    shares = ", ".join(
        f"{kind.value} {hits / cells:.1%}" for kind, hits in occupied.items())
    print(f"{shares} of {cells} cells, max {worst} per level")


def test_c7_malformed_inputs_and_lossless_round_trip(tmp_path, capsys):
    paths = write_corpus(generate(GenConfig(teams=1, seed=0)),
                         str(tmp_path / "valid"))
    scenario_path, events_path = paths[0], paths[1]
    doc = json.loads(open(scenario_path, encoding="utf-8").read())

    missing_gt = dict(doc, ground_truth={
        k: v for k, v in doc["ground_truth"].items() if k != "3"})
    gt_path = tmp_path / "missing_gt.json"
    gt_path.write_text(json.dumps(missing_gt))
    with pytest.raises(DanglingReference) as err:
        load_scenario(str(gt_path))
    assert "level 3" in str(err.value) and str(gt_path) in str(err.value)
    assert main(["analyze", "--scenario", str(gt_path),
                 "--events", events_path]) != 0
    assert capsys.readouterr().err.startswith("DanglingReference: ")

    dup_path = tmp_path / "dup_agent.json"
    dup_path.write_text(json.dumps(dict(doc, roles=["spotter", "spotter"])))
    with pytest.raises(ParseError) as err:
        load_scenario(str(dup_path))
    assert "'spotter'" in str(err.value)
    assert main(["analyze", "--scenario", str(dup_path),
                 "--events", events_path]) != 0
    assert "'spotter'" in capsys.readouterr().err

    def update_line(ordinal, t):
        return json.dumps({
            "type": "update", "ordinal": ordinal, "team": 1, "level": 1,
            "t": t, "actor": "photographer", "op": "assert",
            "proposition": {"id": "x1", "polarity": "positive"}})

    scenario = load_scenario(scenario_path)
    regress_path = tmp_path / "regress.jsonl"
    regress_path.write_text(update_line(7, 1.0) + "\n" + update_line(7, 2.0) + "\n")
    with pytest.raises(OrdinalRegression) as err:
        load_events(str(regress_path), scenario)
    assert err.value.line == 2 and str(regress_path) in str(err.value)
    assert main(["analyze", "--scenario", scenario_path,
                 "--events", str(regress_path)]) != 0
    assert capsys.readouterr().err.startswith("OrdinalRegression: ")

    late_path = tmp_path / "late.jsonl"
    late_path.write_text(update_line(1, scenario.durations[1] + 1) + "\n")
    with pytest.raises(OutOfRangeTime) as err:
        load_events(str(late_path), scenario)
    assert err.value.line == 1 and str(late_path) in str(err.value)
    assert main(["analyze", "--scenario", scenario_path,
                 "--events", str(late_path)]) != 0
    assert capsys.readouterr().err.startswith("OutOfRangeTime: ")

    for seed in range(100):
        corpus = generate(GenConfig(teams=1, seed=seed))
        reloaded = parse_scenario(dump_scenario(corpus.scenario))
        assert reloaded == corpus.scenario
        for events in corpus.events_by_team.values():
            assert tuple(parse_events(dump_events(events), reloaded)) == events
    print("4 malformed cases named+located+nonzero; 100 corpora round-trip")
