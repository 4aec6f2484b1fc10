"""Synthetic corpus generator: determinism, ledger soundness, stream shape."""

from __future__ import annotations

import filecmp
import json

import pytest

from smmtrack.discrepancies import DiscrepancyKind, replay
from smmtrack.errors import InvalidConfig, ParseError
from smmtrack.synth import (
    DEFAULT_RATES,
    GenConfig,
    generate,
    load_ledger,
    write_corpus,
)
from smmtrack.ingest import load_events, load_scenario


def small_config(seed, **overrides):
    base = dict(teams=2, levels=2, seed=seed, min_events_per_level=30)
    base.update(overrides)
    return GenConfig(**base)


def replayed_keys(corpus):
    """Detected (team, level, kind, pid) keys over the whole corpus."""
    keys = set()
    scenario = corpus.scenario
    for team in corpus.events_by_team:
        for level in scenario.level_ids():
            state = replay(
                team, level, scenario.roles,
                scenario.ground_truth[level],
                corpus.team_level_events(team, level),
            )
            for record in state.all_records():
                keys.add((team, level, record.kind.value, record.proposition_id))
    return keys


def test_same_seed_reproduces_corpus():
    a = generate(small_config(11))
    b = generate(small_config(11))
    assert a.scenario == b.scenario
    assert a.events_by_team == b.events_by_team
    assert a.ledger == b.ledger


def test_different_seed_differs():
    a = generate(small_config(11))
    b = generate(small_config(12))
    assert a.events_by_team != b.events_by_team


def test_config_validation():
    with pytest.raises(InvalidConfig):
        GenConfig(teams=0)
    with pytest.raises(InvalidConfig):
        GenConfig(levels=0)
    with pytest.raises(InvalidConfig):
        GenConfig(rate_by_kind={DiscrepancyKind.OMISSION: 1.0})
    with pytest.raises(InvalidConfig):
        GenConfig(rate_by_kind={**DEFAULT_RATES, DiscrepancyKind.FALSE: -0.1})
    with pytest.raises(InvalidConfig):
        GenConfig(team_baseline_spread=-0.01)
    with pytest.raises(InvalidConfig):
        GenConfig(noise=-1.0)
    with pytest.raises(InvalidConfig):
        GenConfig(roles=("solo",))
    with pytest.raises(InvalidConfig):
        GenConfig(roles=("dup", "dup"))
    with pytest.raises(InvalidConfig):
        GenConfig(level_duration=0.0)
    with pytest.raises(InvalidConfig):
        GenConfig(min_events_per_level=-1)


def test_zero_rates_plant_nothing():
    zero = {kind: 0.0 for kind in DEFAULT_RATES}
    corpus = generate(small_config(5, rate_by_kind=zero))
    assert corpus.ledger.planted == ()
    assert replayed_keys(corpus) == set()
    # filler still fills the stream up to the floor
    for team in corpus.events_by_team:
        for level in (1, 2):
            assert len(corpus.team_level_events(team, level)) == 30


def test_engine_detects_exactly_the_ledger():
    for seed in (0, 7, 23):
        corpus = generate(small_config(seed))
        assert replayed_keys(corpus) == set(corpus.ledger.keys())


def test_planted_counts_match_engine_counts():
    corpus = generate(small_config(3))
    tallies = corpus.ledger.tallies()
    scenario = corpus.scenario
    for team in corpus.events_by_team:
        for level in scenario.level_ids():
            state = replay(
                team, level, scenario.roles,
                scenario.ground_truth[level],
                corpus.team_level_events(team, level),
            )
            for kind in DiscrepancyKind:
                detected = sum(
                    1 for r in state.all_records() if r.kind is kind)
                assert detected == tallies.get((team, level, kind), 0)


def test_filler_alone_is_silent():
    # deleting every template event must leave a stream that detects nothing
    corpus = generate(small_config(9))
    scenario = corpus.scenario
    for team in corpus.events_by_team:
        for level in scenario.level_ids():
            planted_positions = {
                pos
                for entry in corpus.ledger.planted
                if entry.team == team and entry.level == level
                for pos in entry.positions
            }
            kept = [
                event
                for event in corpus.team_level_events(team, level)
                if event.ordinal not in planted_positions
            ]
            state = replay(
                team, level, scenario.roles,
                scenario.ground_truth[level], kept,
            )
            assert state.all_records() == []


def test_stream_shape():
    config = small_config(17)
    corpus = generate(config)
    for team, events in corpus.events_by_team.items():
        for level in (1, 2):
            stream = corpus.team_level_events(team, level)
            assert len(stream) >= config.min_events_per_level
            assert [e.ordinal for e in stream] == list(range(1, len(stream) + 1))
            times = [e.t for e in stream]
            assert times == sorted(times)
            for event in stream:
                assert 0.0 <= event.t <= config.level_duration
                assert event.actor in config.roles
                assert event.team == team


def test_planting_positions_point_at_their_proposition():
    corpus = generate(small_config(21))
    for entry in corpus.ledger.planted:
        stream = corpus.team_level_events(entry.team, entry.level)
        for pos in entry.positions:
            assert stream[pos - 1].proposition.id == entry.proposition_id


def test_write_corpus_round_trip(tmp_path):
    corpus = generate(small_config(13))
    paths = write_corpus(corpus, str(tmp_path / "corpus"))
    assert [p.rsplit("/", 1)[1] for p in paths] == [
        "scenario.json", "events_t01.jsonl", "events_t02.jsonl", "ledger.json"]

    scenario = load_scenario(paths[0])
    assert scenario == corpus.scenario
    for team, path in ((1, paths[1]), (2, paths[2])):
        records = load_events(path, scenario)
        assert tuple(records) == corpus.events_by_team[team]
    ledger = load_ledger(paths[3])
    assert ledger == corpus.ledger


def test_written_files_are_byte_deterministic(tmp_path):
    write_corpus(generate(small_config(4)), str(tmp_path / "a"))
    write_corpus(generate(small_config(4)), str(tmp_path / "b"))
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "a", tmp_path / "b",
        ["scenario.json", "events_t01.jsonl", "events_t02.jsonl", "ledger.json"],
        shallow=False,
    )
    assert mismatch == [] and errors == []
    assert len(match) == 4


def written_ledger(tmp_path, edit):
    """Write a small corpus, apply ``edit`` to its ledger document, and
    return the ledger path."""
    path = tmp_path / "ledger.json"
    write_corpus(generate(small_config(4)), str(tmp_path))
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(edit(doc)))
    return str(path)


def test_load_ledger_requires_generator_algorithm(tmp_path):
    path = written_ledger(tmp_path, lambda doc: {**doc, "generator": {"seed": 4}})
    with pytest.raises(ParseError) as caught:
        load_ledger(path)
    assert caught.value.path == path
    assert caught.value.key == "generator.algorithm"


def test_load_ledger_rejects_top_level_list(tmp_path):
    path = written_ledger(tmp_path, lambda doc: [doc])
    with pytest.raises(ParseError) as caught:
        load_ledger(path)
    assert caught.value.path == path
    assert "ledger must be an object" in str(caught.value)


def test_load_ledger_rejects_unknown_kind(tmp_path):
    def bad_kind(doc):
        doc["planted"][0]["kind"] = "hallucination"
        return doc

    path = written_ledger(tmp_path, bad_kind)
    with pytest.raises(ParseError) as caught:
        load_ledger(path)
    assert caught.value.path == path
    assert caught.value.key == "planted.0.kind"
