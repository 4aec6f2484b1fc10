"""Synthetic corpus generator: determinism, ledger soundness, stream shape."""

from __future__ import annotations

import dataclasses
import filecmp
import gc
import hashlib
import json
import math
import resource
import subprocess
import sys
import types

import pytest

from smmtrack.beliefs import Attitude, EventOp
from smmtrack.discrepancies import DiscrepancyKind, replay
from smmtrack.errors import InvalidConfig, ParseError
from smmtrack import synth
from smmtrack.synth import (
    DEFAULT_RATES,
    GenConfig,
    Planting,
    generate,
    load_ledger,
    write_corpus,
)
from smmtrack.ingest import dump_scenario, load_events, load_scenario


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
    # an infinite knob has no integer count or JSON time to become
    for bad in (math.inf, math.nan):
        for knob in ("team_baseline_spread", "noise", "level_duration"):
            with pytest.raises(InvalidConfig):
                GenConfig(**{knob: bad})
        with pytest.raises(InvalidConfig):
            GenConfig(rate_by_kind={**DEFAULT_RATES, DiscrepancyKind.OMISSION: bad})


def test_generate_with_infinite_noise_exits_1_without_traceback(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "smmtrack.cli", "generate", "--out-dir", str(tmp_path),
         "--noise", "inf"],
        capture_output=True, text=True)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("InvalidConfig: noise must be finite")


def fixed_gauss(value):
    return types.SimpleNamespace(gauss=lambda mu, sigma: value)


@pytest.mark.parametrize("drawn", [math.inf, -math.inf, math.nan, 100_000.5, 1e300])
def test_draw_count_rejects_a_runaway_draw(drawn):
    with pytest.raises(InvalidConfig) as caught:
        synth._draw_count(fixed_gauss(drawn), 0.0, 1.0)
    message = str(caught.value)
    assert f"drew {drawn} plantings" in message
    assert all(knob in message for knob in ("rate_by_kind", "team_baseline_spread", "noise"))


def test_draw_count_keeps_a_draw_at_the_ceiling():
    assert synth._draw_count(fixed_gauss(0.0), 100_000.0, 1.0) == 100_000
    assert synth._draw_count(fixed_gauss(-1e300), 6.0, 1.0) == 0


@pytest.mark.parametrize("knob", [
    ("--noise", "1e300"), ("--spread", "1e30"), ("--spread", "1e308")])
def test_generate_with_a_runaway_knob_exits_1_without_traceback(tmp_path, knob):
    result = subprocess.run(
        [sys.executable, "-m", "smmtrack.cli", "generate", "--out-dir", str(tmp_path),
         "--teams", "1", *knob],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("InvalidConfig: drew ")
    assert list(tmp_path.iterdir()) == []


def test_config_rejects_a_corpus_planned_over_the_ceiling():
    with pytest.raises(InvalidConfig) as caught:
        GenConfig(teams=1, levels=10**8)
    assert str(caught.value) == (
        "corpus plans at least 6000000000 events (teams 1 x levels 100000000 x 60 "
        "per level), over 10000000; lower teams, levels, min_events_per_level or "
        "rate_by_kind")
    # the levels alone count, and so does the summed rate
    for config in (dict(levels=10**7 + 1, min_events_per_level=0,
                        rate_by_kind=dict.fromkeys(DEFAULT_RATES, 0.0)),
                   dict(teams=1, levels=1, min_events_per_level=10**7 + 1),
                   dict(teams=1, levels=1, rate_by_kind={**DEFAULT_RATES,
                                                         DiscrepancyKind.OMISSION: 1e7}),
                   dict(rate_by_kind=dict.fromkeys(DEFAULT_RATES, 1e308))):
        with pytest.raises(InvalidConfig, match="^corpus plans at least "):
            GenConfig(**config)


def test_config_keeps_a_corpus_planned_at_the_ceiling():
    GenConfig(teams=1, levels=1, min_events_per_level=10**7)
    GenConfig(teams=10**7, levels=1, min_events_per_level=0,
              rate_by_kind=dict.fromkeys(DEFAULT_RATES, 0.0))
    # the benchmark's largest workloads: many_teams and long_level
    GenConfig(teams=500, levels=4)
    GenConfig(teams=3, levels=2, team_baseline_spread=0.0,
              rate_by_kind={kind: 440 * rate for kind, rate in DEFAULT_RATES.items()})


@pytest.mark.parametrize("knob", [("--levels", "100000000"), ("--teams", "100000000")])
def test_generate_over_the_planned_size_exits_1_without_traceback(tmp_path, knob):
    def limit_memory():
        # built anyway, such a corpus ends in a MemoryError under this limit
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    result = subprocess.run(
        [sys.executable, "-m", "smmtrack.cli", "generate", "--out-dir", str(tmp_path), *knob],
        capture_output=True, text=True, timeout=60, preexec_fn=limit_memory)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("InvalidConfig: corpus plans at least ")
    assert list(tmp_path.iterdir()) == []


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


# SHA-256 over the files `write_corpus` writes, concatenated in the order it
# returns them (scenario, events by team, ledger).  A change to any RNG draw,
# id, time or writer byte changes these.
PINNED_DIGESTS = [
    # the README corpus
    (GenConfig(teams=8, seed=3),
     "27953dc66c00e6117869ab184a1ef2426c5fbcf9bdbd52f566a232ee2973ac09"),
    (GenConfig(teams=3, levels=2, seed=5, roles=("a", "b", "c")),
     "fe868280826473a706359293e6dfd7d6bbff3401f5b717636fa9070e9a3f375d"),
    # every rate x40: templates fill each level, no filler
    (GenConfig(teams=2, levels=2, seed=9,
               rate_by_kind={kind: 40 * rate for kind, rate in DEFAULT_RATES.items()}),
     "49bb8dbac37ddaf3b5a17819515592db068ada7a42d916df99da8b0dbcf8d460"),
    # long filler: 448 retracts among 6,000 events
    (GenConfig(teams=2, levels=2, seed=9, min_events_per_level=1500),
     "140c6bf77b1aea2f34689285b9953e482688e954b44859c53a12d5a7ced91ad5"),
]


@pytest.mark.parametrize("config, digest", PINNED_DIGESTS)
def test_written_files_match_pinned_digest(tmp_path, config, digest):
    sha = hashlib.sha256()
    for path in write_corpus(generate(config), str(tmp_path)):
        with open(path, "rb") as handle:
            sha.update(handle.read())
    assert sha.hexdigest() == digest


def test_written_files_equal_the_dump_functions(tmp_path):
    corpus = generate(small_config(4))
    paths = write_corpus(corpus, str(tmp_path))
    with open(paths[0], "rb") as handle:
        assert handle.read() == dump_scenario(corpus.scenario).encode()


def reference_ledger(corpus):
    """The ledger file as ``json.dumps`` writes the ledger's document."""
    ledger = corpus.ledger
    doc = {
        "generator": {"algorithm": ledger.algorithm, "seed": ledger.seed,
                      "config": corpus.config.to_doc()},
        "planted": [
            {"team": entry.team, "level": entry.level, "kind": entry.kind.value,
             "proposition_id": entry.proposition_id, "positions": list(entry.positions)}
            for entry in ledger.planted
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def hand_built_ledger_corpus():
    corpus = generate(small_config(4, roles=("\u00e9l\u00e8ve", 'q"uote')))
    planted = (
        Planting(1, 1, DiscrepancyKind.OMISSION, "caf\u00e9 \"q\" \\ \U0001f600", (3,)),
        Planting(2, 2, DiscrepancyKind.CONTRADICTION, "p", (1, 17)),
        Planting(10**20, 2, DiscrepancyKind.FALSE, "", ()),
    )
    return dataclasses.replace(
        corpus, ledger=dataclasses.replace(corpus.ledger, algorithm="alg \u00fc", planted=planted))


WRITER_CORPORA = {
    "generated": lambda: generate(small_config(4)),
    "zero plantings": lambda: generate(
        small_config(5, rate_by_kind={kind: 0.0 for kind in DEFAULT_RATES})),
    "hand-built ledger": hand_built_ledger_corpus,
}


@pytest.mark.parametrize("build", WRITER_CORPORA.values(), ids=WRITER_CORPORA.keys())
def test_ledger_writer_writes_what_json_dumps_writes(tmp_path, build):
    corpus = build()
    expected = reference_ledger(corpus)
    with open(write_corpus(corpus, str(tmp_path))[-1], "rb") as handle:
        assert handle.read() == expected.encode()
    assert expected.isascii()


@pytest.mark.parametrize("enabled", [True, False])
def test_generate_restores_the_collector_state(enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        generate(small_config(1))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_generate_leaves_the_callers_frozen_objects_frozen():
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        generate(small_config(1))
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


def test_generate_pauses_the_collector_and_restores_it_on_error(monkeypatch):
    seen = []

    def failing_draw(*args):
        seen.append(gc.isenabled())
        raise RuntimeError("draw failed")

    monkeypatch.setattr(synth, "_draw_count", failing_draw)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="draw failed"):
        generate(small_config(1))
    assert seen == [False]
    assert gc.isenabled()


def test_write_corpus_refuses_events_files_it_would_not_overwrite(tmp_path):
    write_corpus(generate(small_config(4, teams=3)), str(tmp_path))
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    with pytest.raises(InvalidConfig) as caught:
        write_corpus(generate(small_config(5)), str(tmp_path))
    assert str(tmp_path) in str(caught.value)
    assert "events_t03.jsonl" in str(caught.value)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
    # the same team count overwrites every file
    write_corpus(generate(small_config(5, teams=3)), str(tmp_path))
    assert (tmp_path / "scenario.json").read_bytes() != before["scenario.json"]


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


def test_load_ledger_rejects_a_repeated_key(tmp_path):
    write_corpus(generate(small_config(4)), str(tmp_path))
    path = tmp_path / "ledger.json"
    text = path.read_text()
    # the generator's "seed", not the one in "config" below it; and "team" in
    # planted.1, not the one in its sibling planted.0
    for old, new, key, line, column in [
        ('"seed": ', '"seed": 1, "seed": ', "seed", 4, 16),
        ('"proposition_id": "t1l1_contradiction1"',
         '"team": 1,\n      "proposition_id": "t1l1_contradiction1"', "team", 40, 7),
    ]:
        assert old in text
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(ParseError) as caught:
            load_ledger(str(path))
        assert str(caught.value) == (
            f"{path}:{line}:{column} ({key}): key {key!r} given twice in one object")


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


def test_load_ledger_rejects_a_config_that_is_not_an_object(tmp_path):
    def bad_config(doc):
        doc["generator"]["config"] = 5
        return doc

    path = written_ledger(tmp_path, bad_config)
    with pytest.raises(ParseError) as caught:
        load_ledger(path)
    assert caught.value.path == path
    assert caught.value.key == "generator.config"
    assert "config must be an object" in str(caught.value)


@pytest.mark.parametrize("positions", [[0, -3], [0, 2], [3, 3], [5, 2], [-1], []])
def test_load_ledger_rejects_positions_that_are_not_increasing_ordinals(
        tmp_path, positions):
    def bad_positions(doc):
        doc["planted"][1]["positions"] = positions
        return doc

    path = written_ledger(tmp_path, bad_positions)
    with pytest.raises(ParseError) as caught:
        load_ledger(path)
    assert caught.value.path == path
    assert caught.value.key == "planted.1.positions"
    assert "strictly increasing ordinals from 1" in str(caught.value)


def test_load_ledger_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "ledger.json"
    path.write_bytes(b'{\n  "generator": "\xff"\n}\n')
    with pytest.raises(ParseError) as caught:
        load_ledger(str(path))
    assert (caught.value.path, caught.value.line) == (str(path), 2)


def test_load_ledger_rejects_non_json_constants(tmp_path):
    path = tmp_path / "ledger.json"
    line = '  "generator": {"algorithm": "x", "seed": -Infinity}'
    path.write_text("{\n" + line + "\n}\n")
    with pytest.raises(ParseError) as caught:
        load_ledger(str(path))
    location = (caught.value.path, caught.value.line, caught.value.column)
    assert location == (str(path), 2, line.index("-Infinity") + 1)


@pytest.mark.parametrize("seed, message", [
    ("1" * 5_000, "integer of more than"),
    ("[" * 200_000, "JSON nested too deeply"),
    ("1e999", "seed must be an integer"),
], ids=["long integer", "deep nesting", "overflow"])
def test_load_ledger_rejects_long_integer_deep_nesting_and_overflow(tmp_path, seed, message):
    path = tmp_path / "ledger.json"
    path.write_text('{\n  "generator": {"algorithm": "x", "seed": ' + seed + '},\n'
                    '  "planted": []\n}\n')
    with pytest.raises(ParseError) as caught:
        load_ledger(str(path))
    assert caught.value.path == str(path)
    assert message in str(caught.value)


RULE_CONFIGS = {
    "small": (small_config(4), 29),
    "three roles": (PINNED_DIGESTS[1][0], 35),
    "every rate x40": (PINNED_DIGESTS[2][0], 1426),
}


@pytest.mark.parametrize("config, plantings", RULE_CONFIGS.values(), ids=RULE_CONFIGS.keys())
def test_plantings_follow_the_id_placement_rules(config, plantings):
    corpus = generate(config)
    assert len(corpus.ledger.planted) == plantings
    planted_at = {}
    for entry in corpus.ledger.planted:
        truth = corpus.scenario.ground_truth[entry.level]
        stream = corpus.team_level_events(entry.team, entry.level)
        events = [stream[pos - 1] for pos in entry.positions]
        for event in events:
            planted_at[entry.team, entry.level, event.ordinal] = entry
            assert event.proposition.id == entry.proposition_id
            assert (event.op, event.attitude) == (EventOp.ASSERT, Attitude.BELIEF)
        pid = entry.proposition_id
        expecting = [role for role, ids in truth.expected_knowledge.items() if pid in ids]
        if entry.kind is DiscrepancyKind.CONTRADICTION:
            first, second = events
            assert first.actor != second.actor
            assert first.proposition.polarity is not second.proposition.polarity
            assert pid in truth.coverage and pid not in truth.facts and expecting == []
        elif entry.kind is DiscrepancyKind.OMISSION:
            (event,) = events
            assert pid in truth.coverage and pid not in truth.facts
            assert len(expecting) == 1 and expecting[0] != event.actor
        elif entry.kind is DiscrepancyKind.FALSE:
            (event,) = events
            assert event.proposition.polarity is truth.facts[pid].flipped()
        else:
            (event,) = events
            assert pid not in truth.coverage
    # every other event is filler: a fact with its true polarity, expected of no one
    for team, events in corpus.events_by_team.items():
        for event in events:
            if (team, event.level, event.ordinal) in planted_at:
                continue
            truth = corpus.scenario.ground_truth[event.level]
            pid = event.proposition.id
            assert event.proposition.polarity is truth.facts[pid]
            assert not any(pid in ids for ids in truth.expected_knowledge.values())
