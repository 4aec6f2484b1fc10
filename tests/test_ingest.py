"""Strict scenario and event-stream parsing, error locations, round-trips."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import random

import pytest

from smmtrack import fixture_path, ingest
from smmtrack.beliefs import Attitude, EventOp, GroundTruth, Polarity, UpdateEvent
from smmtrack.errors import (
    DanglingReference,
    OrdinalRegression,
    OutOfRangeTime,
    ParseError,
    SmmError,
    UnknownAgent,
    UnknownElement,
    UnknownStreamAgent,
    UnknownStreamElement,
    UnknownVersion,
)
from smmtrack.ingest import (
    Confirmation,
    Scenario,
    dump_events,
    dump_scenario,
    load_events,
    load_scenario,
    parse_events,
    parse_scenario,
)
from smmtrack.scoring import Difficulty, TargetSpec
from smmtrack.synth import GenConfig, generate, load_ledger


BASE = {
    "schema_version": 1,
    "roles": ["alpha", "bravo"],
    "levels": [
        {"level": 1, "duration_seconds": 300.0},
        {"level": 2, "duration_seconds": 240.0},
    ],
    "ground_truth": {
        "1": {
            "facts": {"cat": "positive", "dog": "negative"},
            "coverage": ["cat", "dog", "bird"],
            "expected_knowledge": {"alpha": ["cat"], "bravo": ["cat", "dog"]},
        },
        "2": {"facts": {}, "coverage": []},
    },
    "targets": [
        {
            "id": "site_a",
            "difficulty": "easy",
            "elements": [
                {"element_id": "e1", "points": 2},
                {"element_id": "e2", "points": 1},
            ],
            "max_points": 3,
        }
    ],
    "notes": "hand-built",
}


def doc(**mutations):
    out = copy.deepcopy(BASE)
    out.update(mutations)
    return out


def parse(document, path="case.json"):
    return parse_scenario(json.dumps(document), path=path)


def test_parses_valid_scenario():
    scenario = parse(BASE)
    assert scenario.roles == ("alpha", "bravo")
    assert tuple(scenario.level_ids()) == (1, 2)
    assert scenario.durations == {1: 300.0, 2: 240.0}
    gt1 = scenario.ground_truth[1]
    assert gt1.facts["dog"].value == "negative"
    assert "bird" in gt1.coverage
    assert gt1.expected_knowledge["bravo"] == frozenset({"cat", "dog"})
    # expected_knowledge omitted for level 2: normalized to empty per role
    assert scenario.ground_truth[2].expected_knowledge == {
        "alpha": frozenset(), "bravo": frozenset()}
    assert scenario.element_ids() == frozenset({"e1", "e2"})
    assert scenario.notes == "hand-built"


def test_bundled_fixture_loads():
    scenario = load_scenario(fixture_path("scenario_dyad.json"))
    assert len(scenario.roles) == 2
    assert tuple(scenario.level_ids()) == (1, 2, 3, 4)
    assert [t.max_points for t in scenario.targets] == [6, 6, 7]


def test_invalid_json_reports_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_scenario('{"schema_version": 1,\n  "roles": [}', path="broken.json")
    assert err.value.line == 2
    assert err.value.column is not None
    assert str(err.value).startswith("broken.json:2:")


def test_unknown_schema_version():
    with pytest.raises(UnknownVersion) as err:
        parse(doc(schema_version=99))
    assert "99" in str(err.value)
    assert err.value.key == "schema_version"


def test_version_must_be_integer():
    with pytest.raises(ParseError):
        parse(doc(schema_version="1"))
    with pytest.raises(ParseError):
        parse(doc(schema_version=True))


def test_duplicate_role_rejected():
    with pytest.raises(ParseError) as err:
        parse(doc(roles=["alpha", "alpha"]))
    assert "'alpha'" in str(err.value)


# each repeated key is reported at its second occurrence in the object that
# repeats it; "level" and "facts" also name one field in an earlier sibling
@pytest.mark.parametrize("old, new, key, line, column", [
    ('"roles": ', '"roles": ["alpha", "carol"], "roles": ', "roles", 3, 32),
    ('"cat": "positive"', '"cat": "positive", "cat": "negative"', "cat", 20, 28),
    ('"alpha": [\n', '"alpha": [],\n        "alpha": [\n', "alpha", 30, 9),
    ('"level": 2,', '"level": 2,\n      "level": 2,', "level", 14, 7),
    ('"2": {\n      "facts": {}', '"2": {\n      "facts": {},\n      "facts": {}', "facts",
     40, 7),
], ids=["roles", "fact", "ground_truth.1 nested", "second level", "second ground truth"])
def test_repeated_key_rejected(old, new, key, line, column):
    text = json.dumps(BASE, indent=2)
    assert old in text
    with pytest.raises(ParseError) as err:
        parse_scenario(text.replace(old, new, 1), path="s.json")
    assert (err.value.path, err.value.key) == ("s.json", key)
    assert str(err.value) == (
        f"s.json:{line}:{column} ({key}): key {key!r} given twice in one object")


@pytest.mark.parametrize("roles", [[], ["alpha"]])
def test_fewer_than_two_roles_rejected(roles):
    with pytest.raises(ParseError) as err:
        parse(doc(roles=roles))
    assert err.value.key == "roles"


def test_levels_must_be_contiguous_from_one():
    bad = doc(levels=[{"level": 2, "duration_seconds": 60.0}])
    bad["ground_truth"] = {"2": {"facts": {}, "coverage": []}}
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert "contiguous" in str(err.value)


def test_nonpositive_duration_rejected():
    bad = doc()
    bad["levels"][0]["duration_seconds"] = 0
    with pytest.raises(ParseError):
        parse(bad)


def test_ground_truth_level_cross_references():
    extra = doc()
    extra["ground_truth"]["3"] = {"facts": {}, "coverage": []}
    with pytest.raises(DanglingReference) as err:
        parse(extra)
    assert "undeclared level 3" in str(err.value)

    missing = doc()
    del missing["ground_truth"]["2"]
    with pytest.raises(DanglingReference) as err:
        parse(missing)
    assert "level 2" in str(err.value)


@pytest.mark.parametrize("key", ["01", "+1", " 1", "1 ", "\u0661", "1.0", "x", "None"])
def test_ground_truth_keys_must_be_canonical_level_ids(key):
    # int() reads the first five as level 1: next to "1" the later entry
    # used to replace the earlier one without a word
    for ground_truth in ({**BASE["ground_truth"], key: {"facts": {}, "coverage": []}},
                         {key: BASE["ground_truth"]["1"], "2": BASE["ground_truth"]["2"]}):
        with pytest.raises(ParseError) as err:
            parse(doc(ground_truth=ground_truth))
        assert err.value.key == f"ground_truth.{key}"
        assert "not a level id" in str(err.value)


def test_fact_outside_coverage_rejected():
    bad = doc()
    bad["ground_truth"]["1"]["coverage"] = ["cat", "bird"]
    with pytest.raises(DanglingReference) as err:
        parse(bad)
    assert "'dog'" in str(err.value)
    assert err.value.key == "ground_truth.1.facts.dog"


def test_expected_knowledge_unknown_role_rejected():
    bad = doc()
    bad["ground_truth"]["1"]["expected_knowledge"]["ghost"] = ["cat"]
    with pytest.raises(DanglingReference) as err:
        parse(bad)
    assert "'ghost'" in str(err.value)


def test_bad_polarity_rejected():
    bad = doc()
    bad["ground_truth"]["1"]["facts"]["cat"] = "sideways"
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert "positive" in str(err.value) and "negative" in str(err.value)


def test_unknown_field_rejected():
    with pytest.raises(ParseError) as err:
        parse(doc(surprise=1))
    assert "'surprise'" in str(err.value)


def test_target_validation_routes_through_parse_error():
    bad = doc()
    bad["targets"][0]["max_points"] = 9
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert "max_points" in str(err.value)

    dup = doc()
    dup["targets"].append(copy.deepcopy(dup["targets"][0]))
    with pytest.raises(ParseError) as err:
        parse(dup)
    assert "duplicate target" in str(err.value)

    shared = doc()
    shared["targets"].append({
        "id": "site_b",
        "difficulty": "hard",
        "elements": [{"element_id": "e1", "points": 4}],
        "max_points": 4,
    })
    with pytest.raises(ParseError) as err:
        parse(shared)
    assert "two targets" in str(err.value)

    bad_difficulty = doc()
    bad_difficulty["targets"][0]["difficulty"] = "medium"
    with pytest.raises(ParseError):
        parse(bad_difficulty)


LEDGER = {
    "generator": {"algorithm": "python-random-mt19937", "seed": 1},
    "planted": [{"team": 1, "level": 1, "kind": "omission", "proposition_id": "p",
                 "positions": [1, 2, 3]}],
}
# One fault per document reader: the value set at a key path of BASE (or of
# LEDGER, under "planted"), and the error it reads as; each key names the
# value's place from the document root, list items by index.
DOCUMENT_FAULTS = {
    "role item": ("roles.1", "", (
        ParseError, "case.json (roles.1): role must be a non-empty string")),
    "level entry not an object": ("levels.1", 5, (
        ParseError, "case.json (levels.1): level entry must be an object")),
    "level id": ("levels.0.level", 0, (
        ParseError, "case.json (levels.0.level): level 0 must be >= 1")),
    "level field": ("levels.1.duration_seconds", "240", (
        ParseError,
        "case.json (levels.1.duration_seconds): duration_seconds must be a number")),
    "ground_truth key": ("ground_truth.01", {"facts": {}, "coverage": []}, (
        ParseError, "case.json (ground_truth.01): ground_truth key '01' is not a level id")),
    "fact polarity": ("ground_truth.1.facts.dog", "sideways", (
        ParseError, "case.json (ground_truth.1.facts.dog): polarity of 'dog' must be one "
                    "of: positive, negative")),
    "empty fact id": ("ground_truth.1.facts", {"": "positive"}, (
        ParseError, "case.json (ground_truth.1.facts): fact id must be a non-empty string")),
    "repeated coverage id": ("ground_truth.1.coverage.2", "cat", (
        ParseError, "case.json (ground_truth.1.coverage.2): duplicate coverage id 'cat'")),
    "expected_knowledge role": ("ground_truth.1.expected_knowledge.ghost", ["cat"], (
        DanglingReference, "case.json (ground_truth.1.expected_knowledge.ghost): "
                           "expected_knowledge names undeclared role 'ghost'")),
    "target field": ("targets.0.difficulty", "medium", (
        ParseError, "case.json (targets.0.difficulty): difficulty must be one of: easy, hard")),
    "element repeated in one target": ("targets.0.elements.1.element_id", "e1", (
        ParseError,
        "case.json (targets.0.elements.1.element_id): duplicate element 'e1' in 'site_a'")),
    "element declared by two targets": ("targets", [*BASE["targets"], {
        "id": "site_b", "difficulty": "hard", "elements": [{"element_id": "e2", "points": 1}],
        "max_points": 1}], (
        ParseError,
        "case.json (targets.1.elements.0.element_id): element 'e2' declared by two targets")),
    "element points": ("targets.0.elements.1.points", "1", (
        ParseError, "case.json (targets.0.elements.1.points): points must be an integer")),
    "ledger position": ("planted.0.positions.2", "3", (
        ParseError, "case.json (planted.0.positions.2): position must be an integer")),
    "ledger team": ("planted.0.team", -3, (
        ParseError, "case.json (planted.0.team): team -3 must be >= 1")),
    "ledger level": ("planted.0.level", 0, (
        ParseError, "case.json (planted.0.level): level 0 must be >= 1")),
}


@pytest.mark.parametrize("case", sorted(DOCUMENT_FAULTS))
def test_one_fault_documents_read_as_pinned(case, tmp_path, monkeypatch):
    key, value, expected = DOCUMENT_FAULTS[case]
    ledger = key.startswith("planted.")
    document = copy.deepcopy(LEDGER if ledger else BASE)
    *parents, last = key.split(".")
    node = document
    for segment in parents:
        node = node[int(segment) if isinstance(node, list) else segment]
    node[int(last) if isinstance(node, list) else last] = value
    monkeypatch.chdir(tmp_path)
    with open("case.json", "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    with pytest.raises(SmmError) as err:
        (load_ledger if ledger else load_scenario)("case.json")
    assert (type(err.value), str(err.value)) == expected


def test_ledger_rejects_a_repeated_planting(tmp_path):
    # each planted id realizes one discrepancy: a second planting of the same
    # (team, level, id) could never be detected, whatever its kind
    document = copy.deepcopy(LEDGER)
    document["planted"].append(dict(document["planted"][0], kind="unsupported"))
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_ledger(str(path))
    assert str(err.value) == (f"{path} (planted.1.proposition_id): duplicate planting "
                              "of 'p' in team 1 level 1")


# --- event streams -----------------------------------------------------------

SCENARIO = parse(BASE)


def update_line(**overrides):
    record = {
        "type": "update",
        "ordinal": 1,
        "team": 4,
        "level": 1,
        "t": 12.5,
        "actor": "alpha",
        "op": "assert",
        "proposition": {"id": "cat", "polarity": "positive"},
    }
    record.update(overrides)
    return json.dumps(record)


def test_parses_update_defaults():
    records = parse_events(update_line() + "\n", SCENARIO)
    event = records[0]
    assert isinstance(event, UpdateEvent)
    assert event.attitude is Attitude.BELIEF
    assert event.utterance_ref is None
    assert event.op is EventOp.ASSERT


def test_blank_lines_are_skipped():
    text = "\n" + update_line() + "\n\n   \n" + json.dumps({
        "type": "confirmation", "team": 4, "level": 1, "t": 20.0,
        "element_id": "e1"}) + "\n\n"
    records = parse_events(text, SCENARIO)
    assert len(records) == 2
    assert isinstance(records[1], Confirmation)


def test_attitude_and_utterance_ref_preserved():
    line = update_line(attitude="goal", utterance_ref="u-0042")
    event = parse_events(line + "\n", SCENARIO)[0]
    assert event.attitude is Attitude.GOAL
    assert event.utterance_ref == "u-0042"


def test_ordinal_regression_detected():
    text = update_line(ordinal=7) + "\n" + update_line(ordinal=7, t=30.0) + "\n"
    with pytest.raises(OrdinalRegression) as err:
        parse_events(text, SCENARIO, path="s.jsonl")
    assert err.value.line == 2
    assert str(err.value).startswith("s.jsonl:2")
    # independent (team, level) streams do not interfere
    ok = update_line(ordinal=7) + "\n" + update_line(ordinal=7, team=5) + "\n"
    assert len(parse_events(ok, SCENARIO)) == 2


def test_time_outside_level_duration():
    with pytest.raises(OutOfRangeTime) as err:
        parse_events(update_line(level=2, t=240.5) + "\n", SCENARIO)
    assert "240.5" in str(err.value)
    with pytest.raises(OutOfRangeTime):
        parse_events(update_line(t=-0.1) + "\n", SCENARIO)
    # boundary values are legal
    assert parse_events(update_line(t=0.0) + "\n", SCENARIO)
    assert parse_events(update_line(t=300.0) + "\n", SCENARIO)


def test_undeclared_actor_is_unknown_agent():
    with pytest.raises(UnknownAgent) as err:
        parse_events(update_line(actor="ghost") + "\n", SCENARIO, path="s.jsonl")
    assert err.value.line == 1
    assert "'ghost'" in str(err.value)


def test_undeclared_level_is_dangling_reference():
    with pytest.raises(DanglingReference):
        parse_events(update_line(level=9) + "\n", SCENARIO)


def test_unknown_confirmation_element():
    line = json.dumps({"type": "confirmation", "team": 1, "level": 1,
                       "t": 5.0, "element_id": "e99"})
    with pytest.raises(UnknownElement) as err:
        parse_events(line + "\n", SCENARIO)
    assert "'e99'" in str(err.value)


def test_unknown_record_type():
    with pytest.raises(ParseError) as err:
        parse_events('{"type": "telemetry"}\n', SCENARIO)
    assert "'telemetry'" in str(err.value)


def test_record_must_be_object():
    with pytest.raises(ParseError):
        parse_events("[1, 2]\n", SCENARIO)


def test_missing_field_names_the_field():
    bad = json.loads(update_line())
    del bad["team"]
    with pytest.raises(ParseError) as err:
        parse_events(json.dumps(bad) + "\n", SCENARIO, path="s.jsonl")
    assert str(err.value).startswith("s.jsonl:1 (team):")


def test_bad_op_and_bool_rejection():
    with pytest.raises(ParseError):
        parse_events(update_line(op="mutter") + "\n", SCENARIO)
    with pytest.raises(ParseError):
        parse_events(update_line(team=True) + "\n", SCENARIO)
    with pytest.raises(ParseError):
        parse_events(update_line(ordinal=0) + "\n", SCENARIO)


def test_invalid_jsonl_reports_line():
    text = update_line() + "\n{oops\n"
    with pytest.raises(ParseError) as err:
        parse_events(text, SCENARIO, path="s.jsonl")
    assert err.value.line == 2


def test_non_json_constant_in_events_reports_line_and_column():
    # a string holding the token comes first, so the location must skip it
    doc = json.loads(update_line(ordinal=2, t=30.0))
    bad = json.dumps({"utterance_ref": 'said "NaN"', **doc, "t": float("nan")})
    with pytest.raises(ParseError) as err:
        parse_events(update_line() + "\n" + bad + "\n", SCENARIO, path="s.jsonl")
    assert (err.value.line, err.value.column) == (2, bad.index(": NaN") + 3)
    assert str(err.value).startswith("s.jsonl:2:")


def test_raw_line_separators_inside_strings_parse():
    # JSON allows U+2028 and U+0085 raw inside strings; only "\n" ends a record
    ref = "u-\u2028-\x85-1"
    line = json.dumps(json.loads(update_line(utterance_ref=ref)), ensure_ascii=False)
    records = parse_events(line + "\n", SCENARIO)
    assert records[0].utterance_ref == ref
    assert parse_events(dump_events(records), SCENARIO) == records


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_event_file_line_endings_and_undecodable_byte(tmp_path, newline):
    lines = [update_line(), update_line(ordinal=2, t=30.0)]
    path = tmp_path / "s.jsonl"
    path.write_bytes((newline.join(lines) + newline).encode())
    assert load_events(str(path), SCENARIO) == parse_events("\n".join(lines), SCENARIO)
    path.write_bytes(path.read_bytes() + b'{"type": "up\xffdate"}' + newline.encode())
    with pytest.raises(ParseError) as err:
        load_events(str(path), SCENARIO)
    assert (err.value.path, err.value.line, err.value.column) == (str(path), 3, 13)
    assert "0xff" in str(err.value)


def test_undecodable_scenario_reports_line(tmp_path):
    text = json.dumps(BASE, indent=2).replace("\n", "\r\n")
    path = tmp_path / "scenario.json"
    path.write_bytes(text.encode().replace(b"hand-built", b"hand\xc3built"))
    with pytest.raises(ParseError) as err:
        load_scenario(str(path))
    line = text[:text.index("hand-built")].count("\n") + 1
    assert (err.value.path, err.value.line) == (str(path), line)


def test_scenario_round_trip():
    scenario = parse(BASE)
    again = parse_scenario(dump_scenario(scenario), path="copy.json")
    assert again == scenario
    # serialization itself is stable
    assert dump_scenario(again) == dump_scenario(scenario)


def test_events_round_trip_with_confirmations():
    records = parse_events(
        update_line(attitude="commitment", utterance_ref="u-7") + "\n"
        + update_line(ordinal=2, op="retract", t=40.0) + "\n"
        + json.dumps({"type": "confirmation", "team": 4, "level": 2,
                      "t": 100.0, "element_id": "e2"}) + "\n",
        SCENARIO,
    )
    text = dump_events(records)
    assert parse_events(text, SCENARIO) == records
    assert dump_events(parse_events(text, SCENARIO)) == text


def test_generated_corpora_round_trip():
    for seed in range(6):
        corpus = generate(GenConfig(teams=2, levels=2, seed=seed,
                                    min_events_per_level=25))
        scenario = parse_scenario(dump_scenario(corpus.scenario))
        assert scenario == corpus.scenario
        for team, events in corpus.events_by_team.items():
            text = dump_events(events)
            assert tuple(parse_events(text, scenario)) == events


def reference_line(record):
    """One events line as ``json.dumps`` writes the record's document."""
    if isinstance(record, UpdateEvent):
        doc = {
            "type": "update", "ordinal": record.ordinal, "team": record.team,
            "level": record.level, "t": record.t, "actor": record.actor,
            "op": record.op.value,
            "proposition": {"id": record.proposition_id,
                            "polarity": record.polarity.value},
            "attitude": record.attitude.value,
        }
        if record.utterance_ref is not None:
            doc["utterance_ref"] = record.utterance_ref
    else:
        doc = {"type": "confirmation", "team": record.team, "level": record.level,
               "t": record.t, "element_id": record.element_id}
    return json.dumps(doc, separators=(",", ":")) + "\n"


def test_dump_events_writes_what_json_dumps_writes():
    odd = 'caf\u00e9 "q" \\ \x00\x1f\t\u2028\U0001f600'
    records = [
        UpdateEvent(1, 4, 2, 0.1, odd, EventOp.ASSERT, odd, Polarity.NEGATIVE,
                    Attitude.GOAL, odd),
        UpdateEvent(2, 4, 2, 30, "alpha", EventOp.RETRACT, "p", Polarity.POSITIVE,
                    Attitude.COMMITMENT),
        UpdateEvent(3, 4, 2, 479.99999999999994, "bravo", EventOp.ASSERT, "p",
                    Polarity.POSITIVE, Attitude.BELIEF, ""),
        Confirmation(team=4, level=2, t=100, element_id=odd),
        Confirmation(team=4, level=2, t=1e-07, element_id="e2"),
    ]
    lines = dump_events(records).splitlines(keepends=True)
    assert lines == [reference_line(record) for record in records]
    assert all(line.isascii() for line in lines)


def reference_scenario(scenario):
    """The scenario file as ``json.dumps`` writes the scenario's document."""
    doc = {
        "schema_version": 1,
        "roles": list(scenario.roles),
        "levels": [{"level": level, "duration_seconds": duration}
                   for level, duration in scenario.durations.items()],
        "ground_truth": {
            str(level): {
                "facts": {pid: gt.facts[pid].value for pid in sorted(gt.facts)},
                "coverage": sorted(gt.coverage),
                "expected_knowledge": {agent: sorted(gt.expected_knowledge[agent])
                                       for agent in sorted(gt.expected_knowledge)},
            }
            for level, gt in sorted(scenario.ground_truth.items())
        },
        "targets": [
            {"id": target.id, "difficulty": target.difficulty.value,
             "elements": [{"element_id": element_id, "points": points}
                          for element_id, points in target.elements],
             "max_points": target.max_points}
            for target in scenario.targets
        ],
    }
    if scenario.notes is not None:
        doc["notes"] = scenario.notes
    return json.dumps(doc, indent=2) + "\n"


ODD_IDS = ["caf\u00e9", 'say "hi"', "back\\slash", "\U0001f600\u2028", ""]
ODD_ROLES = ("\u00e9l\u00e8ve", 'q"uote', "b\\s")
ODD_SCENARIOS = {
    "odd ids": Scenario(
        roles=ODD_ROLES,
        durations={1: 300.0, 2: 240, 3: 1e-07},
        ground_truth={
            1: GroundTruth.build(
                {pid: polarity for pid, polarity in zip(ODD_IDS, (Polarity.NEGATIVE,
                                                                  Polarity.POSITIVE) * 3)},
                set(ODD_IDS) | {"z-only-covered"},
                {ODD_ROLES[0]: set(ODD_IDS[:3]), ODD_ROLES[1]: {"\u00fc"},
                 ODD_ROLES[2]: set()}),
            2: GroundTruth.empty(ODD_ROLES),
            3: GroundTruth.build({}, {"b", "a"}, {}),
        },
        targets=(TargetSpec("t\u00e9", Difficulty.HARD, (("e\"1", 2), ("e\\2", 3)), 5),
                 TargetSpec("plain", Difficulty.EASY, (("x", 1),), 1)),
        notes='notes with "quotes", \\ and \u00fc',
    ),
    "no notes, targets or ground truth": Scenario(
        roles=("a", "b"), durations={1: 10.0}, ground_truth={}, targets=()),
    "one fact": Scenario(
        roles=("a", "b"), durations={1: 10.0},
        ground_truth={1: GroundTruth.build({"p": Polarity.POSITIVE}, {"p"}, {"a": {"p"}})},
        targets=(), notes=""),
    "the fixture": load_scenario(fixture_path("scenario_dyad.json")),
}


@pytest.mark.parametrize("scenario", ODD_SCENARIOS.values(), ids=ODD_SCENARIOS.keys())
def test_scenario_writers_write_what_json_dumps_writes(tmp_path, scenario):
    expected = reference_scenario(scenario)
    assert dump_scenario(scenario) == expected
    path = tmp_path / "scenario.json"
    ingest.save_scenario(scenario, str(path))
    assert path.read_bytes() == expected.encode()
    assert expected.isascii()


def test_empty_stream_is_empty():
    assert parse_events("", SCENARIO) == []
    assert dump_events([]) == ""


# --- update records: what each line reads as ---------------------------------

def outcome(text):
    """The records of ``text``, or its first error's type, message and location."""
    try:
        return parse_events(text, SCENARIO, path="s.jsonl")
    except SmmError as exc:
        return type(exc), str(exc), exc.line, exc.column, exc.key


def event(**overrides):
    """The event ``update_line(**overrides)`` reads as."""
    fields = dict(ordinal=1, team=4, level=1, t=12.5, actor="alpha", op=EventOp.ASSERT,
                  proposition_id="cat", polarity=Polarity.POSITIVE,
                  attitude=Attitude.BELIEF, utterance_ref=None)
    fields.update(overrides)
    return UpdateEvent(**fields)


# Each line has one fault, the "leading whitespace" one none; a line with
# several faults reports the first in the order docs/formats.md gives.
ONE_FAULT = {
    "true as team": (update_line(team=True), (
        ParseError, "s.jsonl:2 (team): team must be an integer", 2, None, "team")),
    "float ordinal": (update_line(ordinal=2.0), (
        ParseError, "s.jsonl:2 (ordinal): ordinal must be an integer", 2, None, "ordinal")),
    "missing field": (
        json.dumps({k: v for k, v in json.loads(update_line()).items() if k != "actor"}),
        (ParseError, "s.jsonl:2 (actor): missing field 'actor' in update record", 2, None,
         "actor")),
    "extra field": (update_line(mood="calm"), (
        ParseError, "s.jsonl:2 (mood): unknown field 'mood' in update record", 2, None,
        "mood")),
    "list as op": (update_line(op=["assert"]), (
        ParseError, "s.jsonl:2 (op): op must be one of: assert, retract", 2, None, "op")),
    "bad polarity": (update_line(proposition={"id": "cat", "polarity": "neutral"}), (
        ParseError,
        "s.jsonl:2 (proposition.polarity): polarity must be one of: positive, negative",
        2, None, "proposition.polarity")),
    "third proposition key": (
        update_line(proposition={"id": "cat", "polarity": "positive", "weight": 1}),
        (ParseError, "s.jsonl:2 (proposition.weight): unknown field 'weight' in proposition",
         2, None, "proposition.weight")),
    "leading whitespace": ("  " + update_line(), [event(team=3), event()]),
    "trailing data": (update_line() + " {}", (
        ParseError, "s.jsonl:2:156: Extra data", 2, 156, None)),
    "NaN": (update_line().replace("12.5", "NaN"), (
        ParseError, "s.jsonl:2:62: NaN is not a JSON value", 2, 62, None)),
    "non-string utterance_ref": (update_line(utterance_ref=7), (
        ParseError, "s.jsonl:2 (utterance_ref): utterance_ref must be a string", 2, None,
        "utterance_ref")),
    "t out of range": (update_line(t=300.5), (
        OutOfRangeTime, "s.jsonl:2 (t): t=300.5 outside [0, 300.0] for level 1", 2, None,
        "t")),
    "ordinal regression": (update_line(team=3, t=30.0), (
        OrdinalRegression,
        "s.jsonl:2 (ordinal): ordinal 1 does not exceed previous 1 for team 3 level 1",
        2, None, "ordinal")),
}


@pytest.mark.parametrize("case", sorted(ONE_FAULT))
def test_one_fault_lines_read_as_pinned(case):
    # the first line opens team 3's stream; each case but the regression is team 4's first
    line, expected = ONE_FAULT[case]
    assert outcome(update_line(team=3) + "\n" + line + "\n") == expected


WELL_FORMED = {
    "keys in another order": (
        json.dumps(dict(reversed(json.loads(
            update_line(attitude="goal", utterance_ref="u-1")).items()))),
        event(attitude=Attitude.GOAL, utterance_ref="u-1")),
    "attitude and utterance_ref absent": (update_line(), event()),
    "integer t": (update_line(t=12), event(t=12.0)),
    # a repeated key keeps its last value
    "duplicate keys": (update_line()[:-1] + ', "t": 14.0, "op": "retract"}',
                       event(t=14.0, op=EventOp.RETRACT)),
    "padded duplicate keys": (" " + update_line()[:-1] + ', "t": 14.0, "op": "retract"} ',
                              event(t=14.0, op=EventOp.RETRACT)),
    "null utterance_ref": (update_line(utterance_ref=None), event()),
}


@pytest.mark.parametrize("case", sorted(WELL_FORMED))
def test_well_formed_lines_read_as_pinned(case):
    line, expected = WELL_FORMED[case]
    text = update_line(ordinal=2, actor="bravo") + "\n" + line.replace(
        '"ordinal": 1', '"ordinal": 3') + "\n"
    assert outcome(text) == [event(ordinal=2, actor="bravo"),
                             dataclasses.replace(expected, ordinal=3)]


# Two faults of neighbouring checks in docs/formats.md's order: the line
# reports the earlier check's error.
TWO_FAULTS = {
    "unknown field, missing field": (
        json.dumps({k: v for k, v in json.loads(update_line(mood="calm")).items()
                    if k != "actor"}), ParseError, "mood"),
    "missing field, ordinal type": (
        json.dumps({k: v for k, v in json.loads(update_line(ordinal=2.0)).items()
                    if k != "actor"}), ParseError, "actor"),
    "ordinal type, team type": (update_line(ordinal=2.0, team=True), ParseError, "ordinal"),
    "level type, t type": (update_line(level=True, t="12"), ParseError, "level"),
    "t type, actor": (update_line(t="12", actor=""), ParseError, "t"),
    "actor, op": (update_line(actor=5, op="Assert"), ParseError, "actor"),
    "op, proposition": (update_line(op=["assert"], proposition=[]), ParseError, "op"),
    "proposition fields, id": (update_line(proposition={"id": ""}), ParseError,
                               "proposition.polarity"),
    "id, polarity": (update_line(proposition={"id": "", "polarity": "neutral"}),
                     ParseError, "proposition.id"),
    "polarity, attitude": (
        update_line(proposition={"id": "cat", "polarity": "neutral"}, attitude="wish"),
        ParseError, "proposition.polarity"),
    "attitude, utterance_ref": (update_line(attitude="wish", utterance_ref=7), ParseError,
                                "attitude"),
    "utterance_ref, level": (update_line(utterance_ref=7, level=3), ParseError,
                             "utterance_ref"),
    "level, actor declared": (update_line(level=3, actor="carol"), DanglingReference,
                              "level"),
    "actor declared, t range": (update_line(actor="carol", t=300.5), UnknownStreamAgent,
                                "actor"),
    "t range, ordinal": (update_line(t=300.5, ordinal=0), OutOfRangeTime, "t"),
    "ordinal, ordinal order": (update_line(ordinal=0, team=3), ParseError, "ordinal"),
}


@pytest.mark.parametrize("case", sorted(TWO_FAULTS))
def test_two_fault_lines_report_the_earlier_check(case):
    line, error, key = TWO_FAULTS[case]
    found = outcome(update_line(team=3) + "\n" + line + "\n")
    assert (found[0], found[2], found[4]) == (error, 2, key)


# each key's plausible values, then values of a wrong type for any key
SWEEP_VALUES = {
    "type": ["update", "confirmation", "note"],
    "ordinal": [0, 1, 2, 3],
    "team": [3, 4, 5],
    "level": [1, 2, 3],
    "t": [0, 12, 240.5, 300.5, -0.5],
    "actor": ["alpha", "bravo", "carol"],
    "op": ["assert", "retract", "Assert"],
    "proposition": [{"id": "cat", "polarity": "negative"}, {"id": "cat"},
                    {"id": "", "polarity": "positive"}, {"id": 5, "polarity": "positive"},
                    {"id": "dog", "polarity": "positive", "weight": 1},
                    {"polarity": "neutral", "id": "cat"}],
    "attitude": ["goal", "belief", "wish"],
    "utterance_ref": [None, "u-1"],
    "element_id": ["e1", "e3"],
    "mood": ["calm"],
}
WRONG_TYPES = [True, None, 2.0, 10 ** 400, "", [], ["assert"], {}]


def sweep_streams(seed, count):
    """``count`` four-line streams over two teams, each with one line mutated:
    field values set, keys removed, added or reordered, the line cut short
    or given a repeated key, and padded."""
    rng = random.Random(seed)
    for _ in range(count):
        docs = [json.loads(update_line(team=3)),
                json.loads(update_line(actor="bravo", t=20.0)),
                {"type": "confirmation", "team": 3, "level": 2, "t": 15.0, "element_id": "e2"},
                json.loads(update_line(team=3, ordinal=2, t=40.0, op="retract"))]
        target = rng.randrange(len(docs))
        doc = docs[target]
        for _ in range(rng.randint(1, 2)):
            move = rng.randrange(4)
            key = rng.choice(list(doc) if doc and rng.random() < 0.8 else list(SWEEP_VALUES))
            value = rng.choice(SWEEP_VALUES[key] if rng.random() < 0.7 else WRONG_TYPES)
            if move == 0:
                doc[key] = value
            elif move == 1 and doc:
                del doc[rng.choice(list(doc))]
            elif move == 2:
                doc.setdefault(key, value)
            else:
                items = list(doc.items())
                rng.shuffle(items)
                docs[target] = doc = dict(items)
        lines = [json.dumps(d, separators=rng.choice([(",", ":"), (", ", ": ")]))
                 for d in docs]
        line = lines[target]
        move = rng.randrange(10)
        if move == 0:
            line = line[:rng.randrange(len(line))]
        elif move < 3 and line.endswith("}"):
            key = rng.choice(list(SWEEP_VALUES))
            line = f'{line[:-1]}, "{key}": {json.dumps(rng.choice(SWEEP_VALUES[key]))}}}'
        if rng.random() < 0.2:
            line = rng.choice([" ", "\t", "  "]) + line + rng.choice(["", " ", "\r"])
        lines[target] = line
        yield "\n".join(lines) + "\n"


def test_mutated_streams_read_as_pinned():
    outcomes = [outcome(text) for text in sweep_streams(seed=15, count=1000)]
    errors = {case[0] for case in outcomes if isinstance(case, tuple)}
    assert errors == {ParseError, DanglingReference, OutOfRangeTime, UnknownStreamAgent,
                      UnknownStreamElement, OrdinalRegression}
    assert sum(isinstance(case, list) for case in outcomes) > 100
    # records hash as the writer's bytes, which do not depend on how a record
    # type spells its fields; error tuples hash as they are
    pinned = [dump_events(case) if isinstance(case, list) else case for case in outcomes]
    digest = hashlib.sha256(repr(pinned).encode()).hexdigest()
    assert digest == "4f0688c5283503d593c4cda52ab0f7e5bd18dcd6ed7792c2d29ba4397fbcd259"


# --- JSON the decoder reads but no reader may accept -------------------------

DEEP = "[" * 200_000
LONG_INTEGER = "1" * 5_000


def test_scenario_rejects_long_integer_deep_nesting_and_overflow():
    text = json.dumps(BASE, indent=2)
    schema_line = text.splitlines().index('  "schema_version": 1,') + 1
    with pytest.raises(ParseError) as err:
        parse_scenario(text.replace('"schema_version": 1,',
                                    f'"schema_version": {LONG_INTEGER},'), path="s.json")
    assert (err.value.line, err.value.column) == (schema_line, 21)
    assert "more than" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_scenario(text.replace('"hand-built"', DEEP), path="s.json")
    assert str(err.value).startswith("s.json:1: ")

    with pytest.raises(ParseError) as err:
        parse_scenario(text.replace("300.0", "1e999"), path="s.json")
    assert err.value.key == "levels.0.duration_seconds"
    assert "finite" in str(err.value)


def test_events_reject_long_integer_deep_nesting_and_overflow():
    first = update_line() + "\n"
    long_ordinal = update_line(ordinal=2).replace('"ordinal": 2', f'"ordinal": {LONG_INTEGER}')
    with pytest.raises(ParseError) as err:
        parse_events(first + long_ordinal + "\n", SCENARIO, path="s.jsonl")
    assert (err.value.line, err.value.column) == (2, long_ordinal.index(LONG_INTEGER) + 1)

    with pytest.raises(ParseError) as err:
        parse_events(first + DEEP + "\n", SCENARIO, path="s.jsonl")
    assert str(err.value).startswith("s.jsonl:2: ")

    for t in ("1e999", "9" * 400):  # a double overflow, an integer no double holds
        with pytest.raises(ParseError) as err:
            parse_events(first + update_line(ordinal=2).replace("12.5", t) + "\n",
                         SCENARIO, path="s.jsonl")
        assert (err.value.line, err.value.key) == (2, "t")
        assert "finite" in str(err.value)
