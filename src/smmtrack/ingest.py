"""Reading and writing scenario and event-stream files.

A scenario is one UTF-8 JSON document: agent roles, levels with durations,
per-level ground truth, and scoreable targets.  Event streams are UTF-8 JSON
Lines, one record per line, discriminated by a ``type`` field that is either
``update`` (a belief-model move) or ``confirmation`` (a sighted target
element).  Parsing is strict: the first invalid record aborts with an error
carrying a source location, because silently dropped records would corrupt
the downstream counts.

Field names here are normative; docs/formats.md documents them.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, NoReturn, Sequence

from .beliefs import (
    AgentId,
    Attitude,
    EventOp,
    GroundTruth,
    LevelId,
    Polarity,
    Proposition,
    TeamId,
    UpdateEvent,
)
from .errors import (
    DanglingReference,
    OrdinalRegression,
    OutOfRangeTime,
    ParseError,
    UnknownStreamAgent,
    UnknownStreamElement,
    UnknownVersion,
)
from .scoring import Difficulty, TargetSpec

SCHEMA_VERSIONS = frozenset({1})

_SCENARIO_FIELDS = frozenset(
    {"schema_version", "roles", "levels", "ground_truth", "targets", "notes"}
)
_GT_FIELDS = frozenset({"facts", "coverage", "expected_knowledge"})
_UPDATE_FIELDS = frozenset(
    {"type", "ordinal", "team", "level", "t", "actor", "op", "proposition",
     "attitude", "utterance_ref"}
)
_CONFIRMATION_FIELDS = frozenset({"type", "team", "level", "t", "element_id"})


@dataclass(frozen=True)
class LevelSpec:
    level: LevelId
    duration_seconds: float


@dataclass(frozen=True)
class Confirmation:
    """A team's explicit report of having seen a target element."""

    team: TeamId
    level: LevelId
    t: float
    element_id: str


Record = UpdateEvent | Confirmation


@dataclass(frozen=True)
class Scenario:
    """Validated scenario document: the static context every stream needs."""

    schema_version: int
    roles: tuple[AgentId, ...]
    levels: tuple[LevelSpec, ...]
    ground_truth: Mapping[LevelId, GroundTruth]
    targets: tuple[TargetSpec, ...]
    notes: str | None = None

    def level_ids(self) -> tuple[LevelId, ...]:
        return tuple(spec.level for spec in self.levels)

    def duration(self, level: LevelId) -> float:
        for spec in self.levels:
            if spec.level == level:
                return spec.duration_seconds
        raise KeyError(level)

    def element_ids(self) -> frozenset[str]:
        ids: set[str] = set()
        for target in self.targets:
            ids.update(target.element_ids())
        return frozenset(ids)


# --- field-level checks ------------------------------------------------------

def _fail(message: str, path: str, *, key: str | None = None,
          line: int | None = None) -> None:
    raise ParseError(message, path=path, key=key, line=line)


def _as_object(value: Any, what: str, path: str, *, key: str | None = None,
               line: int | None = None) -> dict:
    if not isinstance(value, dict):
        _fail(f"{what} must be an object", path, key=key, line=line)
    return value


def _as_list(value: Any, what: str, path: str, *, key: str | None = None,
             line: int | None = None) -> list:
    if not isinstance(value, list):
        _fail(f"{what} must be a list", path, key=key, line=line)
    return value


def _as_id(value: Any, what: str, path: str, *, key: str | None = None,
           line: int | None = None) -> str:
    if not isinstance(value, str) or not value:
        _fail(f"{what} must be a non-empty string", path, key=key, line=line)
    return value


def _as_int(value: Any, what: str, path: str, *, key: str | None = None,
            line: int | None = None) -> int:
    # bool is an int subclass; reject it explicitly
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(f"{what} must be an integer", path, key=key, line=line)
    return value


def _as_number(value: Any, what: str, path: str, *, key: str | None = None,
               line: int | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{what} must be a number", path, key=key, line=line)
    return float(value)


def _as_enum(value: Any, enum_cls: type, what: str, path: str, *,
             key: str | None = None, line: int | None = None):
    try:
        return enum_cls(value)
    except ValueError:
        valid = ", ".join(member.value for member in enum_cls)
        _fail(f"{what} must be one of: {valid}", path, key=key, line=line)


def _check_fields(doc: dict, allowed: frozenset[str], required: Iterable[str],
                  what: str, path: str, *, key_prefix: str = "",
                  line: int | None = None) -> None:
    for name in doc:
        if name not in allowed:
            _fail(f"unknown field {name!r} in {what}", path,
                  key=key_prefix + str(name), line=line)
    for name in required:
        if name not in doc:
            _fail(f"missing field {name!r} in {what}", path,
                  key=key_prefix + name, line=line)


def _read_text(path: str) -> str:
    """The UTF-8 text of ``path``, with ``\\r\\n`` and ``\\r`` read as ``\\n``.

    Raises:
        ParseError: an undecodable byte, at its line and column.
        OSError: unreadable file.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return _newlines(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        before = _newlines(data[:exc.start].decode("utf-8"))
        raise ParseError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}", path=path,
                         line=before.count("\n") + 1,
                         column=len(before) - before.rfind("\n")) from None


def _newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


class _NonJsonConstant(Exception):
    """A ``NaN``, ``Infinity`` or ``-Infinity`` token, which Python's json
    reads but JSON does not allow."""


def _reject_constant(token: str) -> NoReturn:
    raise _NonJsonConstant(token)


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
# a JSON string, or a constant token outside strings (group 1)
_CONSTANT = re.compile(r'"(?:[^"\\]|\\.)*"|(-?Infinity|NaN)')


def _decode(text: str, path: str, line: int = 1) -> Any:
    """The JSON value in ``text``, which starts at ``line`` of ``path``.

    Raises:
        ParseError: malformed JSON or a non-JSON constant, at its line and column.
    """
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, path=path, line=line + exc.lineno - 1,
                         column=exc.colno) from None
    except _NonJsonConstant as exc:
        # the text before the token parsed, so the first match outside strings is it
        start = next(m for m in _CONSTANT.finditer(text) if m.group(1)).start(1)
        before = text[:start]
        raise ParseError(f"{exc} is not a JSON value", path=path,
                         line=line + before.count("\n"),
                         column=start - before.rfind("\n")) from None


# --- scenario parsing --------------------------------------------------------

def parse_scenario(text: str, *, path: str = "<scenario>") -> Scenario:
    doc = _as_object(_decode(text, path), "scenario", path)
    _check_fields(doc, _SCENARIO_FIELDS,
                  ("schema_version", "roles", "levels", "ground_truth", "targets"),
                  "scenario", path)

    version = _as_int(doc["schema_version"], "schema_version", path,
                      key="schema_version")
    if version not in SCHEMA_VERSIONS:
        supported = ", ".join(str(v) for v in sorted(SCHEMA_VERSIONS))
        raise UnknownVersion(
            f"schema_version {version} unsupported (supported: {supported})",
            path=path, key="schema_version")

    roles = _parse_roles(doc["roles"], path)
    levels = _parse_levels(doc["levels"], path)
    ground_truth = _parse_ground_truth(doc["ground_truth"], roles, levels, path)
    targets = _parse_targets(doc["targets"], path)

    notes = doc.get("notes")
    if notes is not None and not isinstance(notes, str):
        _fail("notes must be a string", path, key="notes")

    return Scenario(
        schema_version=version,
        roles=roles,
        levels=levels,
        ground_truth=ground_truth,
        targets=targets,
        notes=notes,
    )


def load_scenario(path: str) -> Scenario:
    """Read, parse, and fully validate a scenario file.

    Raises:
        ParseError: malformed document or structural violation.
        UnknownVersion: unrecognized ``schema_version``.
        DanglingReference: cross-reference to something undeclared.
        OSError: unreadable file.
    """
    return parse_scenario(_read_text(path), path=path)


def _parse_roles(value: Any, path: str) -> tuple[AgentId, ...]:
    items = _as_list(value, "roles", path, key="roles")
    if not items:
        _fail("roles must be non-empty", path, key="roles")
    roles: list[AgentId] = []
    for item in items:
        agent = _as_id(item, "role", path, key="roles")
        if agent in roles:
            _fail(f"duplicate agent id {agent!r}", path, key="roles")
        roles.append(agent)
    return tuple(roles)


def _parse_levels(value: Any, path: str) -> tuple[LevelSpec, ...]:
    items = _as_list(value, "levels", path, key="levels")
    if not items:
        _fail("levels must be non-empty", path, key="levels")
    specs: list[LevelSpec] = []
    seen: set[int] = set()
    for item in items:
        obj = _as_object(item, "level entry", path, key="levels")
        _check_fields(obj, frozenset({"level", "duration_seconds"}),
                      ("level", "duration_seconds"), "level entry", path,
                      key_prefix="levels.")
        level = _as_int(obj["level"], "level", path, key="levels.level")
        duration = _as_number(obj["duration_seconds"], "duration_seconds", path,
                              key="levels.duration_seconds")
        if level < 1:
            _fail(f"level {level} must be >= 1", path, key="levels.level")
        if duration <= 0:
            _fail(f"duration_seconds must be positive, got {duration}", path,
                  key="levels.duration_seconds")
        if level in seen:
            _fail(f"duplicate level {level}", path, key="levels.level")
        seen.add(level)
        specs.append(LevelSpec(level=level, duration_seconds=duration))
    specs.sort(key=lambda spec: spec.level)
    if [spec.level for spec in specs] != list(range(1, len(specs) + 1)):
        _fail("levels must be contiguous starting at 1", path, key="levels")
    return tuple(specs)


def _parse_ground_truth(
    value: Any,
    roles: tuple[AgentId, ...],
    levels: tuple[LevelSpec, ...],
    path: str,
) -> dict[LevelId, GroundTruth]:
    table = _as_object(value, "ground_truth", path, key="ground_truth")
    declared = {spec.level for spec in levels}
    parsed: dict[LevelId, GroundTruth] = {}
    for raw_key, entry in table.items():
        try:
            level = int(raw_key)
        except (TypeError, ValueError):
            _fail(f"ground_truth key {raw_key!r} is not a level id", path,
                  key=f"ground_truth.{raw_key}")
        if level not in declared:
            raise DanglingReference(
                f"ground truth given for undeclared level {level}",
                path=path, key=f"ground_truth.{raw_key}")
        parsed[level] = _parse_gt_entry(entry, roles, path,
                                        key_prefix=f"ground_truth.{raw_key}")
    for level in sorted(declared):
        if level not in parsed:
            raise DanglingReference(
                f"no ground truth declared for level {level}",
                path=path, key=f"ground_truth.{level}")
    return parsed


def _parse_gt_entry(value: Any, roles: tuple[AgentId, ...], path: str, *,
                    key_prefix: str) -> GroundTruth:
    obj = _as_object(value, "ground-truth entry", path, key=key_prefix)
    _check_fields(obj, _GT_FIELDS, ("facts", "coverage"),
                  "ground-truth entry", path, key_prefix=key_prefix + ".")

    facts: dict[str, Polarity] = {}
    facts_obj = _as_object(obj["facts"], "facts", path, key=key_prefix + ".facts")
    for pid, raw_polarity in facts_obj.items():
        _as_id(pid, "fact id", path, key=key_prefix + ".facts")
        facts[pid] = _as_enum(raw_polarity, Polarity, f"polarity of {pid!r}",
                              path, key=f"{key_prefix}.facts.{pid}")

    coverage: set[str] = set()
    for item in _as_list(obj["coverage"], "coverage", path,
                         key=key_prefix + ".coverage"):
        pid = _as_id(item, "coverage id", path, key=key_prefix + ".coverage")
        if pid in coverage:
            _fail(f"duplicate coverage id {pid!r}", path,
                  key=key_prefix + ".coverage")
        coverage.add(pid)

    for pid in sorted(facts):
        if pid not in coverage:
            raise DanglingReference(
                f"fact {pid!r} not listed in coverage",
                path=path, key=f"{key_prefix}.facts.{pid}")

    expected: dict[AgentId, frozenset[str]] = {role: frozenset() for role in roles}
    ek_obj = _as_object(obj.get("expected_knowledge", {}), "expected_knowledge",
                        path, key=key_prefix + ".expected_knowledge")
    for role, raw_ids in ek_obj.items():
        if role not in roles:
            raise DanglingReference(
                f"expected_knowledge names undeclared role {role!r}",
                path=path, key=f"{key_prefix}.expected_knowledge.{role}")
        ids: set[str] = set()
        for item in _as_list(raw_ids, f"expected_knowledge[{role!r}]", path,
                             key=f"{key_prefix}.expected_knowledge.{role}"):
            pid = _as_id(item, "expected id", path,
                         key=f"{key_prefix}.expected_knowledge.{role}")
            if pid in ids:
                _fail(f"duplicate expected id {pid!r} for role {role!r}", path,
                      key=f"{key_prefix}.expected_knowledge.{role}")
            ids.add(pid)
        expected[role] = frozenset(ids)

    return GroundTruth.build(facts, coverage, expected)


def _parse_targets(value: Any, path: str) -> tuple[TargetSpec, ...]:
    items = _as_list(value, "targets", path, key="targets")
    targets: list[TargetSpec] = []
    seen_targets: set[str] = set()
    seen_elements: set[str] = set()
    for item in items:
        obj = _as_object(item, "target", path, key="targets")
        _check_fields(obj, frozenset({"id", "difficulty", "elements", "max_points"}),
                      ("id", "difficulty", "elements", "max_points"),
                      "target", path, key_prefix="targets.")
        target_id = _as_id(obj["id"], "target id", path, key="targets.id")
        if target_id in seen_targets:
            _fail(f"duplicate target id {target_id!r}", path, key="targets.id")
        seen_targets.add(target_id)
        difficulty = _as_enum(obj["difficulty"], Difficulty, "difficulty", path,
                              key=f"targets.{target_id}.difficulty")
        max_points = _as_int(obj["max_points"], "max_points", path,
                             key=f"targets.{target_id}.max_points")
        elements: list[tuple[str, int]] = []
        for element in _as_list(obj["elements"], "elements", path,
                                key=f"targets.{target_id}.elements"):
            element_obj = _as_object(element, "element", path,
                                     key=f"targets.{target_id}.elements")
            _check_fields(element_obj, frozenset({"element_id", "points"}),
                          ("element_id", "points"), "element", path,
                          key_prefix=f"targets.{target_id}.elements.")
            element_id = _as_id(element_obj["element_id"], "element_id", path,
                                key=f"targets.{target_id}.elements")
            points = _as_int(element_obj["points"], "points", path,
                             key=f"targets.{target_id}.elements.{element_id}")
            if element_id in seen_elements:
                _fail(f"element {element_id!r} declared by two targets", path,
                      key=f"targets.{target_id}.elements")
            seen_elements.add(element_id)
            elements.append((element_id, points))
        try:
            targets.append(TargetSpec(
                id=target_id,
                difficulty=difficulty,
                elements=tuple(elements),
                max_points=max_points,
            ))
        except ValueError as exc:
            _fail(str(exc), path, key=f"targets.{target_id}")
    return tuple(targets)


# --- event-stream parsing ----------------------------------------------------

def parse_events(text: str, scenario: Scenario, *, path: str = "<events>",
                 last_ordinal: dict | None = None) -> list[Record]:
    """Parse one event stream, one record per ``\\n``-terminated line (a
    trailing ``\\r`` is JSON whitespace).  ``last_ordinal`` maps each
    (team, level) to its last ordinal; share one dict across files to keep
    order across them."""
    durations = {spec.level: spec.duration_seconds for spec in scenario.levels}
    elements = scenario.element_ids()
    last_ordinal = {} if last_ordinal is None else last_ordinal
    records: list[Record] = []
    # only "\n" ends a record: str.splitlines() would also split at
    # U+2028, U+0085 and the like, which JSON allows raw inside strings
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if not raw.strip():
            continue
        doc = _as_object(_decode(raw, path, lineno), "record", path, line=lineno)
        record_type = doc.get("type")
        if record_type == "update":
            records.append(
                _parse_update(doc, scenario, durations, last_ordinal, path, lineno))
        elif record_type == "confirmation":
            records.append(
                _parse_confirmation(doc, durations, elements, path, lineno))
        else:
            _fail(f"unknown record type {record_type!r}", path, key="type",
                  line=lineno)
    return records


def load_events(path: str, scenario: Scenario, *,
                last_ordinal: dict | None = None) -> list[Record]:
    """Read and validate one event-stream file against a loaded scenario
    (``last_ordinal`` as for :func:`parse_events`).

    Raises:
        ParseError, DanglingReference, OrdinalRegression, OutOfRangeTime,
        UnknownAgent, UnknownElement: first offending record, with location.
        OSError: unreadable file.
    """
    return parse_events(_read_text(path), scenario, path=path,
                        last_ordinal=last_ordinal)


def _check_time(t: float, level: LevelId, durations: Mapping[LevelId, float],
                path: str, lineno: int) -> None:
    duration = durations[level]
    if not 0 <= t <= duration:
        raise OutOfRangeTime(
            f"t={t} outside [0, {duration}] for level {level}",
            path=path, line=lineno, key="t")


def _check_level(level: LevelId, durations: Mapping[LevelId, float],
                 path: str, lineno: int) -> None:
    if level not in durations:
        raise DanglingReference(
            f"record names undeclared level {level}",
            path=path, line=lineno, key="level")


def _parse_update(doc: dict, scenario: Scenario,
                  durations: Mapping[LevelId, float],
                  last_ordinal: dict[tuple[TeamId, LevelId], int],
                  path: str, lineno: int) -> UpdateEvent:
    _check_fields(doc, _UPDATE_FIELDS,
                  ("ordinal", "team", "level", "t", "actor", "op", "proposition"),
                  "update record", path, line=lineno)
    ordinal = _as_int(doc["ordinal"], "ordinal", path, key="ordinal", line=lineno)
    team = _as_int(doc["team"], "team", path, key="team", line=lineno)
    level = _as_int(doc["level"], "level", path, key="level", line=lineno)
    t = _as_number(doc["t"], "t", path, key="t", line=lineno)
    actor = _as_id(doc["actor"], "actor", path, key="actor", line=lineno)
    op = _as_enum(doc["op"], EventOp, "op", path, key="op", line=lineno)

    prop_obj = _as_object(doc["proposition"], "proposition", path,
                          key="proposition", line=lineno)
    _check_fields(prop_obj, frozenset({"id", "polarity"}), ("id", "polarity"),
                  "proposition", path, key_prefix="proposition.", line=lineno)
    pid = _as_id(prop_obj["id"], "proposition id", path, key="proposition.id",
                 line=lineno)
    polarity = _as_enum(prop_obj["polarity"], Polarity, "polarity", path,
                        key="proposition.polarity", line=lineno)

    attitude = Attitude.BELIEF
    if "attitude" in doc:
        attitude = _as_enum(doc["attitude"], Attitude, "attitude", path,
                            key="attitude", line=lineno)
    utterance_ref = doc.get("utterance_ref")
    if utterance_ref is not None and not isinstance(utterance_ref, str):
        _fail("utterance_ref must be a string", path, key="utterance_ref",
              line=lineno)

    _check_level(level, durations, path, lineno)
    if actor not in scenario.roles:
        raise UnknownStreamAgent(
            f"actor {actor!r} not declared by the scenario",
            path=path, line=lineno, key="actor")
    _check_time(t, level, durations, path, lineno)
    if ordinal < 1:
        _fail(f"ordinal {ordinal} must be >= 1", path, key="ordinal", line=lineno)
    stream_key = (team, level)
    previous = last_ordinal.get(stream_key)
    if previous is not None and ordinal <= previous:
        raise OrdinalRegression(
            f"ordinal {ordinal} does not exceed previous {previous} "
            f"for team {team} level {level}",
            path=path, line=lineno, key="ordinal")
    last_ordinal[stream_key] = ordinal

    return UpdateEvent(
        ordinal=ordinal,
        team=team,
        level=level,
        t=t,
        actor=actor,
        op=op,
        proposition=Proposition(id=pid, polarity=polarity),
        attitude=attitude,
        utterance_ref=utterance_ref,
    )


def _parse_confirmation(doc: dict, durations: Mapping[LevelId, float],
                        elements: frozenset[str], path: str,
                        lineno: int) -> Confirmation:
    _check_fields(doc, _CONFIRMATION_FIELDS,
                  ("team", "level", "t", "element_id"),
                  "confirmation record", path, line=lineno)
    team = _as_int(doc["team"], "team", path, key="team", line=lineno)
    level = _as_int(doc["level"], "level", path, key="level", line=lineno)
    t = _as_number(doc["t"], "t", path, key="t", line=lineno)
    element_id = _as_id(doc["element_id"], "element_id", path,
                        key="element_id", line=lineno)
    _check_level(level, durations, path, lineno)
    _check_time(t, level, durations, path, lineno)
    if element_id not in elements:
        raise UnknownStreamElement(
            f"confirmed element {element_id!r} not declared by any target",
            path=path, line=lineno, key="element_id")
    return Confirmation(team=team, level=level, t=t, element_id=element_id)


# --- writing -----------------------------------------------------------------

def dump_scenario(scenario: Scenario) -> str:
    """Serialize a scenario deterministically (stable key and id order)."""
    doc: dict[str, Any] = {
        "schema_version": scenario.schema_version,
        "roles": list(scenario.roles),
        "levels": [
            {"level": spec.level, "duration_seconds": spec.duration_seconds}
            for spec in scenario.levels
        ],
        "ground_truth": {
            str(level): _gt_to_doc(scenario.ground_truth[level])
            for level in sorted(scenario.ground_truth)
        },
        "targets": [
            {
                "id": target.id,
                "difficulty": target.difficulty.value,
                "elements": [
                    {"element_id": element_id, "points": points}
                    for element_id, points in target.elements
                ],
                "max_points": target.max_points,
            }
            for target in scenario.targets
        ],
    }
    if scenario.notes is not None:
        doc["notes"] = scenario.notes
    return json.dumps(doc, indent=2) + "\n"


def _gt_to_doc(gt: GroundTruth) -> dict[str, Any]:
    return {
        "facts": {pid: gt.facts[pid].value for pid in sorted(gt.facts)},
        "coverage": sorted(gt.coverage),
        "expected_knowledge": {
            agent: sorted(gt.expected_knowledge[agent])
            for agent in sorted(gt.expected_knowledge)
        },
    }


def dump_events(records: Iterable[Record]) -> str:
    """Serialize records to JSON Lines in the given order."""
    lines: list[str] = []
    for record in records:
        if isinstance(record, UpdateEvent):
            doc: dict[str, Any] = {
                "type": "update",
                "ordinal": record.ordinal,
                "team": record.team,
                "level": record.level,
                "t": record.t,
                "actor": record.actor,
                "op": record.op.value,
                "proposition": {
                    "id": record.proposition.id,
                    "polarity": record.proposition.polarity.value,
                },
                "attitude": record.attitude.value,
            }
            if record.utterance_ref is not None:
                doc["utterance_ref"] = record.utterance_ref
        else:
            doc = {
                "type": "confirmation",
                "team": record.team,
                "level": record.level,
                "t": record.t,
                "element_id": record.element_id,
            }
        lines.append(json.dumps(doc, separators=(",", ":")))
    return "\n".join(lines) + "\n" if lines else ""


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(dump_scenario(scenario))


def save_events(records: Sequence[Record], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(dump_events(records))
