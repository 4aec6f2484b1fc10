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

import io
import json
import math
import re
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, NoReturn, TextIO

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

SCHEMA_VERSION = 1

_SCENARIO_FIELDS = frozenset(
    {"schema_version", "roles", "levels", "ground_truth", "targets", "notes"}
)
_GT_FIELDS = frozenset({"facts", "coverage", "expected_knowledge"})
_UPDATE_REQUIRED = ("ordinal", "team", "level", "t", "actor", "op", "proposition")
_UPDATE_FIELDS = frozenset({"type", *_UPDATE_REQUIRED, "attitude", "utterance_ref"})
_PROPOSITION_FIELDS = frozenset({"id", "polarity"})
_OPS = {op.value: op for op in EventOp}
_ATTITUDES = {attitude.value: attitude for attitude in Attitude}
_POLARITIES = {polarity.value: polarity for polarity in Polarity}
_CONFIRMATION_FIELDS = frozenset({"type", "team", "level", "t", "element_id"})


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
    """Validated scenario document: the static context every stream needs.

    ``durations`` maps each level to its duration in seconds, in ascending
    level order.  It is a plain dict because event parsing looks a level up
    in it once per record.
    """

    roles: tuple[AgentId, ...]
    durations: dict[LevelId, float]
    ground_truth: Mapping[LevelId, GroundTruth]
    targets: tuple[TargetSpec, ...]
    notes: str | None = None

    def level_ids(self) -> tuple[LevelId, ...]:
        return tuple(self.durations)

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
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the double range
        number = math.inf
    if not math.isfinite(number):  # 1e999 decodes as inf
        _fail(f"{what} must be a finite number", path, key=key, line=line)
    return number


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


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """The object of ``pairs``; a repeated name raises KeyError, which the
    decoder itself never raises."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        counts = Counter(name for name, _ in pairs)
        raise KeyError(next(name for name in doc if counts[name] > 1))
    return doc


# RFC 8259 leaves a repeated name to the reader: documents reject it; event lines
# keep its last value, as their scan does, so a padded line reads as the bare one
_DOCUMENT_DECODER = json.JSONDecoder(parse_constant=_reject_constant,
                                     object_pairs_hook=_unique_keys)
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
# a JSON string (group 1) and the colon after it if it names a field (group 2),
# a brace, or (group 3) a constant token or a number outside strings
_TOKEN = re.compile(
    r'("[^"\\]*(?:\\.[^"\\]*)*")(\s*:)?|[{}]'
    r'|(-?Infinity|NaN|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)')


def _decode(text: str, path: str, line: int = 1,
            decoder: json.JSONDecoder = _DOCUMENT_DECODER) -> Any:
    """The JSON value in ``text``, which starts at ``line`` of ``path``.

    Raises:
        ParseError: malformed JSON, a non-JSON constant or an integer of more
            digits than ``int`` converts, at its line and column; nesting
            deeper than the decoder recurses, at ``line``; a repeated key, at
            its second occurrence.
    """
    try:
        return decoder.decode(text)
    except KeyError as exc:  # from _unique_keys
        raise _repeated_key_error(exc.args[0], text, path, line) from None
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, path=path, line=line + exc.lineno - 1,
                         column=exc.colno) from None
    except _NonJsonConstant as exc:
        raise _token_error(f"{exc} is not a JSON value", text, path, line,
                           lambda token: token == str(exc)) from None
    except RecursionError:
        raise ParseError("JSON nested too deeply", path=path, line=line) from None
    except ValueError:  # int() refuses over sys.get_int_max_str_digits() digits
        limit = sys.get_int_max_str_digits()
        raise _token_error(f"integer of more than {limit} digits", text, path, line,
                           lambda token: token.lstrip("-").isdigit()
                           and len(token.lstrip("-")) > limit) from None


def _token_error(message: str, text: str, path: str, line: int,
                 bad: Callable[[str], bool]) -> ParseError:
    """``message`` at the first token outside strings that ``bad`` accepts;
    the decoder read everything before it, so that token is the culprit."""
    start = next(m.start(3) for m in _TOKEN.finditer(text) if m.group(3) and bad(m.group(3)))
    return _located(message, text, start, path, line)


def _repeated_key_error(key: str, text: str, path: str, line: int) -> ParseError:
    """``key`` at its second occurrence in the first object to close with
    two: the decoder checks each object as it closes, so that is the object
    it rejected, and the same key in sibling objects is no error."""
    open_objects: list[list[int]] = []  # per open object, the offsets where key names a field
    for match in _TOKEN.finditer(text):
        if match.group() == "{":
            open_objects.append([])
        elif match.group() == "}":
            starts = open_objects.pop()
            if len(starts) > 1:
                break
        elif match.group(2) and json.loads(match.group(1)) == key:
            open_objects[-1].append(match.start())
    return _located(f"key {key!r} given twice in one object", text, starts[1], path, line,
                    key=key)


def _located(message: str, text: str, start: int, path: str, line: int,
             key: str | None = None) -> ParseError:
    """``message`` at offset ``start`` of ``text``, which starts at ``line``."""
    before = text[:start]
    return ParseError(message, path=path, line=line + before.count("\n"),
                      column=start - before.rfind("\n"), key=key)


# --- scenario parsing --------------------------------------------------------

def parse_scenario(text: str, *, path: str = "<scenario>") -> Scenario:
    doc = _as_object(_decode(text, path), "scenario", path)
    _check_fields(doc, _SCENARIO_FIELDS,
                  ("schema_version", "roles", "levels", "ground_truth", "targets"),
                  "scenario", path)

    version = _as_int(doc["schema_version"], "schema_version", path,
                      key="schema_version")
    if version != SCHEMA_VERSION:
        raise UnknownVersion(
            f"schema_version {version} unsupported (supported: {SCHEMA_VERSION})",
            path=path, key="schema_version")

    roles = _parse_roles(doc["roles"], path)
    durations = _parse_levels(doc["levels"], path)
    ground_truth = _parse_ground_truth(doc["ground_truth"], roles, durations, path)
    targets = _parse_targets(doc["targets"], path)

    notes = doc.get("notes")
    if notes is not None and not isinstance(notes, str):
        _fail("notes must be a string", path, key="notes")

    return Scenario(
        roles=roles,
        durations=durations,
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
    if len(items) < 2:
        _fail("roles must list at least two distinct agent ids", path, key="roles")
    roles: list[AgentId] = []
    for item in items:
        agent = _as_id(item, "role", path, key="roles")
        if agent in roles:
            _fail(f"duplicate agent id {agent!r}", path, key="roles")
        roles.append(agent)
    return tuple(roles)


def _parse_levels(value: Any, path: str) -> dict[LevelId, float]:
    """Each level's duration in seconds, in ascending level order."""
    items = _as_list(value, "levels", path, key="levels")
    if not items:
        _fail("levels must be non-empty", path, key="levels")
    durations: dict[LevelId, float] = {}
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
        if level in durations:
            _fail(f"duplicate level {level}", path, key="levels.level")
        durations[level] = duration
    if sorted(durations) != list(range(1, len(durations) + 1)):
        _fail("levels must be contiguous starting at 1", path, key="levels")
    return {level: durations[level] for level in sorted(durations)}


def _parse_ground_truth(
    value: Any,
    roles: tuple[AgentId, ...],
    declared: Mapping[LevelId, float],
    path: str,
) -> dict[LevelId, GroundTruth]:
    table = _as_object(value, "ground_truth", path, key="ground_truth")
    parsed: dict[LevelId, GroundTruth] = {}
    for raw_key, entry in table.items():
        try:
            level = int(raw_key)
        except ValueError:
            level = None
        # int() also reads "01", "+1", " 1" and other digits: two keys could
        # then name one level, and the later entry would replace the earlier
        if level is None or str(level) != raw_key:
            _fail(f"ground_truth key {raw_key!r} is not a level id", path,
                  key=f"ground_truth.{raw_key}")
        if level not in declared:
            raise DanglingReference(
                f"ground truth given for undeclared level {level}",
                path=path, key=f"ground_truth.{raw_key}")
        parsed[level] = _parse_gt_entry(entry, roles, path,
                                        key_prefix=f"ground_truth.{raw_key}")
    for level in declared:
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

    # keys are built once per list: these loops run once per id in the scenario
    facts: dict[str, Polarity] = {}
    facts_key = key_prefix + ".facts"
    for pid, raw_polarity in _as_object(obj["facts"], "facts", path, key=facts_key).items():
        polarity = _POLARITIES.get(raw_polarity) if isinstance(raw_polarity, str) else None
        if not pid or polarity is None:  # the helpers raise the error
            _as_id(pid, "fact id", path, key=facts_key)
            polarity = _as_enum(raw_polarity, Polarity, f"polarity of {pid!r}", path,
                                key=f"{facts_key}.{pid}")
        facts[pid] = polarity

    coverage = _id_set(obj["coverage"], "coverage", "coverage id", path,
                       key_prefix + ".coverage")
    missing = facts.keys() - coverage
    if missing:
        pid = min(missing)
        raise DanglingReference(f"fact {pid!r} not listed in coverage",
                                path=path, key=f"{facts_key}.{pid}")

    expected: dict[AgentId, frozenset[str]] = {role: frozenset() for role in roles}
    ek_obj = _as_object(obj.get("expected_knowledge", {}), "expected_knowledge",
                        path, key=key_prefix + ".expected_knowledge")
    for role, raw_ids in ek_obj.items():
        role_key = f"{key_prefix}.expected_knowledge.{role}"
        if role not in roles:
            raise DanglingReference(
                f"expected_knowledge names undeclared role {role!r}",
                path=path, key=role_key)
        expected[role] = frozenset(_id_set(
            raw_ids, f"expected_knowledge[{role!r}]", "expected id", path, role_key,
            f" for role {role!r}"))

    return GroundTruth.build(facts, coverage, expected)


def _id_set(value: Any, what: str, item_what: str, path: str, key: str,
            context: str = "") -> set[str]:
    """A list of distinct non-empty string ids, as a set; ``context`` ends
    the message for a repeated id."""
    ids: set[str] = set()
    for item in _as_list(value, what, path, key=key):
        if not (type(item) is str and item):
            _as_id(item, item_what, path, key=key)
        if item in ids:
            _fail(f"duplicate {item_what} {item!r}{context}", path, key=key)
        ids.add(item)
    return ids


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

def parse_events(text: str, scenario: Scenario, *, path: str = "<events>") -> list[Record]:
    """Parse one event stream, one record per ``\\n``-terminated line (a
    trailing ``\\r`` is JSON whitespace)."""
    return [record for _, _, record in _records(text, scenario, path, {})]


def load_events(path: str, scenario: Scenario) -> list[Record]:
    """Read and validate one event-stream file against a loaded scenario.

    Raises:
        ParseError, DanglingReference, OrdinalRegression, OutOfRangeTime,
        UnknownAgent, UnknownElement: first offending record, with location.
        OSError: unreadable file.
    """
    return parse_events(_read_text(path), scenario, path=path)


def read_events(paths: Iterable[str], scenario: Scenario) -> Iterator[tuple[str, int, Record]]:
    """``(path, line, record)`` for every record of the files, in input
    order, each validated as it is read; ordinals stay ordered per
    (team, level) across the files.  Raises as :func:`load_events`."""
    last_ordinal: dict[tuple[TeamId, LevelId], int] = {}
    for path in paths:
        yield from _records(_read_text(path), scenario, path, last_ordinal)


def _records(text: str, scenario: Scenario, path: str,
             last_ordinal: dict) -> Iterator[tuple[str, int, Record]]:
    """``(path, line, record)`` for each record of one stream; ``last_ordinal``
    maps each (team, level) to its last ordinal so far.

    Each line is decoded once: by one scan when it is exactly one JSON value,
    else by :func:`_decode`, which also reads a padded value and locates a
    malformed one.  The record then goes to the reader of its ``type``.
    """
    elements = scenario.element_ids()
    read_update = _update_reader(scenario, last_ordinal, path)
    scan = _DECODER.scan_once
    # only "\n" ends a record: str.splitlines() would also split at
    # U+2028, U+0085 and the like, which JSON allows raw inside strings
    for lineno, raw in enumerate(text.split("\n"), start=1):
        try:
            doc, end = scan(raw, 0)
        except (StopIteration, ValueError, RecursionError, _NonJsonConstant):
            end = None  # _decode raises the located error
        if end != len(raw):
            if not raw.strip():
                continue
            doc = _decode(raw, path, lineno, _DECODER)
        if type(doc) is not dict:
            _as_object(doc, "record", path, line=lineno)
        record_type = doc.get("type")
        if record_type == "update":
            yield path, lineno, read_update(doc, lineno)
        elif record_type == "confirmation":
            yield path, lineno, _parse_confirmation(doc, scenario.durations, elements, path, lineno)
        else:
            _fail(f"unknown record type {record_type!r}", path, key="type", line=lineno)


def _update_reader(
    scenario: Scenario, last_ordinal: dict[tuple[TeamId, LevelId], int], path: str,
) -> Callable[[dict, int], UpdateEvent]:
    """A function from a decoded update record and its line number to its
    :class:`UpdateEvent`, or to the first check it fails in the order
    docs/formats.md gives; a field's helper runs only to raise its error."""
    roles = frozenset(scenario.roles)
    durations = scenario.durations
    # one Proposition per (polarity, id) within a parse
    propositions = {polarity: {} for polarity in Polarity}

    def read(doc: dict, lineno: int) -> UpdateEvent:
        try:
            ordinal, team, level, t = doc["ordinal"], doc["team"], doc["level"], doc["t"]
            actor, raw_op, prop = doc["actor"], doc["op"], doc["proposition"]
            known = _UPDATE_FIELDS.issuperset(doc)
        except KeyError:
            known = False
        if not known:
            _check_fields(doc, _UPDATE_FIELDS, _UPDATE_REQUIRED, "update record", path,
                          line=lineno)
        if not (type(ordinal) is int and type(team) is int and type(level) is int):
            _as_int(ordinal, "ordinal", path, key="ordinal", line=lineno)
            _as_int(team, "team", path, key="team", line=lineno)
            _as_int(level, "level", path, key="level", line=lineno)
        if type(t) is not float or not math.isfinite(t):
            t = _as_number(t, "t", path, key="t", line=lineno)
        if type(actor) is not str or not actor:
            _as_id(actor, "actor", path, key="actor", line=lineno)
        try:
            op = _OPS[raw_op]
        except (KeyError, TypeError):  # an unknown or unhashable value
            op = _as_enum(raw_op, EventOp, "op", path, key="op", line=lineno)
        if type(prop) is not dict or len(prop) != 2 or "id" not in prop or "polarity" not in prop:
            _as_object(prop, "proposition", path, key="proposition", line=lineno)
            _check_fields(prop, _PROPOSITION_FIELDS, ("id", "polarity"), "proposition",
                          path, key_prefix="proposition.", line=lineno)
        pid, raw_polarity = prop["id"], prop["polarity"]
        if type(pid) is not str or not pid:
            _as_id(pid, "proposition id", path, key="proposition.id", line=lineno)
        try:
            polarity = _POLARITIES[raw_polarity]
        except (KeyError, TypeError):
            polarity = _as_enum(raw_polarity, Polarity, "polarity", path,
                                key="proposition.polarity", line=lineno)
        try:
            attitude = _ATTITUDES[doc.get("attitude", "belief")]
        except (KeyError, TypeError):
            attitude = _as_enum(doc["attitude"], Attitude, "attitude", path,
                                key="attitude", line=lineno)
        ref = doc.get("utterance_ref")
        if ref is not None and type(ref) is not str:
            _fail("utterance_ref must be a string", path, key="utterance_ref", line=lineno)
        duration = durations.get(level)
        if duration is None:
            _check_when(level, t, durations, path, lineno)
        if actor not in roles:
            raise UnknownStreamAgent(f"actor {actor!r} not declared by the scenario",
                                     path=path, line=lineno, key="actor")
        if not 0 <= t <= duration:
            _check_when(level, t, durations, path, lineno)
        if ordinal < 1:
            _fail(f"ordinal {ordinal} must be >= 1", path, key="ordinal", line=lineno)
        stream = (team, level)
        previous = last_ordinal.get(stream)
        if previous is not None and ordinal <= previous:
            raise OrdinalRegression(
                f"ordinal {ordinal} does not exceed previous {previous} for team {team} "
                f"level {level}", path=path, line=lineno, key="ordinal")
        last_ordinal[stream] = ordinal
        interned = propositions[polarity]
        proposition = interned.get(pid)
        if proposition is None:
            proposition = interned[pid] = Proposition(pid, polarity)
        return UpdateEvent(ordinal, team, level, t, actor, op, proposition, attitude, ref)

    return read


def _check_when(level: LevelId, t: float, durations: Mapping[LevelId, float],
                path: str, lineno: int) -> None:
    """Raise if ``level`` is undeclared, else if ``t`` is outside its duration."""
    if level not in durations:
        raise DanglingReference(f"record names undeclared level {level}",
                                path=path, line=lineno, key="level")
    if not 0 <= t <= durations[level]:
        raise OutOfRangeTime(f"t={t} outside [0, {durations[level]}] for level {level}",
                             path=path, line=lineno, key="t")


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
    _check_when(level, t, durations, path, lineno)
    if element_id not in elements:
        raise UnknownStreamElement(
            f"confirmed element {element_id!r} not declared by any target",
            path=path, line=lineno, key="element_id")
    return Confirmation(team=team, level=level, t=t, element_id=element_id)


# --- writing -----------------------------------------------------------------

_json_str = json.encoder.encode_basestring_ascii


def _indented(items: Iterable[str], pad: str, brackets: str = "[]") -> str:
    """Encoded ``items`` as ``json.dumps(..., indent=2)`` lays out a list
    (or, with ``brackets="{}"``, an object of ``"key": value`` items) whose
    closing bracket sits at indent ``pad``; empty, it is ``[]`` or ``{}``."""
    body = f",\n{pad}  ".join(items)
    return f"{brackets[0]}\n{pad}  {body}\n{pad}{brackets[1]}" if body else brackets


def _write_scenario(scenario: Scenario, out: TextIO) -> None:
    """Write exactly ``json.dumps(doc, indent=2) + "\n"`` for the scenario's
    document, with keys and ids in a stable order.

    The ground truth, the bulk of a generated scenario, is streamed one
    level at a time with one join per id list or facts table.
    """
    head = {
        "schema_version": SCHEMA_VERSION,
        "roles": list(scenario.roles),
        "levels": [
            {"level": level, "duration_seconds": duration}
            for level, duration in scenario.durations.items()
        ],
    }
    tail: dict[str, Any] = {
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
        tail["notes"] = scenario.notes
    # the head without its closing "\n}", then the tail without its "{"
    out.write(json.dumps(head, indent=2)[:-2] + ',\n  "ground_truth": {')
    sep = "\n"
    for level in sorted(scenario.ground_truth):
        gt = scenario.ground_truth[level]
        facts = _indented((f'{_json_str(pid)}: "{gt.facts[pid]._value_}"'
                           for pid in sorted(gt.facts)), "      ", "{}")
        expected = _indented(
            (f"{_json_str(agent)}: "
             f"{_indented(map(_json_str, sorted(gt.expected_knowledge[agent])), '        ')}"
             for agent in sorted(gt.expected_knowledge)), "      ", "{}")
        out.write(f'{sep}    {_json_str(str(level))}: {{\n'
                  f'      "facts": {facts},\n'
                  f'      "coverage": {_indented(map(_json_str, sorted(gt.coverage)), "      ")},\n'
                  f'      "expected_knowledge": {expected}\n'
                  f'    }}')
        sep = ",\n"
    out.write(("}," if sep == "\n" else "\n  },") + json.dumps(tail, indent=2)[1:] + "\n")


def dump_scenario(scenario: Scenario) -> str:
    """Serialize a scenario deterministically (stable key and id order)."""
    out = io.StringIO()
    _write_scenario(scenario, out)
    return out.getvalue()


def dump_events(records: Iterable[Record]) -> str:
    """Serialize records to JSON Lines in the given order."""
    return "".join(_event_lines(records))


def _event_lines(records: Iterable[Record]) -> Iterator[str]:
    """Each record's line, as ``json.dumps(doc, separators=(",", ":"))``
    gives it for the record's document, plus ``"\n"``: strings through
    json's own ASCII escaper, numbers through ``repr`` (json's form for ints
    and finite floats), and the enum values, plain ASCII words, as they are.
    """
    for rec in records:
        if isinstance(rec, UpdateEvent):
            ref = ("" if rec.utterance_ref is None
                   else f',"utterance_ref":{_json_str(rec.utterance_ref)}')
            yield (f'{{"type":"update","ordinal":{rec.ordinal!r},"team":{rec.team!r},'
                   f'"level":{rec.level!r},"t":{rec.t!r},"actor":{_json_str(rec.actor)},'
                   f'"op":"{rec.op._value_}","proposition":{{"id":{_json_str(rec.proposition.id)},'
                   f'"polarity":"{rec.proposition.polarity._value_}"}},'
                   f'"attitude":"{rec.attitude._value_}"{ref}}}\n')
        else:
            yield (f'{{"type":"confirmation","team":{rec.team!r},"level":{rec.level!r},'
                   f'"t":{rec.t!r},"element_id":{_json_str(rec.element_id)}}}\n')


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        _write_scenario(scenario, handle)


def save_events(records: Iterable[Record], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(_event_lines(records))
