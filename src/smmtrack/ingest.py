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
from typing import Any, Callable, Container, Iterable, Iterator, Mapping, NoReturn, TextIO

from .beliefs import (
    AgentId,
    Attitude,
    EventOp,
    GroundTruth,
    LevelId,
    Polarity,
    TeamId,
    UpdateEvent,
)
from .errors import (
    DanglingReference,
    IngestError,
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


# --- located values -----------------------------------------------------------

class _Located:
    """A decoded JSON value and where it sits: the file ``path``, its ``key``
    path from the document root (``None`` at the root; list items by 0-based
    index, as in ``levels.1.duration_seconds``) and, on an event line, its
    ``line``.  Each reader returns the value as the named type or raises a
    ParseError there; ``what`` names the value and defaults to the last key.
    Not a dataclass: creating one at import costs about a millisecond.
    """

    __slots__ = ("value", "path", "line", "key")

    def __init__(self, value: Any, path: str, line: int | None = None,
                 key: str | None = None) -> None:
        self.value, self.path, self.line, self.key = value, path, line, key

    def __getitem__(self, name: str | int) -> _Located:
        """Member or item ``name``; an absent member reads as null, so its error has a place."""
        value = self.value
        return _Located(value.get(name) if type(value) is dict else value[name], self.path,
                        self.line, str(name) if self.key is None else f"{self.key}.{name}")

    def fail(self, message: str, error: type[IngestError] = ParseError) -> NoReturn:
        raise error(message, path=self.path, key=self.key, line=self.line)

    def _must_be(self, kind: str, what: str | None) -> NoReturn:
        self.fail(f"{what or self.key.rpartition('.')[2]} must be {kind}")

    def object(self, what: str | None = None, fields: Container[str] | None = None,
               required: Iterable[str] | None = None) -> dict:
        """The object, with no member outside ``fields`` (if given) and all of
        ``required`` (by default, every field); unknown members are reported first."""
        value = self.value
        if not isinstance(value, dict):
            self._must_be("an object", what)
        if fields is not None:
            what = what or self.key.rpartition(".")[2]
            for name in value:
                if name not in fields:
                    self[name].fail(f"unknown field {name!r} in {what}")
            for name in fields if required is None else required:
                if name not in value:
                    self[name].fail(f"missing field {name!r} in {what}")
        return value

    def list(self, what: str | None = None) -> list:
        if not isinstance(self.value, list):
            self._must_be("a list", what)
        return self.value

    def items(self, what: str | None = None) -> list[_Located]:
        """The list's items, each located."""
        return [self[index] for index in range(len(self.list(what)))]

    def id(self, what: str | None = None) -> str:
        if not isinstance(self.value, str) or not self.value:
            self._must_be("a non-empty string", what)
        return self.value

    def int(self, what: str | None = None) -> int:
        # bool is an int subclass; reject it explicitly
        if not isinstance(self.value, int) or isinstance(self.value, bool):
            self._must_be("an integer", what)
        return self.value

    def number(self, what: str | None = None) -> float:
        value = self.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self._must_be("a number", what)
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the double range
            number = math.inf
        if not math.isfinite(number):  # 1e999 decodes as inf
            self._must_be("a finite number", what)
        return number

    def enum(self, enum_cls: type, what: str | None = None):
        try:
            return enum_cls(self.value)
        except ValueError:
            self._must_be(f"one of: {', '.join(member.value for member in enum_cls)}", what)


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
    return _offset_error(message, text, start, path, line)


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
    return _offset_error(f"key {key!r} given twice in one object", text, starts[1], path,
                         line, key=key)


def _offset_error(message: str, text: str, start: int, path: str, line: int,
                  key: str | None = None) -> ParseError:
    """``message`` at offset ``start`` of ``text``, which starts at ``line``."""
    before = text[:start]
    return ParseError(message, path=path, line=line + before.count("\n"),
                      column=start - before.rfind("\n"), key=key)


# --- scenario parsing --------------------------------------------------------

def _document(text: str, path: str) -> _Located:
    """The located root of the JSON document ``text``, read from ``path``."""
    return _Located(_decode(text, path), path)


def parse_scenario(text: str, *, path: str = "<scenario>") -> Scenario:
    doc = _document(text, path)
    doc.object("scenario", _SCENARIO_FIELDS,
               ("schema_version", "roles", "levels", "ground_truth", "targets"))

    version = doc["schema_version"].int()
    if version != SCHEMA_VERSION:
        doc["schema_version"].fail(
            f"schema_version {version} unsupported (supported: {SCHEMA_VERSION})",
            UnknownVersion)

    roles = _parse_roles(doc["roles"])
    durations = _parse_levels(doc["levels"])
    ground_truth = _parse_ground_truth(doc["ground_truth"], roles, durations)
    targets = _parse_targets(doc["targets"])

    notes = doc["notes"]
    if notes.value is not None and not isinstance(notes.value, str):
        notes.fail("notes must be a string")

    return Scenario(
        roles=roles,
        durations=durations,
        ground_truth=ground_truth,
        targets=targets,
        notes=notes.value,
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


def _parse_roles(at: _Located) -> tuple[AgentId, ...]:
    items = at.items()
    if len(items) < 2:
        at.fail("roles must list at least two distinct agent ids")
    roles: list[AgentId] = []
    for item in items:
        agent = item.id("role")
        if agent in roles:
            item.fail(f"duplicate agent id {agent!r}")
        roles.append(agent)
    return tuple(roles)


def _parse_levels(at: _Located) -> dict[LevelId, float]:
    """Each level's duration in seconds, in ascending level order."""
    items = at.items()
    if not items:
        at.fail("levels must be non-empty")
    durations: dict[LevelId, float] = {}
    for entry in items:
        entry.object("level entry", ("level", "duration_seconds"))
        level = entry["level"].int()
        duration = entry["duration_seconds"].number()
        if level < 1:
            entry["level"].fail(f"level {level} must be >= 1")
        if duration <= 0:
            entry["duration_seconds"].fail(f"duration_seconds must be positive, got {duration}")
        if level in durations:
            entry["level"].fail(f"duplicate level {level}")
        durations[level] = duration
    if sorted(durations) != list(range(1, len(durations) + 1)):
        at.fail("levels must be contiguous starting at 1")
    return {level: durations[level] for level in sorted(durations)}


def _parse_ground_truth(
    table: _Located,
    roles: tuple[AgentId, ...],
    declared: Mapping[LevelId, float],
) -> dict[LevelId, GroundTruth]:
    parsed: dict[LevelId, GroundTruth] = {}
    for raw_key in table.object():
        entry = table[raw_key]
        try:
            level = int(raw_key)
        except ValueError:
            level = None
        # int() also reads "01", "+1", " 1" and other digits: two keys could
        # then name one level, and the later entry would replace the earlier
        if level is None or str(level) != raw_key:
            entry.fail(f"ground_truth key {raw_key!r} is not a level id")
        if level not in declared:
            entry.fail(f"ground truth given for undeclared level {level}", DanglingReference)
        parsed[level] = _parse_gt_entry(entry, roles)
    for level in declared:
        if level not in parsed:
            table[str(level)].fail(f"no ground truth declared for level {level}",
                                   DanglingReference)
    return parsed


def _parse_gt_entry(entry: _Located, roles: tuple[AgentId, ...]) -> GroundTruth:
    obj = entry.object("ground-truth entry", _GT_FIELDS, ("facts", "coverage"))

    # these loops run once per id in the scenario: they locate a value only to raise
    facts: dict[str, Polarity] = {}
    at_facts = entry["facts"]
    for pid, raw_polarity in at_facts.object().items():
        polarity = _POLARITIES.get(raw_polarity) if isinstance(raw_polarity, str) else None
        if not pid:
            at_facts.fail("fact id must be a non-empty string")
        if polarity is None:
            polarity = at_facts[pid].enum(Polarity, f"polarity of {pid!r}")
        facts[pid] = polarity

    coverage = _id_set(entry["coverage"], "coverage id")
    missing = facts.keys() - coverage
    if missing:
        pid = min(missing)
        at_facts[pid].fail(f"fact {pid!r} not listed in coverage", DanglingReference)

    expected: dict[AgentId, frozenset[str]] = {role: frozenset() for role in roles}
    at_expected = entry["expected_knowledge"]
    for role in at_expected.object() if "expected_knowledge" in obj else ():
        if role not in roles:
            at_expected[role].fail(f"expected_knowledge names undeclared role {role!r}",
                                   DanglingReference)
        expected[role] = frozenset(_id_set(at_expected[role], "expected id",
                                           f"expected_knowledge[{role!r}]", f" for role {role!r}"))

    return GroundTruth.build(facts, coverage, expected)


def _id_set(at: _Located, item_what: str, what: str | None = None,
            context: str = "") -> set[str]:
    """A list of distinct non-empty string ids, as a set; ``context`` ends
    the message for a repeated id."""
    ids: set[str] = set()
    for item in at.list(what):
        # every id before this one was new, so its index is len(ids)
        if not (type(item) is str and item):
            at[len(ids)].id(item_what)
        if item in ids:
            at[len(ids)].fail(f"duplicate {item_what} {item!r}{context}")
        ids.add(item)
    return ids


def _parse_targets(at: _Located) -> tuple[TargetSpec, ...]:
    targets: list[TargetSpec] = []
    seen_targets: set[str] = set()
    element_targets: dict[str, str] = {}  # element id -> the target declaring it
    for target in at.items():
        target.object("target", ("id", "difficulty", "elements", "max_points"))
        target_id = target["id"].id("target id")
        if target_id in seen_targets:
            target["id"].fail(f"duplicate target id {target_id!r}")
        seen_targets.add(target_id)
        difficulty = target["difficulty"].enum(Difficulty)
        max_points = target["max_points"].int()
        elements: list[tuple[str, int]] = []
        for element in target["elements"].items():
            element.object("element", ("element_id", "points"))
            element_id = element["element_id"].id()
            points = element["points"].int()
            owner = element_targets.get(element_id)
            if owner == target_id:
                element["element_id"].fail(f"duplicate element {element_id!r} in {target_id!r}")
            if owner is not None:
                element["element_id"].fail(f"element {element_id!r} declared by two targets")
            element_targets[element_id] = target_id
            elements.append((element_id, points))
        try:
            targets.append(TargetSpec(
                id=target_id,
                difficulty=difficulty,
                elements=tuple(elements),
                max_points=max_points,
            ))
        except ValueError as exc:
            target.fail(str(exc))
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
            _Located(doc, path, lineno).object("record")
        record_type = doc.get("type")
        if record_type == "update":
            yield path, lineno, read_update(doc, lineno)
        elif record_type == "confirmation":
            yield path, lineno, _parse_confirmation(_Located(doc, path, lineno),
                                                    scenario.durations, elements)
        else:
            _Located(doc, path, lineno)["type"].fail(f"unknown record type {record_type!r}")


def _update_reader(
    scenario: Scenario, last_ordinal: dict[tuple[TeamId, LevelId], int], path: str,
) -> Callable[[dict, int], UpdateEvent]:
    """A function from a decoded update record and its line number to its
    :class:`UpdateEvent`, or to the first check it fails in the order
    docs/formats.md gives; a located value is built only to raise an error.

    The event holds the decoded proposition id and polarity as they are.  The
    empty-id check here is the only one: :class:`UpdateEvent` checks nothing.
    """
    roles = frozenset(scenario.roles)
    durations = scenario.durations

    def read(doc: dict, lineno: int) -> UpdateEvent:
        try:
            ordinal, team, level, t = doc["ordinal"], doc["team"], doc["level"], doc["t"]
            actor, raw_op, prop = doc["actor"], doc["op"], doc["proposition"]
            known = _UPDATE_FIELDS.issuperset(doc)
        except KeyError:
            known = False
        if not known:
            _Located(doc, path, lineno).object("update record", _UPDATE_FIELDS, _UPDATE_REQUIRED)
        if not (type(ordinal) is int and type(team) is int and type(level) is int):
            for name in ("ordinal", "team", "level"):
                _Located(doc, path, lineno)[name].int()
        if type(t) is not float or not math.isfinite(t):
            t = _Located(doc, path, lineno)["t"].number()
        if type(actor) is not str or not actor:
            _Located(doc, path, lineno)["actor"].id()
        try:
            op = _OPS[raw_op]
        except (KeyError, TypeError):  # an unknown or unhashable value
            op = _Located(doc, path, lineno)["op"].enum(EventOp)
        if type(prop) is not dict or len(prop) != 2 or "id" not in prop or "polarity" not in prop:
            _Located(doc, path, lineno)["proposition"].object("proposition", ("id", "polarity"))
        pid, raw_polarity = prop["id"], prop["polarity"]
        if type(pid) is not str or not pid:
            _Located(doc, path, lineno)["proposition"]["id"].id("proposition id")
        try:
            polarity = _POLARITIES[raw_polarity]
        except (KeyError, TypeError):
            polarity = _Located(doc, path, lineno)["proposition"]["polarity"].enum(Polarity)
        try:
            attitude = _ATTITUDES[doc.get("attitude", "belief")]
        except (KeyError, TypeError):
            attitude = _Located(doc, path, lineno)["attitude"].enum(Attitude)
        ref = doc.get("utterance_ref")
        if ref is not None and type(ref) is not str:
            _Located(doc, path, lineno)["utterance_ref"].fail("utterance_ref must be a string")
        duration = durations.get(level)
        if duration is None:
            _check_when(_Located(doc, path, lineno), level, t, durations)
        if actor not in roles:
            _Located(doc, path, lineno)["actor"].fail(
                f"actor {actor!r} not declared by the scenario", UnknownStreamAgent)
        if not 0 <= t <= duration:
            _check_when(_Located(doc, path, lineno), level, t, durations)
        if ordinal < 1:
            _Located(doc, path, lineno)["ordinal"].fail(f"ordinal {ordinal} must be >= 1")
        stream = (team, level)
        previous = last_ordinal.get(stream)
        if previous is not None and ordinal <= previous:
            _Located(doc, path, lineno)["ordinal"].fail(
                f"ordinal {ordinal} does not exceed previous {previous} for team {team} "
                f"level {level}", OrdinalRegression)
        last_ordinal[stream] = ordinal
        return UpdateEvent(ordinal, team, level, t, actor, op, pid, polarity, attitude, ref)

    return read


def _check_when(record: _Located, level: LevelId, t: float,
                durations: Mapping[LevelId, float]) -> None:
    """Raise if ``level`` is undeclared, else if ``t`` is outside its duration."""
    if level not in durations:
        record["level"].fail(f"record names undeclared level {level}", DanglingReference)
    if not 0 <= t <= durations[level]:
        record["t"].fail(f"t={t} outside [0, {durations[level]}] for level {level}",
                         OutOfRangeTime)


def _parse_confirmation(record: _Located, durations: Mapping[LevelId, float],
                        elements: frozenset[str]) -> Confirmation:
    record.object("confirmation record", _CONFIRMATION_FIELDS,
                  ("team", "level", "t", "element_id"))
    team = record["team"].int()
    level = record["level"].int()
    t = record["t"].number()
    element_id = record["element_id"].id()
    _check_when(record, level, t, durations)
    if element_id not in elements:
        record["element_id"].fail(
            f"confirmed element {element_id!r} not declared by any target",
            UnknownStreamElement)
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
                   f'"op":"{rec.op._value_}","proposition":{{"id":{_json_str(rec.proposition_id)},'
                   f'"polarity":"{rec.polarity._value_}"}},'
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
