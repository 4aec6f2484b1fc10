"""Detection of the four mental-model discrepancy types.

A discrepancy is a typed misalignment between the agents' current mental
models and/or the ground truth:

* **contradiction** -- one agent holds a proposition, a teammate holds its
  negation (same attitude kind; cross-attitude conflicts are deliberately
  not detected).
* **omission** -- an agent's model lacks a proposition their role says they
  should hold while a teammate does hold it.
* **unsupported** -- a held proposition outside ground-truth coverage that no
  teammate corroborates (same id, either polarity).  Opposite-polarity peers
  are classified as a contradiction instead, never as support.
* **false** -- a held proposition whose polarity contradicts an authoritative
  ground-truth fact.

Each record is a :class:`Discrepancy`, an immutable named tuple in field
order (kind, proposition id, holder, counterpart, team, level, opening and
closing ordinal).  ``_replace`` applies to it and checks the result like the
constructor does; ``dataclasses.replace`` and ``asdict`` do not apply.

:func:`detect_all` states the four definitions once more, as a pure
function over whole mental models.  :class:`EngineState.step` maintains
the same open set incrementally over a dialogue stream; after every event
the open set's keys equal what :func:`detect_all` reports on
:meth:`EngineState.snapshots`, which is exactly how the engine is tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from .beliefs import (
    AgentId,
    Entry,
    EventOp,
    GroundTruth,
    LevelId,
    MentalModel,
    TeamId,
    UpdateEvent,
)
from .errors import DuplicateOwner, MixedTeamOrLevel, RetractMissing, StaleEvent, UnknownAgent


class DiscrepancyKind(str, Enum):
    """Closed enumeration of the four discrepancy types."""

    CONTRADICTION = "contradiction"
    OMISSION = "omission"
    UNSUPPORTED = "unsupported"
    FALSE = "false"


# (kind, proposition id, holder, counterpart): at most one OPEN discrepancy
# per key at any instant.  An omission's holder slot is None: which teammate
# holds the proposition is provenance, not identity.
Key = tuple[DiscrepancyKind, str, "AgentId | None", "AgentId | None"]


class _DiscrepancyFields(NamedTuple):
    kind: DiscrepancyKind
    proposition_id: str
    holder: AgentId
    counterpart: AgentId | None
    team: TeamId
    level: LevelId
    opened_at: int
    closed_at: int | None = None


class Discrepancy(_DiscrepancyFields):
    """One typed misalignment record with provenance.

    ``holder`` is the agent whose entry triggers the record; ``counterpart``
    is the contradicting agent (contradiction) or the agent whose model lacks
    the expected proposition (omission), and is absent for the two
    ground-truth-axis kinds.  An omission is identified by (kind, id,
    counterpart) alone, so :attr:`key` leaves its holder out; the engine
    records the holder at opening.  ``opened_at``/``closed_at`` are event
    ordinals; records are immutable once emitted.
    """

    __slots__ = ()

    def __new__(cls, kind: DiscrepancyKind, proposition_id: str, holder: AgentId,
                counterpart: AgentId | None, team: TeamId, level: LevelId,
                opened_at: int, closed_at: int | None = None) -> "Discrepancy":
        if kind is DiscrepancyKind.CONTRADICTION and counterpart == holder:
            raise ValueError("contradiction requires counterpart != holder")
        if closed_at is not None and closed_at <= opened_at:
            raise ValueError("closed_at must be after opened_at")
        return tuple.__new__(cls, (kind, proposition_id, holder, counterpart,
                                   team, level, opened_at, closed_at))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Discrepancy":
        # _replace builds through _make: check its result too
        return cls(*iterable)

    @property
    def key(self) -> Key:
        holder = None if self.kind is DiscrepancyKind.OMISSION else self.holder
        return (self.kind, self.proposition_id, holder, self.counterpart)

    @property
    def is_open(self) -> bool:
        return self.closed_at is None


def detect_all(
    models: Sequence[MentalModel],
    gt: GroundTruth,
    *,
    team: TeamId = 0,
    level: LevelId = 0,
) -> set[Discrepancy]:
    """Every discrepancy the four definitions above find on the given
    models, as open records opened at the latest model clock.

    A contradiction's holder and counterpart are in agent-id order, and an
    omission's holder is the smallest agent id holding the id.  Raises
    :class:`DuplicateOwner` if two models share an owner and
    :class:`UnknownAgent` for an owner with no expected-knowledge entry.
    """
    owners = [m.owner for m in models]
    if len(set(owners)) != len(owners):
        dupes = sorted({o for o in owners if owners.count(o) > 1})
        raise DuplicateOwner(f"duplicate snapshot owners: {dupes}")
    for owner in owners:
        if owner not in gt.expected_knowledge:
            raise UnknownAgent(f"agent {owner!r} has no expected-knowledge entry")
    opened = max((m.clock for m in models), default=0)

    def found(kind: DiscrepancyKind, pid: str, holder: AgentId,
              counterpart: AgentId | None = None) -> Discrepancy:
        return Discrepancy(kind, pid, holder, counterpart, team, level, opened)

    records: set[Discrepancy] = set()
    ordered = sorted(models, key=lambda m: m.owner)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            for pid, ea in a.entries.items():
                eb = b.entries.get(pid)
                if (eb is not None and ea.polarity is not eb.polarity
                        and ea.attitude is eb.attitude):
                    records.add(found(DiscrepancyKind.CONTRADICTION, pid, a.owner, b.owner))

    # the smallest holder of every held id: only those can be omitted
    first_holder: dict[str, AgentId] = {}
    for m in ordered:
        for pid, entry in m.entries.items():
            first_holder.setdefault(pid, m.owner)
            if pid not in gt.coverage and not any(pid in o.entries for o in ordered if o is not m):
                records.add(found(DiscrepancyKind.UNSUPPORTED, pid, m.owner))
            truth = gt.facts.get(pid)
            if truth is not None and entry.polarity is not truth:
                records.add(found(DiscrepancyKind.FALSE, pid, m.owner))
    for m in ordered:
        expected = gt.expected_knowledge[m.owner]
        for pid, holder in first_holder.items():
            if pid in expected and pid not in m.entries:
                records.add(found(DiscrepancyKind.OMISSION, pid, holder, m.owner))
    return records


@dataclass
class EngineState:
    """Incremental discrepancy tracking over one (team, level) stream.

    Applies each event to the actor's mental model, then reconciles every
    discrepancy involving the touched proposition id: only those can change,
    so the open set stays equal to a full batch recomputation at a fraction
    of the cost.  Emitted records are immutable; closing one replaces it with
    a copy carrying ``closed_at``.
    """

    team: TeamId
    level: LevelId
    gt: GroundTruth
    models: dict[AgentId, MentalModel]
    # every record exactly once, in opening order; closing replaces in place
    _records: list[Discrepancy] = field(init=False, default_factory=list)
    # proposition id -> {key: index into _records}, for open records only
    _open: dict[str, dict[Key, int]] = field(init=False, default_factory=dict)
    _clock: int = field(init=False, default=0)
    # (agent, held entries, expected ids) in agent-id order, read by step
    _agents: tuple[tuple[AgentId, dict[str, Entry], frozenset[str]], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._agents = tuple(
            (agent, self.models[agent].entries, self.gt.expected_knowledge[agent])
            for agent in sorted(self.models))

    @classmethod
    def fresh(
        cls,
        team: TeamId,
        level: LevelId,
        agents: Iterable[AgentId],
        gt: GroundTruth,
    ) -> "EngineState":
        models = {a: MentalModel(owner=a) for a in agents}
        if len(models) < 2:
            raise ValueError("an engine needs at least two distinct agents")
        for a in models:
            if a not in gt.expected_knowledge:
                raise UnknownAgent(f"agent {a!r} has no expected-knowledge entry")
        return cls(team=team, level=level, gt=gt, models=models)

    def step(self, event: UpdateEvent) -> tuple["EngineState", list[Discrepancy], list[Discrepancy]]:
        """Apply one event to its actor's model; return ``(self, opened, closed)``.

        A retract deletes the actor's entry for the id; an assert replaces
        it, except that an identical re-assert keeps the entry and its
        ``since``.  The entries dict is changed in place, never replaced.
        The actor's and the stream's clock then move to the event's ordinal.
        An error below is raised before any state changes.

        Raises:
            MixedTeamOrLevel: the event is for another team or level.
            StaleEvent: the ordinal is not ahead of the stream's last one.
            UnknownAgent: the actor is not declared for this stream.
            RetractMissing: a retract of an id the actor does not hold.
        """
        if event.team != self.team or event.level != self.level:
            raise MixedTeamOrLevel(
                f"event for team {event.team} level {event.level} fed to "
                f"engine for team {self.team} level {self.level}"
            )
        ordinal = event.ordinal
        if ordinal <= self._clock:
            raise StaleEvent(
                f"ordinal {ordinal} not ahead of stream clock {self._clock}"
            )
        model = self.models.get(event.actor)
        if model is None:
            raise UnknownAgent(f"actor {event.actor!r} not declared for this stream")
        pid = event.proposition_id
        entries = model.entries
        if event.op is EventOp.RETRACT:
            if pid not in entries:
                raise RetractMissing(f"cannot retract absent proposition {pid!r}")
            del entries[pid]
        else:
            prior = entries.get(pid)
            polarity = event.polarity
            if (prior is None or prior.polarity is not polarity
                    or prior.attitude is not event.attitude):
                entries[pid] = Entry(polarity, event.attitude, ordinal)
        model.clock = self._clock = ordinal

        current = self._keys_for_id(pid)
        records = self._records
        closed: list[Discrepancy] = []
        still_open = self._open.get(pid)
        if still_open is None:
            # nothing open on pid: every present key opens
            if not current:
                return self, [], []
            new = list(current)
            still_open = self._open[pid] = {}
        elif still_open.keys() == current.keys():
            # an open key that is still present keeps its record: with the
            # same keys present as open, nothing opens or closes
            return self, [], []
        else:
            new = []
            for key in current:
                if key not in still_open:
                    new.append(key)
            for key in list(still_open):
                if key not in current:
                    index = still_open.pop(key)
                    record = records[index]._replace(closed_at=ordinal)
                    records[index] = record
                    closed.append(record)

        if len(new) > 1:
            new.sort(key=_key_sort)
        opened: list[Discrepancy] = []
        for key in new:
            record = Discrepancy(key[0], pid, current[key], key[3],
                                 self.team, self.level, ordinal)
            still_open[key] = len(records)
            records.append(record)
            opened.append(record)
        if not still_open:
            del self._open[pid]
        return self, opened, closed

    def _keys_for_id(self, pid: str) -> dict[Key, AgentId]:
        """Identity key of every discrepancy present on ``pid``, mapped to
        its holder."""
        holders: list[tuple[AgentId, Entry]] = []
        lacking: list[AgentId] = []
        for agent, entries, expected in self._agents:
            entry = entries.get(pid)
            if entry is not None:
                holders.append((agent, entry))
            elif pid in expected:
                lacking.append(agent)
        if not holders:
            return {}

        keys: dict[Key, AgentId] = {}
        if len(holders) > 1:
            for i, (a, ea) in enumerate(holders):
                for b, eb in holders[i + 1 :]:
                    if ea.polarity is not eb.polarity and ea.attitude is eb.attitude:
                        keys[(DiscrepancyKind.CONTRADICTION, pid, a, b)] = a

        first = holders[0][0]
        for agent in lacking:
            keys[(DiscrepancyKind.OMISSION, pid, None, agent)] = first

        if len(holders) == 1 and pid not in self.gt.coverage:
            keys[(DiscrepancyKind.UNSUPPORTED, pid, first, None)] = first

        truth = self.gt.facts.get(pid)
        if truth is not None:
            for agent, entry in holders:
                if entry.polarity is not truth:
                    keys[(DiscrepancyKind.FALSE, pid, agent, None)] = agent
        return keys

    def snapshots(self) -> list[MentalModel]:
        """A detached copy of every agent's model, each with its own clock."""
        return [MentalModel(m.owner, dict(m.entries), m.clock)
                for m in self.models.values()]

    def open_records(self) -> list[Discrepancy]:
        """Currently open records, in the order they were opened."""
        return [r for r in self._records if r.closed_at is None]

    def all_records(self) -> list[Discrepancy]:
        """Every record ever opened (closed ones carry ``closed_at``),
        ordered by opening ordinal, then by :func:`_key_sort`."""
        return list(self._records)


def _key_sort(key: Key) -> tuple[str, str, str, str]:
    kind, pid, holder, counterpart = key
    return (kind.value, pid, holder or "", counterpart or "")


def replay(
    team: TeamId,
    level: LevelId,
    agents: Iterable[AgentId],
    gt: GroundTruth,
    events: Iterable[UpdateEvent],
) -> EngineState:
    """Run a whole (team, level) event stream through a fresh engine."""
    state = EngineState.fresh(team, level, agents, gt)
    for event in events:
        state.step(event)
    return state
