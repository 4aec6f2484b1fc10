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

The four batch detectors are pure functions over model snapshots.
:class:`EngineState.step` maintains the same open set incrementally over a
dialogue stream; after every event the open set equals what the batch
detectors would report on fresh snapshots, which is exactly how the engine
is tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Sequence

from .beliefs import (
    AgentId,
    Entry,
    GroundTruth,
    LevelId,
    MentalModel,
    Snapshot,
    TeamId,
    UpdateEvent,
)
from .errors import DuplicateOwner, MixedTeamOrLevel, StaleEvent, UnknownAgent


class DiscrepancyKind(str, Enum):
    """Closed enumeration of the four discrepancy types."""

    CONTRADICTION = "contradiction"
    OMISSION = "omission"
    UNSUPPORTED = "unsupported"
    FALSE = "false"


# (kind, proposition id, holder, counterpart): at most one OPEN discrepancy
# per key at any instant.
Key = tuple[DiscrepancyKind, str, AgentId, "AgentId | None"]


@dataclass(frozen=True)
class Discrepancy:
    """One typed misalignment record with provenance.

    ``holder`` is the agent whose entry triggers the record; ``counterpart``
    is the contradicting agent (contradiction) or the agent whose model lacks
    the expected proposition (omission), and is absent for the two
    ground-truth-axis kinds.  ``opened_at``/``closed_at`` are event ordinals;
    records are immutable once emitted.
    """

    kind: DiscrepancyKind
    proposition_id: str
    holder: AgentId
    counterpart: AgentId | None
    team: TeamId
    level: LevelId
    opened_at: int
    closed_at: int | None = None

    def __post_init__(self) -> None:
        if self.kind is DiscrepancyKind.CONTRADICTION and self.counterpart == self.holder:
            raise ValueError("contradiction requires counterpart != holder")
        if self.closed_at is not None and self.closed_at <= self.opened_at:
            raise ValueError("closed_at must be after opened_at")

    @property
    def key(self) -> Key:
        return (self.kind, self.proposition_id, self.holder, self.counterpart)

    @property
    def is_open(self) -> bool:
        return self.closed_at is None


def _check_distinct_owners(models: Sequence[Snapshot]) -> None:
    owners = [m.owner for m in models]
    if len(set(owners)) != len(owners):
        dupes = sorted({o for o in owners if owners.count(o) > 1})
        raise DuplicateOwner(f"duplicate snapshot owners: {dupes}")


def _as_of(models: Sequence[Snapshot]) -> int:
    return max((m.clock for m in models), default=0)


def detect_contradictions(
    models: Sequence[Snapshot],
    *,
    team: TeamId = 0,
    level: LevelId = 0,
) -> set[Discrepancy]:
    """One record per unordered agent pair and proposition id held with
    opposite polarity and the same attitude kind.

    Holder and counterpart are ordered by agent id for determinism.  Fewer
    than two models yields the empty set (no pairs exist).
    """
    _check_distinct_owners(models)
    opened = _as_of(models)
    found: set[Discrepancy] = set()
    ordered = sorted(models, key=lambda m: m.owner)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            for pid, ea in a.entries.items():
                eb = b.entries.get(pid)
                if eb is None:
                    continue
                if ea.polarity is not eb.polarity and ea.attitude is eb.attitude:
                    found.add(
                        Discrepancy(
                            DiscrepancyKind.CONTRADICTION,
                            pid,
                            holder=a.owner,
                            counterpart=b.owner,
                            team=team,
                            level=level,
                            opened_at=opened,
                        )
                    )
    return found


def detect_omissions(
    models: Sequence[Snapshot],
    gt: GroundTruth,
    *,
    team: TeamId = 0,
    level: LevelId = 0,
) -> set[Discrepancy]:
    """One record per (agent, expected proposition) the agent's model lacks
    while some teammate holds it (any polarity).

    The holding teammate becomes the holder (smallest agent id when several
    hold it); the lacking agent is the counterpart.  Expected ids held by no
    one produce no record: nothing was communicated to omit.
    """
    _check_distinct_owners(models)
    for m in models:
        if m.owner not in gt.expected_knowledge:
            raise UnknownAgent(
                f"agent {m.owner!r} has no expected-knowledge entry"
            )
    opened = _as_of(models)
    found: set[Discrepancy] = set()
    for m in models:
        for pid in gt.expected_knowledge[m.owner]:
            if pid in m.entries:
                continue
            holders = sorted(o.owner for o in models if o is not m and pid in o.entries)
            if holders:
                found.add(
                    Discrepancy(
                        DiscrepancyKind.OMISSION,
                        pid,
                        holder=holders[0],
                        counterpart=m.owner,
                        team=team,
                        level=level,
                        opened_at=opened,
                    )
                )
    return found


def detect_unsupported(
    models: Sequence[Snapshot],
    gt: GroundTruth,
    *,
    team: TeamId = 0,
    level: LevelId = 0,
) -> set[Discrepancy]:
    """One record per held entry that is verifiable neither against ground
    truth (id outside coverage) nor via any teammate's model (no other agent
    holds the id with either polarity)."""
    _check_distinct_owners(models)
    opened = _as_of(models)
    found: set[Discrepancy] = set()
    for m in models:
        for pid in m.entries:
            if pid in gt.coverage:
                continue
            if any(pid in o.entries for o in models if o is not m):
                continue
            found.add(
                Discrepancy(
                    DiscrepancyKind.UNSUPPORTED,
                    pid,
                    holder=m.owner,
                    counterpart=None,
                    team=team,
                    level=level,
                    opened_at=opened,
                )
            )
    return found


def detect_false_beliefs(
    models: Sequence[Snapshot],
    gt: GroundTruth,
    *,
    team: TeamId = 0,
    level: LevelId = 0,
) -> set[Discrepancy]:
    """One record per held entry whose polarity contradicts an authoritative
    ground-truth fact."""
    _check_distinct_owners(models)
    opened = _as_of(models)
    found: set[Discrepancy] = set()
    for m in models:
        for pid, entry in m.entries.items():
            truth = gt.facts.get(pid)
            if truth is not None and entry.polarity is not truth:
                found.add(
                    Discrepancy(
                        DiscrepancyKind.FALSE,
                        pid,
                        holder=m.owner,
                        counterpart=None,
                        team=team,
                        level=level,
                        opened_at=opened,
                    )
                )
    return found


def detect_all(
    models: Sequence[Snapshot],
    gt: GroundTruth,
    *,
    team: TeamId = 0,
    level: LevelId = 0,
) -> set[Discrepancy]:
    """Union of the four batch detectors on the given snapshots."""
    return (
        detect_contradictions(models, team=team, level=level)
        | detect_omissions(models, gt, team=team, level=level)
        | detect_unsupported(models, gt, team=team, level=level)
        | detect_false_beliefs(models, gt, team=team, level=level)
    )


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
    _open: dict[Key, Discrepancy] = field(default_factory=dict)
    _closed: list[Discrepancy] = field(default_factory=list)
    _opened_order: list[Key] = field(default_factory=list)
    _clock: int = 0

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
        """Apply one event; return ``(self, opened, closed)``.

        Raises the underlying model errors unchanged; an event for another
        team or level raises :class:`MixedTeamOrLevel`, an undeclared actor
        :class:`UnknownAgent`, an ordinal not ahead of the stream's last one
        :class:`StaleEvent`.
        """
        if event.team != self.team or event.level != self.level:
            raise MixedTeamOrLevel(
                f"event for team {event.team} level {event.level} fed to "
                f"engine for team {self.team} level {self.level}"
            )
        if event.ordinal <= self._clock:
            raise StaleEvent(
                f"ordinal {event.ordinal} not ahead of stream clock {self._clock}"
            )
        model = self.models.get(event.actor)
        if model is None:
            raise UnknownAgent(f"actor {event.actor!r} not declared for this stream")
        model.apply(event)
        self._clock = event.ordinal

        pid = event.proposition.id
        current = self._keys_for_id(pid)
        previously_open = [k for k in self._open if k[1] == pid]

        opened: list[Discrepancy] = []
        closed: list[Discrepancy] = []
        for key in previously_open:
            if key not in current:
                record = replace(self._open.pop(key), closed_at=event.ordinal)
                self._closed.append(record)
                closed.append(record)
        for key in sorted(current - self._open.keys(), key=_key_sort):
            record = Discrepancy(
                kind=key[0],
                proposition_id=key[1],
                holder=key[2],
                counterpart=key[3],
                team=self.team,
                level=self.level,
                opened_at=event.ordinal,
            )
            self._open[key] = record
            self._opened_order.append(key)
            opened.append(record)
        return self, opened, closed

    def _keys_for_id(self, pid: str) -> set[Key]:
        """Identity keys of every discrepancy currently present on ``pid``."""
        holders: dict[AgentId, Entry] = {
            agent: model.entries[pid]
            for agent, model in self.models.items()
            if pid in model.entries
        }
        keys: set[Key] = set()

        agents = sorted(holders)
        for i, a in enumerate(agents):
            ea = holders[a]
            for b in agents[i + 1 :]:
                eb = holders[b]
                if ea.polarity is not eb.polarity and ea.attitude is eb.attitude:
                    keys.add((DiscrepancyKind.CONTRADICTION, pid, a, b))

        if holders:
            holder = agents[0]
            for agent in self.models:
                if agent not in holders and pid in self.gt.expected_knowledge[agent]:
                    keys.add((DiscrepancyKind.OMISSION, pid, holder, agent))

        if len(holders) == 1 and pid not in self.gt.coverage:
            only = agents[0]
            keys.add((DiscrepancyKind.UNSUPPORTED, pid, only, None))

        truth = self.gt.facts.get(pid)
        if truth is not None:
            for agent, entry in holders.items():
                if entry.polarity is not truth:
                    keys.add((DiscrepancyKind.FALSE, pid, agent, None))
        return keys

    def snapshots(self) -> list[Snapshot]:
        return [m.snapshot() for m in self.models.values()]

    def open_records(self) -> list[Discrepancy]:
        """Currently open records, in the order they were opened."""
        return [self._open[k] for k in self._opened_order if k in self._open]

    def all_records(self) -> list[Discrepancy]:
        """Every record ever opened (closed ones carry ``closed_at``),
        ordered by opening ordinal."""
        merged = self._closed + list(self._open.values())
        return sorted(merged, key=lambda r: (r.opened_at, _key_sort(r.key)))


def _key_sort(key: Key) -> tuple[str, str, str, str]:
    kind, pid, holder, counterpart = key
    return (kind.value, pid, holder, counterpart or "")


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
