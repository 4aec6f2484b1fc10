"""Propositions, attitudes, and per-agent mental models.

A mental model is one agent's current set of held propositions, each tagged
with an attitude (belief, goal, or commitment) and the event ordinal at which
it was established.  Models are updated by replaying an annotated dialogue
stream; every comparison the discrepancy detectors make happens over
immutable snapshots of these models.

Propositions are pre-canonicalized symbolic ids, not natural language: the
upstream annotator is expected to emit canonical ids, so negation is exact
and decidable (a polarity bit on a shared id rather than free-form
contradictory text).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping

from .errors import ActorMismatch, RetractMissing, StaleEvent

AgentId = str
TeamId = int
LevelId = int


class Polarity(str, Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"

    def flipped(self) -> "Polarity":
        return Polarity.NEGATIVE if self is Polarity.POSITIVE else Polarity.POSITIVE


class Attitude(str, Enum):
    """How an agent holds a proposition."""

    BELIEF = "belief"
    GOAL = "goal"
    COMMITMENT = "commitment"


class EventOp(str, Enum):
    ASSERT = "assert"
    RETRACT = "retract"


@dataclass(frozen=True)
class Proposition:
    """An atomic, canonically-identified claim with polarity.

    ``(id, positive)`` and ``(id, negative)`` are mutual negations; the id is
    an opaque, case-sensitive key.
    """

    id: str
    polarity: Polarity = Polarity.POSITIVE

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("proposition id must be non-empty")

    def negated(self) -> "Proposition":
        return Proposition(self.id, self.polarity.flipped())


@dataclass(frozen=True)
class Entry:
    """One held proposition inside a model: polarity, attitude, and the
    ordinal of the event that established it."""

    polarity: Polarity
    attitude: Attitude
    since: int


@dataclass(frozen=True)
class UpdateEvent:
    """A single annotated dialogue move applied to one agent's model.

    Attributes:
        ordinal: position in the stream; strictly increasing per stream.
        team / level: which episode the move belongs to.
        t: seconds into the level.
        actor: the agent whose model the move updates.
        op: assert or retract.
        proposition: the claim asserted or retracted (polarity is ignored
            for retracts; retraction targets the id).
        attitude: how the proposition is held.
        utterance_ref: optional free-text pointer back to the transcript.
    """

    ordinal: int
    team: TeamId
    level: LevelId
    t: float
    actor: AgentId
    op: EventOp
    proposition: Proposition
    attitude: Attitude = Attitude.BELIEF
    utterance_ref: str | None = None


@dataclass(frozen=True)
class Snapshot:
    """Immutable view of a model at a point in time.

    Iterates as ``(Proposition, Attitude)`` pairs, so it doubles as the
    value-set of held propositions; later updates to the source model do not
    change a snapshot already taken.
    """

    owner: AgentId
    clock: int
    entries: Mapping[str, Entry]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[Proposition, Attitude]]:
        for pid, entry in self.entries.items():
            yield Proposition(pid, entry.polarity), entry.attitude

    def __contains__(self, pid: str) -> bool:
        return pid in self.entries


@dataclass
class MentalModel:
    """One agent's current attitude-tagged proposition set.

    Single-writer: at most one polarity per proposition id (asserting the
    negation replaces the prior entry), and the clock never decreases.
    """

    owner: AgentId
    entries: dict[str, Entry] = field(default_factory=dict)
    clock: int = 0

    def apply(self, event: UpdateEvent) -> "MentalModel":
        """Apply one update event in place and return the model.

        Raises:
            ActorMismatch: the event belongs to a different agent.
            StaleEvent: the event ordinal is not ahead of the clock.
            RetractMissing: retraction of an id the model does not hold.
        """
        if event.actor != self.owner:
            raise ActorMismatch(
                f"event actor {event.actor!r} does not own model of {self.owner!r}"
            )
        if event.ordinal <= self.clock:
            raise StaleEvent(
                f"ordinal {event.ordinal} not ahead of model clock {self.clock}"
            )
        pid = event.proposition.id
        if event.op is EventOp.RETRACT:
            if pid not in self.entries:
                raise RetractMissing(f"cannot retract absent proposition {pid!r}")
            del self.entries[pid]
        else:
            prior = self.entries.get(pid)
            if (
                prior is None
                or prior.polarity is not event.proposition.polarity
                or prior.attitude is not event.attitude
            ):
                self.entries[pid] = Entry(
                    event.proposition.polarity, event.attitude, event.ordinal
                )
            # identical re-assert: entry untouched, clock still advances
        self.clock = event.ordinal
        return self

    def snapshot(self) -> Snapshot:
        return Snapshot(self.owner, self.clock, dict(self.entries))


@dataclass(frozen=True)
class GroundTruth:
    """Authoritative proposition set plus role-expectation metadata.

    ``coverage`` is the set of ids for which ground truth is authoritative:
    it is the boundary between a false belief (id in ``facts``, wrong
    polarity) and an unsupported one (id outside ``coverage`` with no peer
    corroboration).  ``expected_knowledge`` maps each agent to the ids their
    role implies they should hold; those ids need not be in ``coverage``.
    """

    facts: Mapping[str, Polarity]
    coverage: frozenset[str]
    expected_knowledge: Mapping[AgentId, frozenset[str]]

    def __post_init__(self) -> None:
        missing = set(self.facts) - self.coverage
        if missing:
            raise ValueError(
                f"facts outside coverage: {sorted(missing)}"
            )

    @classmethod
    def build(
        cls,
        facts: Mapping[str, Polarity],
        coverage: set[str] | frozenset[str],
        expected_knowledge: Mapping[AgentId, set[str] | frozenset[str]],
    ) -> "GroundTruth":
        return cls(
            facts=dict(facts),
            coverage=frozenset(coverage),
            expected_knowledge={a: frozenset(s) for a, s in expected_knowledge.items()},
        )

    @classmethod
    def empty(cls, agents: list[AgentId] | tuple[AgentId, ...] = ()) -> "GroundTruth":
        return cls.build({}, frozenset(), {a: frozenset() for a in agents})
