"""Polarities, attitudes, updates, and per-agent mental models.

A mental model is one agent's current set of held propositions, each tagged
with an attitude (belief, goal, or commitment) and the event ordinal at which
it was established.  This module holds only the data types:
:meth:`EngineState.step <smmtrack.discrepancies.EngineState.step>` is the one
place where an update changes a model, and the discrepancy detectors compare
detached copies of the models.

Propositions are pre-canonicalized symbolic ids, not natural language: the
upstream annotator is expected to emit canonical ids, so negation is exact
and decidable (a polarity bit on a shared id rather than free-form
contradictory text).  No type wraps that pair: an update carries the id and
the polarity as two fields, and a model keys its entries by id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

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


@dataclass(slots=True)
class Entry:
    """One held proposition inside a model: polarity, attitude, and the
    ordinal of the event that established it.

    Not frozen, as one is built for every changed holding; an unfrozen
    dataclass that compares by value has no ``__hash__``.  An entry is not
    to be changed once built: ``EngineState.step`` replaces an entry rather
    than changing it, and that is what keeps a copy of a model's entries
    detached from the model.
    """

    polarity: Polarity
    attitude: Attitude
    since: int


@dataclass(slots=True)
class UpdateEvent:
    """A single annotated dialogue move applied to one agent's model.

    Not frozen, as the reader builds one per update line and a frozen
    initialiser sets each field through ``object.__setattr__``; an unfrozen
    dataclass that compares by value has no ``__hash__``.  An event is not
    to be changed once built.  Like :class:`Entry`, it is a plain record that
    checks none of its fields: the events reader rejects what a file may not
    hold, an empty proposition id included, and the generator builds only
    valid events.

    Attributes:
        ordinal: position in the stream; strictly increasing per stream.
        team / level: which episode the move belongs to.
        t: seconds into the level.
        actor: the agent whose model the move updates.
        op: assert or retract.
        proposition_id: the opaque, case-sensitive id of the claim asserted
            or retracted.
        polarity: the claim's polarity (ignored for retracts; retraction
            targets the id).
        attitude: how the proposition is held.
        utterance_ref: optional free-text pointer back to the transcript.
    """

    ordinal: int
    team: TeamId
    level: LevelId
    t: float
    actor: AgentId
    op: EventOp
    proposition_id: str
    polarity: Polarity
    attitude: Attitude = Attitude.BELIEF
    utterance_ref: str | None = None


@dataclass
class MentalModel:
    """One agent's current attitude-tagged proposition set: ``entries`` maps
    each held proposition id to its entry, and ``clock`` is the ordinal of
    the agent's last update (0 before any).

    ``EngineState.step`` keeps its rules: at most one polarity per
    proposition id (asserting the negation replaces the prior entry), and a
    clock that never decreases.
    """

    owner: AgentId
    entries: dict[str, Entry] = field(default_factory=dict)
    clock: int = 0


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
