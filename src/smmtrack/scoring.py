"""Objective target-identification scoring.

Teams earn points for target elements they explicitly confirmed seeing.
Element-level point splits are declared by the scenario file; per-target
earned points, totals, and half-up one-decimal percentages roll up into a
scorecard per team.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import AbstractSet, Mapping, Sequence

from .beliefs import TeamId


class Difficulty(str, Enum):
    EASY = "easy"
    HARD = "hard"


def percent_of(earned: int, maximum: int) -> float:
    """100 * earned / maximum, rounded half-up to one decimal."""
    return (2000 * earned + maximum) // (2 * maximum) / 10


@dataclass(frozen=True)
class TargetSpec:
    """A scoreable target: named elements, each worth a fixed point value.

    The scenario reader checks what the type does not: at least one
    element, no element id twice, positive points, and ``max_points``
    equal to their sum.
    """

    id: str
    difficulty: Difficulty
    elements: tuple[tuple[str, int], ...]
    max_points: int

    def element_ids(self) -> frozenset[str]:
        return frozenset(element_id for element_id, _ in self.elements)


@dataclass(frozen=True)
class TargetScore:
    earned: int
    max_points: int

    @property
    def percent(self) -> float:
        return percent_of(self.earned, self.max_points)

    def cell(self) -> str:
        """Render as e.g. ``8 (42.1%)``."""
        return f"{self.earned} ({self.percent:.1f}%)"


@dataclass(frozen=True)
class ScoreCard:
    """One team's earned points per target; :attr:`total` sums them."""

    team: TeamId
    per_target: Mapping[str, TargetScore]

    @property
    def total(self) -> TargetScore:
        scores = self.per_target.values()
        return TargetScore(sum(ts.earned for ts in scores), sum(ts.max_points for ts in scores))


def score(targets: Sequence[TargetSpec], team: TeamId, confirmed: AbstractSet[str]) -> ScoreCard:
    """Score the element ids one team explicitly confirmed seeing against
    the declared targets: a target earns the points of its own confirmed
    elements, so never more than its ``max_points``.

    It checks neither input: the scenario reader gives each element id to
    one target, and the events reader rejects a confirmation of an element
    no target declares; an id outside every target earns nothing.
    """
    per_target: dict[str, TargetScore] = {}
    for spec in targets:
        earned = sum(
            points for element_id, points in spec.elements
            if element_id in confirmed
        )
        per_target[spec.id] = TargetScore(earned=earned, max_points=spec.max_points)
    return ScoreCard(team=team, per_target=per_target)
