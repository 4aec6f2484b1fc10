"""Objective target-identification scoring.

Teams earn points for target elements they explicitly confirmed seeing.
Element-level point splits are declared by the scenario file; per-target
earned points, totals, and half-up one-decimal percentages roll up into a
scorecard per team.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from typing import AbstractSet, Mapping, Sequence

from .beliefs import TeamId
from .errors import UnknownElement


class Difficulty(str, Enum):
    EASY = "easy"
    HARD = "hard"


def percent_of(earned: int, maximum: int) -> float:
    """100 * earned / maximum, rounded half-up to one decimal."""
    exact = Decimal(100 * earned) / Decimal(maximum)
    return float(exact.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class TargetSpec:
    """A scoreable target: named elements, each worth a fixed point value."""

    id: str
    difficulty: Difficulty
    elements: tuple[tuple[str, int], ...]
    max_points: int

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError(f"target {self.id!r} declares no elements")
        seen: set[str] = set()
        for element_id, points in self.elements:
            if element_id in seen:
                raise ValueError(f"duplicate element {element_id!r} in {self.id!r}")
            seen.add(element_id)
            if points <= 0:
                raise ValueError(f"element {element_id!r} has non-positive points")
        total = sum(points for _, points in self.elements)
        if total != self.max_points:
            raise ValueError(
                f"target {self.id!r}: elements sum to {total}, "
                f"max_points says {self.max_points}"
            )

    def element_ids(self) -> frozenset[str]:
        return frozenset(element_id for element_id, _ in self.elements)


@dataclass(frozen=True)
class TargetScore:
    earned: int
    max_points: int

    def __post_init__(self) -> None:
        if not 0 <= self.earned <= self.max_points:
            raise ValueError(f"earned {self.earned} outside [0, {self.max_points}]")

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
    the declared targets.

    Raises:
        ValueError: element ids collide across targets.
        UnknownElement: a confirmation names an undeclared element.
    """
    owner_by_element: dict[str, TargetSpec] = {}
    for spec in targets:
        for element_id in spec.element_ids():
            if element_id in owner_by_element:
                raise ValueError(f"element {element_id!r} appears in two targets")
            owner_by_element[element_id] = spec
    for element_id in sorted(confirmed):
        if element_id not in owner_by_element:
            raise UnknownElement(
                f"team {team} confirmed undeclared element {element_id!r}"
            )

    per_target: dict[str, TargetScore] = {}
    for spec in targets:
        earned = sum(
            points for element_id, points in spec.elements
            if element_id in confirmed
        )
        per_target[spec.id] = TargetScore(earned=earned, max_points=spec.max_points)
    return ScoreCard(team=team, per_target=per_target)
