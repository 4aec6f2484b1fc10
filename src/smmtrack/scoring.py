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
from typing import Mapping, Sequence

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
class ConfirmationLog:
    """Element ids one team explicitly confirmed seeing."""

    team: TeamId
    confirmed: frozenset[str]


@dataclass(frozen=True)
class TargetScore:
    earned: int
    max_points: int
    percent: float

    def __post_init__(self) -> None:
        if not 0 <= self.earned <= self.max_points:
            raise ValueError(f"earned {self.earned} outside [0, {self.max_points}]")

    def cell(self) -> str:
        """Render as e.g. ``8 (42.1%)``."""
        return f"{self.earned} ({self.percent:.1f}%)"


@dataclass(frozen=True)
class ScoreCard:
    """One team's earned points per target plus the totals row."""

    team: TeamId
    per_target: Mapping[str, TargetScore]
    total: TargetScore


def score(targets: Sequence[TargetSpec], log: ConfirmationLog) -> ScoreCard:
    """Score one team's confirmations against the declared targets.

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
    for element_id in sorted(log.confirmed):
        if element_id not in owner_by_element:
            raise UnknownElement(
                f"team {log.team} confirmed undeclared element {element_id!r}"
            )

    per_target: dict[str, TargetScore] = {}
    for spec in targets:
        earned = sum(
            points for element_id, points in spec.elements
            if element_id in log.confirmed
        )
        per_target[spec.id] = TargetScore(
            earned=earned,
            max_points=spec.max_points,
            percent=percent_of(earned, spec.max_points),
        )
    total_earned = sum(ts.earned for ts in per_target.values())
    total_max = sum(ts.max_points for ts in per_target.values())
    return ScoreCard(
        team=log.team,
        per_target=per_target,
        total=TargetScore(
            earned=total_earned,
            max_points=total_max,
            percent=percent_of(total_earned, total_max),
        ),
    )
