"""Per-team, per-level discrepancy count vectors.

The counting rule is opens-only: a discrepancy counts toward the level it
was opened in, even if dialogue resolved it before the level ended.  Open
records never carry into the next level; each level starts from a fresh
engine state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .beliefs import LevelId, TeamId
from .discrepancies import Discrepancy, DiscrepancyKind
from .errors import DuplicateEpisode, MissingLevel, MixedTeamOrLevel

TOTAL = "total"

# stable column / row order everywhere counts are reported
KIND_ORDER = (
    DiscrepancyKind.CONTRADICTION,
    DiscrepancyKind.OMISSION,
    DiscrepancyKind.UNSUPPORTED,
    DiscrepancyKind.FALSE,
)


@dataclass(frozen=True)
class EpisodeCounts:
    """Count vector for one (team, level): per kind and in total."""

    team: TeamId
    level: LevelId
    by_kind: Mapping[DiscrepancyKind, int]

    def __post_init__(self) -> None:
        if set(self.by_kind) != set(KIND_ORDER):
            raise ValueError("by_kind must cover exactly the four kinds")
        if any(v < 0 for v in self.by_kind.values()):
            raise ValueError("counts must be non-negative")

    @classmethod
    def of(cls, team: TeamId, level: LevelId, by_kind: Mapping[DiscrepancyKind, int]) -> "EpisodeCounts":
        return cls(team=team, level=level,
                   by_kind={k: int(by_kind.get(k, 0)) for k in KIND_ORDER})

    @property
    def total(self) -> int:
        return sum(self.by_kind.values())

    def get(self, kind: DiscrepancyKind | str) -> int:
        """Count for one kind, or the level total for ``TOTAL``."""
        if kind == TOTAL:
            return self.total
        return self.by_kind[DiscrepancyKind(kind)]


@dataclass(frozen=True)
class TeamHistory:
    """One team's episode counts, one per level, ascending and contiguous
    from level 1."""

    team: TeamId
    episodes: tuple[EpisodeCounts, ...]

    def levels(self) -> list[LevelId]:
        return [e.level for e in self.episodes]

    def episode(self, level: LevelId) -> EpisodeCounts:
        for e in self.episodes:
            if e.level == level:
                return e
        raise KeyError(level)


def count_level(
    records: Iterable[Discrepancy], team: TeamId, level: LevelId
) -> EpisodeCounts:
    """Tally records opened during one (team, level).

    Closures never decrement: each record in ``records`` was opened exactly
    once, so the tally is a plain count by kind.
    """
    by_kind = {k: 0 for k in KIND_ORDER}
    for record in records:
        if record.team != team or record.level != level:
            raise MixedTeamOrLevel(
                f"record for team {record.team} level {record.level} in a "
                f"tally for team {team} level {level}"
            )
        by_kind[record.kind] += 1
    return EpisodeCounts.of(team, level, by_kind)


def build_history(all_counts: Iterable[EpisodeCounts]) -> list[TeamHistory]:
    """Group count vectors into level-sorted per-team histories.

    Raises:
        DuplicateEpisode: two vectors for the same (team, level).
        MissingLevel: a team's levels are not contiguous from 1.
    """
    by_team: dict[TeamId, dict[LevelId, EpisodeCounts]] = {}
    for counts in all_counts:
        team_counts = by_team.setdefault(counts.team, {})
        if counts.level in team_counts:
            raise DuplicateEpisode(
                f"duplicate counts for team {counts.team} level {counts.level}"
            )
        team_counts[counts.level] = counts

    histories = []
    for team in sorted(by_team):
        team_counts = by_team[team]
        expected = list(range(1, max(team_counts) + 1))
        missing = [lv for lv in expected if lv not in team_counts]
        if missing:
            raise MissingLevel(f"team {team} is missing level(s) {missing}")
        histories.append(
            TeamHistory(team=team, episodes=tuple(team_counts[lv] for lv in expected))
        )
    return histories
