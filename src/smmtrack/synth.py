"""Synthetic corpus generation with a planted-discrepancy ledger.

Each planted discrepancy is realized by a minimal event template whose ids
are fresh and never reused, so every template triggers exactly one
discrepancy record and templates cannot interact (all four detectors key on
a single proposition id).  Filler events only ever assert, re-assert, or
retract propositions that agree with ground truth and sit outside every
expected-knowledge set, so they can never open anything.  The ledger is
therefore an exact oracle: running the engine over the emitted streams must
detect the ledger's entries and nothing else.

Id placement rules, applied by :func:`_planting_specs`:

* every planted id but an unsupported one is in coverage; contradiction and
  omission ids are not facts, so a half-played planting is never a false or
  unsupported belief;
* a false id is a fact, asserted with the flipped polarity by one agent;
* an omission id is expected of ``second`` and asserted by ``first`` only;
* a contradiction id is asserted by ``first`` and its negation by ``second``;
* filler ids are facts asserted with their true polarity.

Generation is single-pass over one seeded generator with a fixed traversal
order (teams, then levels, then kinds), so a given seed reproduces the
corpus byte for byte.  Plantings and filler plan each event as an
``(actor, op, proposition_id, polarity, attitude)`` tuple, which becomes an
:class:`UpdateEvent` field for field.
"""

from __future__ import annotations

import gc
import json
import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping, TextIO

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
from .discrepancies import DiscrepancyKind
from .episodes import KIND_ORDER
from .errors import InvalidConfig
from .ingest import Scenario, save_events, save_scenario
from .ingest import _document, _indented, _json_str, _read_text

RNG_ALGORITHM = "python-random-mt19937"

DEFAULT_RATES: Mapping[DiscrepancyKind, float] = {
    DiscrepancyKind.OMISSION: 6.0,
    DiscrepancyKind.CONTRADICTION: 3.0,
    DiscrepancyKind.FALSE: 0.05,
    DiscrepancyKind.UNSUPPORTED: 0.05,
}


# a corpus planned above this many events is refused before it is built: the
# largest workload plans 120,000 (500 teams x 4 levels x 60)
_MAX_EVENTS = 10**7


@dataclass(frozen=True)
class GenConfig:
    """Knobs for corpus shape.

    ``rate_by_kind`` is the expected plantings per level before cross-team
    spread; ``team_baseline_spread`` scales a per-team multiplicative factor
    (1 + spread * N(0,1), floored at 0) drawn once per team and kind;
    ``noise`` is additive level-to-level jitter.  A rate of exactly 0
    disables that kind outright, jitter included.
    """

    teams: int = 20
    levels: int = 4
    seed: int = 0
    rate_by_kind: Mapping[DiscrepancyKind, float] = field(
        default_factory=lambda: dict(DEFAULT_RATES)
    )
    team_baseline_spread: float = 0.35
    noise: float = 0.3
    roles: tuple[AgentId, ...] = ("photographer", "spotter")
    level_duration: float = 480.0
    min_events_per_level: int = 60

    def __post_init__(self) -> None:
        if self.teams < 1:
            raise InvalidConfig(f"teams must be >= 1, got {self.teams}")
        if self.levels < 1:
            raise InvalidConfig(f"levels must be >= 1, got {self.levels}")
        if set(self.rate_by_kind) != set(KIND_ORDER):
            raise InvalidConfig("rate_by_kind must cover exactly the four kinds")
        # each float knob must be finite: an infinite count or time has no
        # integer or JSON form; the comparisons also reject NaN
        for kind, rate in self.rate_by_kind.items():
            if not 0 <= rate < math.inf:
                raise InvalidConfig(f"rate for {kind.value} must be finite and >= 0, got {rate}")
        if not 0 <= self.team_baseline_spread < math.inf:
            raise InvalidConfig("team_baseline_spread must be finite and >= 0")
        if not 0 <= self.noise < math.inf:
            raise InvalidConfig("noise must be finite and >= 0")
        if len(self.roles) < 2 or len(set(self.roles)) != len(self.roles):
            raise InvalidConfig("roles must be at least two distinct agent ids")
        if not 0 < self.level_duration < math.inf:
            raise InvalidConfig("level_duration must be finite and positive")
        if self.min_events_per_level < 0:
            raise InvalidConfig("min_events_per_level must be >= 0")
        # a level plans at least the largest of 1, its floor and its summed
        # rate (clamped: four finite rates can sum to inf)
        per_level = max(1, self.min_events_per_level,
                        math.ceil(min(sum(self.rate_by_kind.values()), _MAX_EVENTS + 1)))
        planned = self.teams * self.levels * per_level
        if planned > _MAX_EVENTS:
            raise InvalidConfig(
                f"corpus plans at least {planned} events (teams {self.teams} x levels "
                f"{self.levels} x {per_level} per level), over {_MAX_EVENTS}; lower "
                f"teams, levels, min_events_per_level or rate_by_kind")

    def to_doc(self) -> dict:
        return {
            "teams": self.teams,
            "levels": self.levels,
            "seed": self.seed,
            "rate_by_kind": {
                kind.value: self.rate_by_kind[kind] for kind in KIND_ORDER
            },
            "team_baseline_spread": self.team_baseline_spread,
            "noise": self.noise,
            "roles": list(self.roles),
            "level_duration": self.level_duration,
            "min_events_per_level": self.min_events_per_level,
        }


@dataclass(frozen=True)
class Planting:
    """One injected discrepancy and the stream positions realizing it.

    ``positions`` are the ordinals (within the team-level stream) of the
    planting's events.
    """

    team: TeamId
    level: LevelId
    kind: DiscrepancyKind
    proposition_id: str
    positions: tuple[int, ...]


@dataclass(frozen=True)
class PlantLedger:
    """The oracle: everything that was planted, and nothing else exists."""

    algorithm: str
    seed: int
    planted: tuple[Planting, ...]

    def tallies(self) -> dict[tuple[TeamId, LevelId, DiscrepancyKind], int]:
        counts: dict[tuple[TeamId, LevelId, DiscrepancyKind], int] = {}
        for entry in self.planted:
            key = (entry.team, entry.level, entry.kind)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def keys(self) -> frozenset[tuple[TeamId, LevelId, str, str]]:
        return frozenset(
            (entry.team, entry.level, entry.kind.value, entry.proposition_id)
            for entry in self.planted
        )


@dataclass(frozen=True)
class GeneratedCorpus:
    config: GenConfig
    scenario: Scenario
    events_by_team: Mapping[TeamId, tuple[UpdateEvent, ...]]
    ledger: PlantLedger

    def team_level_events(self, team: TeamId, level: LevelId) -> list[UpdateEvent]:
        return list(self._by_level[team].get(level, ()))

    @cached_property
    def _by_level(self) -> dict[TeamId, dict[LevelId, list[UpdateEvent]]]:
        """Each team's events split by level, in stream order; built once."""
        index: dict[TeamId, dict[LevelId, list[UpdateEvent]]] = {}
        for team, events in self.events_by_team.items():
            by_level = index[team] = {}
            for event in events:
                by_level.setdefault(event.level, []).append(event)
        return index


# One planned event: (actor, op, proposition_id, polarity, attitude), the
# fields of its UpdateEvent after t.
_Spec = tuple[AgentId, EventOp, str, Polarity, Attitude]


# a draw above this is a runaway knob: the largest in any workload is ~2,640
_MAX_COUNT = 10**5


def _draw_count(rng: random.Random, baseline: float, noise: float) -> int:
    drawn = baseline + noise * rng.gauss(0.0, 1.0)
    if not math.isfinite(drawn) or drawn > _MAX_COUNT:
        raise InvalidConfig(f"drew {drawn} plantings of one kind for one level, over "
                            f"{_MAX_COUNT}; lower rate_by_kind, team_baseline_spread or noise")
    return max(0, round(drawn))


def _planting_specs(kind: DiscrepancyKind, pid: str, first: AgentId, second: AgentId,
                    polarity: Polarity, facts: dict[str, Polarity], coverage: set[str],
                    expected: dict[AgentId, set[str]]) -> list[_Spec]:
    """Place ``pid`` by the module's id placement rules; return its events."""
    if kind is not DiscrepancyKind.UNSUPPORTED:
        coverage.add(pid)
    if kind is DiscrepancyKind.FALSE:
        facts[pid] = polarity
        polarity = polarity.flipped()
    elif kind is DiscrepancyKind.OMISSION:
        expected[second].add(pid)
    specs = [(first, EventOp.ASSERT, pid, polarity, Attitude.BELIEF)]
    if kind is DiscrepancyKind.CONTRADICTION:
        specs.append((second, EventOp.ASSERT, pid, polarity.flipped(), Attitude.BELIEF))
    return specs


def _filler_specs(
    rng: random.Random,
    count: int,
    team: TeamId,
    level: LevelId,
    roles: tuple[AgentId, ...],
    facts: dict[str, Polarity],
) -> list[_Spec]:
    specs: list[_Spec] = []
    # `held` keeps each role's (id, polarity) pairs in assertion order, which
    # the retract draw indexes into; `held_ids` answers "already held?".
    held: dict[AgentId, list[tuple[str, Polarity]]] = {role: [] for role in roles}
    held_ids: dict[AgentId, set[str]] = {role: set() for role in roles}
    spoken: list[tuple[str, Polarity]] = []
    for index in range(count):
        roll = rng.random()
        if roll < 0.08:
            holders = [role for role in roles if held[role]]
            if holders:
                actor = rng.choice(holders)
                pid, polarity = held[actor].pop(rng.randrange(len(held[actor])))
                held_ids[actor].remove(pid)
                specs.append((actor, EventOp.RETRACT, pid, polarity, Attitude.BELIEF))
                continue
        if roll < 0.25 and spoken:
            pid, polarity = rng.choice(spoken)
            actor = rng.choice(roles)
        else:
            pid = f"t{team}l{level}_scene{index:03d}"
            polarity = (
                Polarity.NEGATIVE if rng.random() < 0.25 else Polarity.POSITIVE
            )
            facts[pid] = polarity
            spoken.append((pid, polarity))
            actor = rng.choice(roles)
        attitude = Attitude.BELIEF
        extra = rng.random()
        if extra < 0.08:
            attitude = Attitude.GOAL
        elif extra < 0.14:
            attitude = Attitude.COMMITMENT
        if pid not in held_ids[actor]:
            held_ids[actor].add(pid)
            held[actor].append((pid, polarity))
        specs.append((actor, EventOp.ASSERT, pid, polarity, attitude))
    return specs


def generate(config: GenConfig) -> GeneratedCorpus:
    """Build one deterministic corpus: scenario, per-team streams, ledger.

    The corpus is many small objects and no reference cycles, so the cyclic
    garbage collector is paused while it is built: its walks over the
    growing heap would free nothing.  The caller's collector state is
    restored on return, and on error; the objects it tracks are then in
    the oldest generation (see :func:`_promote_and_clear_free_lists`).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _generate(config)
    finally:
        _promote_and_clear_free_lists()
        if was_enabled:
            gc.enable()


def _promote_and_clear_free_lists() -> None:
    """Move every tracked object to the oldest generation without walking
    it, and empty the interpreter's free lists.

    Only a full collection clears the free lists, and the pause skips
    them.  The planning tuples left on the lists (up to 2,000 of each small
    size) sit among the corpus's objects and keep its memory mapped after
    the corpus is freed.  With every object frozen, the full collection
    here walks nothing.  A caller's own frozen objects must stay frozen, so
    then nothing is done.
    """
    if gc.get_freeze_count():
        return
    gc.freeze()
    gc.collect()
    gc.unfreeze()


def _generate(config: GenConfig) -> GeneratedCorpus:
    rng = random.Random(config.seed)
    level_ids = list(range(1, config.levels + 1))

    level_facts: dict[LevelId, dict[str, Polarity]] = {l: {} for l in level_ids}
    level_coverage: dict[LevelId, set[str]] = {l: set() for l in level_ids}
    level_expected: dict[LevelId, dict[AgentId, set[str]]] = {
        l: {role: set() for role in config.roles} for l in level_ids
    }

    events_by_team: dict[TeamId, tuple[UpdateEvent, ...]] = {}
    planted: list[Planting] = []

    for team in range(1, config.teams + 1):
        baselines = {
            kind: max(
                0.0,
                config.rate_by_kind[kind]
                * (1.0 + config.team_baseline_spread * rng.gauss(0.0, 1.0)),
            )
            for kind in KIND_ORDER if config.rate_by_kind[kind] != 0
        }
        team_events: list[UpdateEvent] = []
        for level in level_ids:
            facts, coverage, expected = (
                level_facts[level], level_coverage[level], level_expected[level])
            plantings: list[tuple[DiscrepancyKind, str, list[_Spec]]] = []
            for kind, baseline in baselines.items():
                for index in range(_draw_count(rng, baseline, config.noise)):
                    pid = f"t{team}l{level}_{kind.value}{index}"
                    first, second = rng.sample(config.roles, 2)
                    polarity = rng.choice((Polarity.POSITIVE, Polarity.NEGATIVE))
                    plantings.append((kind, pid, _planting_specs(
                        kind, pid, first, second, polarity, facts, coverage, expected)))
            tokens = [index for index, (_, _, specs) in enumerate(plantings) for _ in specs]
            filler = _filler_specs(rng, max(0, config.min_events_per_level - len(tokens)),
                                   team, level, config.roles, facts)
            # riffle: each planting's events, and the filler, keep their order
            tokens += [-1] * len(filler)
            rng.shuffle(tokens)
            # d * random() is exactly what rng.uniform(0.0, d) computes
            times = sorted(config.level_duration * rng.random() for _ in tokens)
            filler_left = iter(filler)
            positions: list[list[int]] = [[] for _ in plantings]
            for ordinal, (token, t) in enumerate(zip(tokens, times), start=1):
                if token < 0:
                    spec = next(filler_left)
                else:
                    landed = positions[token]
                    spec = plantings[token][2][len(landed)]
                    landed.append(ordinal)
                team_events.append(UpdateEvent(ordinal, team, level, round(t, 1), *spec))
            planted.extend(Planting(team, level, kind, pid, tuple(landed))
                           for (kind, pid, _), landed in zip(plantings, positions))
        events_by_team[team] = tuple(team_events)

    ground_truth = {
        level: GroundTruth.build(
            level_facts[level],
            set(level_facts[level]) | level_coverage[level],
            level_expected[level],
        )
        for level in level_ids
    }
    scenario = Scenario(
        roles=tuple(config.roles),
        durations=dict.fromkeys(level_ids, config.level_duration),
        ground_truth=ground_truth,
        targets=(),
        notes=f"synthetic corpus ({RNG_ALGORITHM}, seed {config.seed})",
    )
    ledger = PlantLedger(
        algorithm=RNG_ALGORITHM, seed=config.seed, planted=tuple(planted)
    )
    return GeneratedCorpus(
        config=config,
        scenario=scenario,
        events_by_team=events_by_team,
        ledger=ledger,
    )


# --- files -------------------------------------------------------------------

def _write_ledger(ledger: PlantLedger, config: GenConfig, out: TextIO) -> None:
    """Write exactly ``json.dumps(doc, indent=2) + "\n"`` for the ledger's
    document, one f-string per planting."""
    head = {
        "generator": {
            "algorithm": ledger.algorithm,
            "seed": ledger.seed,
            "config": config.to_doc(),
        },
    }
    out.write(json.dumps(head, indent=2)[:-2] + ',\n  "planted": [')  # head without "\n}"
    sep = "\n"
    for entry in ledger.planted:
        out.write(f'{sep}    {{\n'
                  f'      "team": {entry.team!r},\n'
                  f'      "level": {entry.level!r},\n'
                  f'      "kind": "{entry.kind._value_}",\n'
                  f'      "proposition_id": {_json_str(entry.proposition_id)},\n'
                  f'      "positions": {_indented(map(repr, entry.positions), "      ")}\n'
                  f'    }}')
        sep = ",\n"
    out.write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")


def load_ledger(path: str) -> PlantLedger:
    """Read and validate a ledger written by :func:`write_corpus`.

    Raises:
        ParseError: undecodable UTF-8, malformed JSON, a missing, unknown or
            ill-typed field, a team or level below 1, or a second planting
            of one (team, level, proposition id); the error names its key
            path.
        OSError: unreadable file.
    """
    doc = _document(_read_text(path), path)
    doc.object("ledger", ("generator", "planted"))
    gen = doc["generator"]
    if "config" in gen.object("generator", ("algorithm", "seed", "config"),
                              ("algorithm", "seed")):
        gen["config"].object()
    planted = []
    seen: set[tuple[TeamId, LevelId, str]] = set()
    for entry in doc["planted"].items():
        entry.object("planting", ("team", "level", "kind", "proposition_id", "positions"))
        team, level = entry["team"].int(), entry["level"].int()
        if team < 1:
            entry["team"].fail(f"team {team} must be >= 1")
        if level < 1:
            entry["level"].fail(f"level {level} must be >= 1")
        kind = entry["kind"].enum(DiscrepancyKind)
        pid = entry["proposition_id"].id()
        # each planted id realizes exactly one discrepancy
        if (team, level, pid) in seen:
            entry["proposition_id"].fail(
                f"duplicate planting of {pid!r} in team {team} level {level}")
        seen.add((team, level, pid))
        ordinals = tuple(position.int("position") for position in entry["positions"].items())
        if not ordinals or any(a >= b for a, b in zip((0, *ordinals), ordinals)):
            entry["positions"].fail(
                "positions must be one or more strictly increasing ordinals from 1")
        planted.append(Planting(team, level, kind, pid, ordinals))
    return PlantLedger(
        algorithm=gen["algorithm"].id(),
        seed=gen["seed"].int(),
        planted=tuple(planted),
    )


def write_corpus(corpus: GeneratedCorpus, out_dir: str) -> list[str]:
    """Write scenario.json, one events file per team, and ledger.json.

    Returns the written paths in a stable order.

    Raises:
        InvalidConfig: ``out_dir`` holds an ``events_t*.jsonl`` file that
            this corpus would not overwrite, so a glob over the directory
            would mix two corpora.  Nothing is written or deleted.
    """
    root = Path(out_dir)
    names = [f"events_t{team:02d}.jsonl" for team in sorted(corpus.events_by_team)]
    stale = sorted({path.name for path in root.glob("events_t*.jsonl")} - set(names))
    if stale:
        raise InvalidConfig(
            f"{out_dir} holds {stale[0]}, which this corpus of "
            f"{len(names)} teams would not overwrite; write to another directory "
            f"or remove the old events files")
    root.mkdir(parents=True, exist_ok=True)
    paths: list[str] = []

    scenario_path = root / "scenario.json"
    save_scenario(corpus.scenario, str(scenario_path))
    paths.append(str(scenario_path))

    for team, name in zip(sorted(corpus.events_by_team), names):
        events_path = root / name
        save_events(corpus.events_by_team[team], str(events_path))
        paths.append(str(events_path))

    ledger_path = root / "ledger.json"
    with open(ledger_path, "w", encoding="utf-8", newline="\n") as handle:
        _write_ledger(corpus.ledger, corpus.config, handle)
    paths.append(str(ledger_path))
    return paths
