"""Synthetic corpus generation with a planted-discrepancy ledger.

Each planted discrepancy is realized by a minimal event template whose ids
are fresh and never reused, so every template triggers exactly one
discrepancy record and templates cannot interact (all four detectors key on
a single proposition id).  Filler events only ever assert, re-assert, or
retract propositions that agree with ground truth and sit outside every
expected-knowledge set, so they can never open anything.  The ledger is
therefore an exact oracle: running the engine over the emitted streams must
detect the ledger's entries and nothing else.

Id placement rules the templates rely on:

* contradiction and omission ids live in coverage but not in facts, so the
  prefix of a half-played template is never a false or unsupported belief;
* false ids are facts asserted with flipped polarity by one agent only;
* unsupported ids sit outside coverage and are spoken by one agent only;
* filler ids are facts asserted with their true polarity.

Generation is single-pass over one seeded generator with a fixed traversal
order (teams, then levels, then kinds), so a given seed reproduces the
corpus byte for byte.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .beliefs import (
    AgentId,
    Attitude,
    EventOp,
    GroundTruth,
    LevelId,
    Polarity,
    Proposition,
    TeamId,
    UpdateEvent,
)
from .discrepancies import DiscrepancyKind
from .episodes import KIND_ORDER
from .errors import InvalidConfig
from .ingest import LevelSpec, Scenario, save_events, save_scenario
from .ingest import _as_enum, _as_id, _as_int, _as_list, _as_object, _check_fields, _decode

RNG_ALGORITHM = "python-random-mt19937"

DEFAULT_RATES: Mapping[DiscrepancyKind, float] = {
    DiscrepancyKind.OMISSION: 6.0,
    DiscrepancyKind.CONTRADICTION: 3.0,
    DiscrepancyKind.FALSE: 0.05,
    DiscrepancyKind.UNSUPPORTED: 0.05,
}


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
        for kind, rate in self.rate_by_kind.items():
            if not rate >= 0:
                raise InvalidConfig(f"rate for {kind.value} must be >= 0, got {rate}")
        if not self.team_baseline_spread >= 0:
            raise InvalidConfig("team_baseline_spread must be >= 0")
        if not self.noise >= 0:
            raise InvalidConfig("noise must be >= 0")
        if len(self.roles) < 2 or len(set(self.roles)) != len(self.roles):
            raise InvalidConfig("roles must be at least two distinct agent ids")
        if not self.level_duration > 0:
            raise InvalidConfig("level_duration must be positive")
        if self.min_events_per_level < 0:
            raise InvalidConfig("min_events_per_level must be >= 0")

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
    template's events.
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
        return [e for e in self.events_by_team[team] if e.level == level]


@dataclass(frozen=True)
class _EventSpec:
    actor: AgentId
    op: EventOp
    pid: str
    polarity: Polarity
    attitude: Attitude = Attitude.BELIEF


@dataclass
class _Template:
    kind: DiscrepancyKind
    pid: str
    specs: list[_EventSpec]


def _draw_count(rng: random.Random, baseline: float, noise: float) -> int:
    return max(0, round(baseline + noise * rng.gauss(0.0, 1.0)))


def _plant_templates(
    rng: random.Random,
    kind: DiscrepancyKind,
    count: int,
    team: TeamId,
    level: LevelId,
    roles: tuple[AgentId, ...],
    facts: dict[str, Polarity],
    coverage: set[str],
    expected: dict[AgentId, set[str]],
) -> list[_Template]:
    templates: list[_Template] = []
    for index in range(count):
        pid = f"t{team}l{level}_{kind.value}{index}"
        first, second = rng.sample(roles, 2)
        polarity = rng.choice((Polarity.POSITIVE, Polarity.NEGATIVE))
        if kind is DiscrepancyKind.CONTRADICTION:
            coverage.add(pid)
            specs = [
                _EventSpec(first, EventOp.ASSERT, pid, polarity),
                _EventSpec(second, EventOp.ASSERT, pid, polarity.flipped()),
            ]
        elif kind is DiscrepancyKind.OMISSION:
            # `second` is the lacking agent: the id is expected of them and
            # only `first` ever asserts it.
            coverage.add(pid)
            expected[second].add(pid)
            specs = [_EventSpec(first, EventOp.ASSERT, pid, polarity)]
        elif kind is DiscrepancyKind.FALSE:
            facts[pid] = polarity
            coverage.add(pid)
            specs = [_EventSpec(first, EventOp.ASSERT, pid, polarity.flipped())]
        else:
            # unsupported: outside coverage, single speaker, no corroboration
            specs = [_EventSpec(first, EventOp.ASSERT, pid, polarity)]
        templates.append(_Template(kind=kind, pid=pid, specs=specs))
    return templates


def _filler_specs(
    rng: random.Random,
    count: int,
    team: TeamId,
    level: LevelId,
    roles: tuple[AgentId, ...],
    facts: dict[str, Polarity],
) -> list[_EventSpec]:
    specs: list[_EventSpec] = []
    held: dict[AgentId, list[str]] = {role: [] for role in roles}
    spoken: list[str] = []
    for index in range(count):
        roll = rng.random()
        holders = [role for role in roles if held[role]]
        if roll < 0.08 and holders:
            actor = rng.choice(holders)
            pid = held[actor].pop(rng.randrange(len(held[actor])))
            specs.append(_EventSpec(actor, EventOp.RETRACT, pid, facts[pid]))
            continue
        if roll < 0.25 and spoken:
            pid = rng.choice(spoken)
            actor = rng.choice(roles)
        else:
            pid = f"t{team}l{level}_scene{index:03d}"
            polarity = (
                Polarity.NEGATIVE if rng.random() < 0.25 else Polarity.POSITIVE
            )
            facts[pid] = polarity
            spoken.append(pid)
            actor = rng.choice(roles)
        attitude = Attitude.BELIEF
        extra = rng.random()
        if extra < 0.08:
            attitude = Attitude.GOAL
        elif extra < 0.14:
            attitude = Attitude.COMMITMENT
        if pid not in held[actor]:
            held[actor].append(pid)
        specs.append(_EventSpec(actor, EventOp.ASSERT, pid, facts[pid], attitude))
    return specs


def _interleave(
    rng: random.Random,
    templates: Sequence[_Template],
    filler: Sequence[_EventSpec],
) -> tuple[list[_EventSpec], dict[int, list[int]]]:
    """Riffle template events (order preserved within each) with filler.

    Returns the final spec order plus, per template index, the 1-based
    stream positions its events landed on.
    """
    tokens: list[int] = []
    for index, template in enumerate(templates):
        tokens.extend([index] * len(template.specs))
    tokens.extend([-1] * len(filler))
    rng.shuffle(tokens)

    cursors = [0] * len(templates)
    filler_cursor = 0
    order: list[_EventSpec] = []
    positions: dict[int, list[int]] = {index: [] for index in range(len(templates))}
    for position, token in enumerate(tokens, start=1):
        if token < 0:
            order.append(filler[filler_cursor])
            filler_cursor += 1
        else:
            order.append(templates[token].specs[cursors[token]])
            cursors[token] += 1
            positions[token].append(position)
    return order, positions


def generate(config: GenConfig) -> GeneratedCorpus:
    """Build one deterministic corpus: scenario, per-team streams, ledger."""
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
            kind: (
                0.0
                if config.rate_by_kind[kind] == 0
                else max(
                    0.0,
                    config.rate_by_kind[kind]
                    * (1.0 + config.team_baseline_spread * rng.gauss(0.0, 1.0)),
                )
            )
            for kind in KIND_ORDER
        }
        team_events: list[UpdateEvent] = []
        for level in level_ids:
            templates: list[_Template] = []
            for kind in KIND_ORDER:
                if config.rate_by_kind[kind] == 0:
                    count = 0
                else:
                    count = _draw_count(rng, baselines[kind], config.noise)
                templates.extend(
                    _plant_templates(
                        rng, kind, count, team, level, config.roles,
                        level_facts[level], level_coverage[level],
                        level_expected[level],
                    )
                )
            planted_events = sum(len(t.specs) for t in templates)
            filler_count = max(0, config.min_events_per_level - planted_events)
            filler = _filler_specs(
                rng, filler_count, team, level, config.roles, level_facts[level]
            )
            order, positions = _interleave(rng, templates, filler)

            times = sorted(
                rng.uniform(0.0, config.level_duration) for _ in order
            )
            for ordinal, (spec, t) in enumerate(zip(order, times), start=1):
                team_events.append(
                    UpdateEvent(
                        ordinal=ordinal,
                        team=team,
                        level=level,
                        t=round(t, 1),
                        actor=spec.actor,
                        op=spec.op,
                        proposition=Proposition(id=spec.pid, polarity=spec.polarity),
                        attitude=spec.attitude,
                    )
                )
            for index, template in enumerate(templates):
                planted.append(
                    Planting(
                        team=team,
                        level=level,
                        kind=template.kind,
                        proposition_id=template.pid,
                        positions=tuple(positions[index]),
                    )
                )
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
        schema_version=1,
        roles=tuple(config.roles),
        levels=tuple(
            LevelSpec(level=level, duration_seconds=config.level_duration)
            for level in level_ids
        ),
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

def dump_ledger(ledger: PlantLedger, config: GenConfig) -> str:
    doc = {
        "generator": {
            "algorithm": ledger.algorithm,
            "seed": ledger.seed,
            "config": config.to_doc(),
        },
        "planted": [
            {
                "team": entry.team,
                "level": entry.level,
                "kind": entry.kind.value,
                "proposition_id": entry.proposition_id,
                "positions": list(entry.positions),
            }
            for entry in ledger.planted
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def load_ledger(path: str) -> PlantLedger:
    """Read and validate a ledger written by :func:`write_corpus`.

    Raises:
        ParseError: malformed JSON, or a missing, unknown or ill-typed
            field (the error names the key).
        OSError: unreadable file.
    """
    with open(path, "r", encoding="utf-8") as handle:
        doc = _as_object(_decode(handle.read(), path), "ledger", path)
    _check_fields(doc, frozenset({"generator", "planted"}), ("generator", "planted"),
                  "ledger", path)
    gen = _as_object(doc["generator"], "generator", path, key="generator")
    _check_fields(gen, frozenset({"algorithm", "seed", "config"}), ("algorithm", "seed"),
                  "generator", path, key_prefix="generator.")
    fields = ("team", "level", "kind", "proposition_id", "positions")
    planted = []
    for index, entry in enumerate(_as_list(doc["planted"], "planted", path, key="planted")):
        at = f"planted.{index}"
        entry = _as_object(entry, "planting", path, key=at)
        _check_fields(entry, frozenset(fields), fields, "planting", path,
                      key_prefix=at + ".")
        positions = _as_list(entry["positions"], "positions", path, key=at + ".positions")
        planted.append(Planting(
            team=_as_int(entry["team"], "team", path, key=at + ".team"),
            level=_as_int(entry["level"], "level", path, key=at + ".level"),
            kind=_as_enum(entry["kind"], DiscrepancyKind, "kind", path, key=at + ".kind"),
            proposition_id=_as_id(entry["proposition_id"], "proposition_id", path,
                                  key=at + ".proposition_id"),
            positions=tuple(_as_int(p, "position", path, key=at + ".positions")
                            for p in positions),
        ))
    return PlantLedger(
        algorithm=_as_id(gen["algorithm"], "algorithm", path, key="generator.algorithm"),
        seed=_as_int(gen["seed"], "seed", path, key="generator.seed"),
        planted=tuple(planted),
    )


def write_corpus(corpus: GeneratedCorpus, out_dir: str) -> list[str]:
    """Write scenario.json, one events file per team, and ledger.json.

    Returns the written paths in a stable order.
    """
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    paths: list[str] = []

    scenario_path = root / "scenario.json"
    save_scenario(corpus.scenario, str(scenario_path))
    paths.append(str(scenario_path))

    for team in sorted(corpus.events_by_team):
        events_path = root / f"events_t{team:02d}.jsonl"
        save_events(list(corpus.events_by_team[team]), str(events_path))
        paths.append(str(events_path))

    ledger_path = root / "ledger.json"
    with open(ledger_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(dump_ledger(corpus.ledger, corpus.config))
    paths.append(str(ledger_path))
    return paths
