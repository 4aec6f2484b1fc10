"""Belief-discrepancy tracking for team dialogue streams.

The pipeline: ingest a scenario and annotated event streams, maintain one
mental model per agent, detect four kinds of belief discrepancy
(contradiction, omission, unsupported, false), count them per team and
level, forecast a target level as a weighted sum of the earlier levels, and
score target-identification confirmations.  A synthetic generator with a
planted-discrepancy ledger provides an exact oracle for validation.
"""

from importlib.resources import files as _files

from .beliefs import (
    AgentId,
    Attitude,
    EventOp,
    GroundTruth,
    LevelId,
    MentalModel,
    Polarity,
    Proposition,
    Snapshot,
    TeamId,
    UpdateEvent,
)
from .discrepancies import (
    Discrepancy,
    DiscrepancyKind,
    EngineState,
    detect_all,
    detect_contradictions,
    detect_false_beliefs,
    detect_omissions,
    detect_unsupported,
    replay,
)
from .episodes import (
    KIND_ORDER,
    TOTAL,
    EpisodeCounts,
    TeamHistory,
    build_history,
    count_level,
)
from .errors import (
    ActorMismatch,
    DanglingReference,
    DegenerateVariance,
    DuplicateEpisode,
    DuplicateOwner,
    EmptyPredictorSet,
    IngestError,
    InsufficientSamples,
    InvalidConfig,
    LengthMismatch,
    MissingLevel,
    MixedTeamOrLevel,
    OrdinalRegression,
    OutOfRangeTime,
    ParseError,
    RetractMissing,
    SchemeMismatch,
    SmmError,
    StaleEvent,
    UnknownAgent,
    UnknownElement,
    UnknownTarget,
    UnknownVersion,
)
from .ingest import (
    Confirmation,
    Record,
    Scenario,
    dump_events,
    dump_scenario,
    load_events,
    load_scenario,
    parse_events,
    parse_scenario,
    save_events,
    save_scenario,
)
from .prediction import (
    AUTOCORRELATION_CAVEAT,
    CorrelationResult,
    Prediction,
    PredictionReport,
    WeightScheme,
    batch_report,
    pearson,
    predict,
    uniform_weights,
)
from .scoring import (
    Difficulty,
    ScoreCard,
    TargetScore,
    TargetSpec,
    score,
)
from .synth import (
    GenConfig,
    GeneratedCorpus,
    Planting,
    PlantLedger,
    generate,
    load_ledger,
    write_corpus,
)

__version__ = "0.1.0"


def fixture_path(name: str) -> str:
    """Filesystem path of a bundled fixture file."""
    return str(_files("smmtrack") / "fixtures" / name)

