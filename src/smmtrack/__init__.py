"""Belief-discrepancy tracking for team dialogue streams.

The pipeline: ingest a scenario and annotated event streams, maintain one
mental model per agent, detect four kinds of belief discrepancy
(contradiction, omission, unsupported, false), count them per team and
level, forecast a target level as a weighted sum of the earlier levels, and
score target-identification confirmations.  A synthetic generator with a
planted-discrepancy ledger provides an exact oracle for validation.

The root exports the pipeline's entry points; every other name imports
from its module, for example ``from smmtrack.errors import SmmError``.
"""

from importlib.resources import files as _files

from .discrepancies import EngineState, detect_all, replay
from .episodes import build_history, count_level
from .ingest import load_events, load_scenario
from .prediction import batch_report, pearson, uniform_weights
from .synth import GenConfig, generate, write_corpus

__version__ = "0.1.0"


def fixture_path(name: str) -> str:
    """Filesystem path of a bundled fixture file."""
    return str(_files("smmtrack") / "fixtures" / name)
