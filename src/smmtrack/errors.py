"""Exception types shared across the package.

Every error raised by the library derives from :class:`SmmError`, so callers
(and the CLI) can distinguish validation failures from genuine I/O problems.
Errors raised while reading input files derive from :class:`IngestError` and
carry a source location.
"""

from __future__ import annotations


class SmmError(Exception):
    """Base class for all validation and domain errors."""


# --- mental-model update errors ---------------------------------------------

class StaleEvent(SmmError):
    """Event ordinal is not ahead of the stream clock."""


class RetractMissing(SmmError):
    """Retraction of a proposition the actor's model does not hold."""


# --- detection errors --------------------------------------------------------

class DuplicateOwner(SmmError):
    """Two snapshots in one detection call share an owner."""


class UnknownAgent(SmmError):
    """Agent id is not declared where it is required."""


# --- episode counting errors -------------------------------------------------

class MixedTeamOrLevel(SmmError):
    """Record list spans more than one team or level."""


class DuplicateEpisode(SmmError):
    """More than one count vector for the same (team, level)."""


class MissingLevel(SmmError):
    """A team's episode sequence has a gap."""


# --- prediction errors -------------------------------------------------------

class EmptyPredictorSet(SmmError):
    """No predictor levels to weight."""


class SchemeMismatch(SmmError):
    """Weight scheme does not cover exactly the predictor levels."""


class UnknownTarget(SmmError):
    """Target level absent from the history."""


class LengthMismatch(SmmError):
    """Paired vectors have different lengths."""


class DegenerateVariance(SmmError):
    """A vector with zero variance makes the correlation undefined."""


class InsufficientSamples(SmmError):
    """Fewer than three paired samples; significance is undefined."""


# --- scoring errors ----------------------------------------------------------

class UnknownElement(SmmError):
    """Confirmed element id is not declared by any target."""


# --- generator errors --------------------------------------------------------

class InvalidConfig(SmmError):
    """Generator configuration violates its invariants."""


# --- ingestion errors --------------------------------------------------------

class IngestError(SmmError):
    """Input file error with a source location.

    ``location()`` renders ``path:line:column`` as far as those parts are
    known; a semantic error carries the value's key path from the document
    root, with list items by 0-based index, instead of a line number.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | None = None,
        line: int | None = None,
        column: int | None = None,
        key: str | None = None,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.line = line
        self.column = column
        self.key = key

    def location(self) -> str:
        parts = [self.path or "<input>"]
        if self.line is not None:
            parts.append(str(self.line))
            if self.column is not None:
                parts.append(str(self.column))
        loc = ":".join(parts)
        if self.key is not None:
            loc += f" ({self.key})"
        return loc

    def __str__(self) -> str:
        return f"{self.location()}: {super().__str__()}"


class ParseError(IngestError):
    """Input is not well-formed or violates a structural invariant."""


class UnknownVersion(IngestError):
    """Scenario declares a schema version this reader does not know."""


class DanglingReference(IngestError):
    """A record refers to something the scenario does not declare."""


class OrdinalRegression(IngestError):
    """Event ordinals fail to increase strictly within a stream."""


class OutOfRangeTime(IngestError):
    """Event time lies outside the level duration."""


class UnknownStreamAgent(UnknownAgent, IngestError):
    """Stream record names an agent the scenario does not declare."""


class UnknownStreamElement(UnknownElement, IngestError):
    """Stream confirmation names an element no target declares."""
