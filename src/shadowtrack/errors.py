"""Exception taxonomy for the tracking toolkit.

Every error raised by the library derives from ShadowTrackError so callers
can catch one base class at API boundaries. The CLI maps subclasses onto
process exit codes: usage problems exit 2, data problems exit 3, and
numerical failures exit 4.
"""

from __future__ import annotations

__all__ = [
    "ShadowTrackError",
    "UsageError",
    "DataError",
    "NumericalError",
    "IOFailure",
    "NonIncreasingTimes",
    "TooFewPoints",
    "NonPositiveEta",
    "DegenerateWeights",
    "NonSymmetricInformation",
    "IndefiniteInformation",
    "ShapeMismatch",
    "TimeOutOfRange",
    "BracketDoesNotStraddle",
    "MaxIterations",
    "SingularSystem",
    "RangeTooSmall",
    "CoincidentSites",
    "OutOfOrderTimestamp",
    "WindowTooSparse",
    "NoTrajectoryYet",
    "UnknownScenario",
    "SchemaError",
]


class ShadowTrackError(Exception):
    """Base class for all library errors."""


class UsageError(ShadowTrackError):
    """Caller supplied arguments that are structurally invalid."""


class DataError(ShadowTrackError):
    """Input data violates a contract (ordering, shape, schema, weights).

    ``argument`` names the one argument at fault, when a single one is.
    """

    def __init__(self, message: str, *, argument: str | None = None):
        super().__init__(message)
        self.argument = argument


class NumericalError(ShadowTrackError):
    """A numerical procedure failed to produce a usable result."""


# -- data contract violations -------------------------------------------------

class NonIncreasingTimes(DataError):
    """Sample times must be strictly increasing."""


class TooFewPoints(DataError):
    """A time grid needs at least three samples to constrain accelerations."""


class NonPositiveEta(UsageError):
    """The acceleration penalty weight must be strictly positive."""


class DegenerateWeights(DataError):
    """Observation weights leave too few effective samples to smooth."""


class NonSymmetricInformation(DataError):
    """An information matrix is not symmetric within tolerance."""


class IndefiniteInformation(DataError):
    """An information matrix has a meaningfully negative eigenvalue."""


class ShapeMismatch(DataError):
    """Array dimensions disagree with the time grid or with each other."""


class TimeOutOfRange(UsageError):
    """Requested evaluation time precedes the fitted window."""


class BracketDoesNotStraddle(UsageError):
    """The search bracket does not contain the requested target value."""


class MaxIterations(NumericalError):
    """An iterative procedure hit its iteration cap before converging."""


class SingularSystem(NumericalError):
    """A linear system was too ill-conditioned to solve reliably."""


class RangeTooSmall(DataError):
    """A polar fix sits too close to the sensor to invert the geometry."""


class CoincidentSites(DataError):
    """Two sensor sites coincide, so their fixes cannot be combined."""


class OutOfOrderTimestamp(DataError):
    """A streamed observation arrived with a non-increasing timestamp."""


class WindowTooSparse(ShadowTrackError):
    """The tracker window does not yet hold enough usable observations."""


class NoTrajectoryYet(ShadowTrackError):
    """A gap arrived before the tracker produced any trajectory to forecast."""


class UnknownScenario(UsageError):
    """Requested scenario name is not registered."""


class IOFailure(ShadowTrackError):
    """A file could not be read, parsed, or written."""


class SchemaError(DataError):
    """A CSV or JSON document does not match its declared schema."""

    def __init__(self, message: str, *, row: int | None = None,
                 column: str | None = None):
        location = []
        if row is not None:
            location.append(f"row {row}")
        if column is not None:
            location.append(f"column {column!r}")
        if location:
            message = f"{message} ({', '.join(location)})"
        super().__init__(message)
        self.row = row
        self.column = column
