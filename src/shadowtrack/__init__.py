"""Trajectory smoothing and sequential tracking for maneuvering objects.

The package estimates smooth position, velocity, and piecewise constant
acceleration histories from noisy, irregularly sampled, possibly gappy
observations. Observations may arrive directly in track coordinates or
as sensor readings (range and bearing from one site, bearings from two
sites, ranges from two sites) that are first converted into weighted
Cartesian position estimates.

Public layers:

* :mod:`shadowtrack.matrices` builds the structured banded operators for
  a given time grid.
* :mod:`shadowtrack.solver` solves the batch smoothing system, recovers
  velocities and accelerations, searches the smoothing strength for a
  target RMS acceleration, and exposes a dense reference solver.
* :mod:`shadowtrack.geometry` converts sensor readings into position
  estimates with information matrices and condition weights.
* :mod:`shadowtrack.tracker` runs a sequential tracker with configurable
  gap policies. Over the full history it eliminates one sample per fix
  and never re-solves; a sliding window re-solves its samples each step.
* :mod:`shadowtrack.scenarios` generates seeded synthetic data sets.
* :mod:`shadowtrack.fileio` reads and writes the CSV/JSON interchange
  formats used by the ``shadow-track`` command line tool.
"""

from .errors import (
    BracketDoesNotStraddle,
    CoincidentSites,
    DataError,
    DegenerateWeights,
    IndefiniteInformation,
    IOFailure,
    MaxIterations,
    NonIncreasingTimes,
    NonPositiveEta,
    NonSymmetricInformation,
    NoTrajectoryYet,
    NumericalError,
    OutOfOrderTimestamp,
    RangeTooSmall,
    SchemaError,
    ShadowTrackError,
    ShapeMismatch,
    SingularSystem,
    TimeOutOfRange,
    TooFewPoints,
    UnknownScenario,
    UsageError,
    WindowTooSparse,
)
from .matrices import (
    FilterMatrices,
    IdentityReport,
    TimeGrid,
    build_filter_matrices,
    build_time_grid,
    verify_identities,
)
from .solver import (
    EtaSearchResult,
    OracleSolution,
    ScalarObservationSeries,
    ShadowingTrajectory,
    VectorObservationSeries,
    evaluate_spline,
    evaluate_spline_velocity,
    oracle_residuals,
    rms_acceleration,
    search_eta,
    solve_kkt_oracle,
    solve_scalar,
    solve_vector,
)
from .geometry import (
    MODE_IGNORE_CORRELATION,
    MODE_PROPAGATE,
    PROVENANCE_DROPPED,
    PROVENANCE_FORECAST,
    PROVENANCE_OBSERVED,
    PolarObservation,
    RawPositionEstimate,
    SensorSite,
    propagate_information,
    range_bearing_to_position,
    rcond_1norm,
    two_bearings_to_position,
    two_ranges_to_position,
    wrap_bearing,
)
from .tracker import (
    POLICIES,
    POLICY_COALESCE,
    POLICY_FORECAST,
    POLICY_ZERO_WEIGHT,
    SequentialTracker,
    TrackerConfig,
    TrackPoint,
)
from .scenarios import (
    SCENARIO_IDS,
    PlanarScenario,
    RangeBearingScenario,
    ScalarScenario,
    TwoSensorBearingScenario,
    apply_missing,
    gen_planar_path,
    gen_range_bearing,
    gen_scalar_rednoise,
    gen_two_sensor_bearings,
    planar_truth,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
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
    # matrices
    "TimeGrid",
    "build_time_grid",
    "FilterMatrices",
    "build_filter_matrices",
    "IdentityReport",
    "verify_identities",
    # solver
    "ScalarObservationSeries",
    "VectorObservationSeries",
    "ShadowingTrajectory",
    "OracleSolution",
    "EtaSearchResult",
    "solve_scalar",
    "solve_vector",
    "rms_acceleration",
    "search_eta",
    "evaluate_spline",
    "evaluate_spline_velocity",
    "solve_kkt_oracle",
    "oracle_residuals",
    # geometry
    "MODE_IGNORE_CORRELATION",
    "MODE_PROPAGATE",
    "PROVENANCE_OBSERVED",
    "PROVENANCE_FORECAST",
    "PROVENANCE_DROPPED",
    "SensorSite",
    "PolarObservation",
    "RawPositionEstimate",
    "wrap_bearing",
    "rcond_1norm",
    "propagate_information",
    "range_bearing_to_position",
    "two_bearings_to_position",
    "two_ranges_to_position",
    # tracker
    "POLICIES",
    "POLICY_COALESCE",
    "POLICY_ZERO_WEIGHT",
    "POLICY_FORECAST",
    "TrackerConfig",
    "TrackPoint",
    "SequentialTracker",
    # scenarios
    "SCENARIO_IDS",
    "ScalarScenario",
    "PlanarScenario",
    "TwoSensorBearingScenario",
    "RangeBearingScenario",
    "planar_truth",
    "gen_scalar_rednoise",
    "gen_planar_path",
    "gen_two_sensor_bearings",
    "gen_range_bearing",
    "apply_missing",
]
