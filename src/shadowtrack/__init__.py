"""Trajectory smoothing and sequential tracking for maneuvering objects.

The package estimates smooth position, velocity, and piecewise constant
acceleration histories from noisy, irregularly sampled, possibly gappy
observations. Observations may arrive directly in track coordinates or
as sensor readings (range and bearing from one site, bearings from two
sites, ranges from two sites) that are first converted into weighted
Cartesian position estimates.

Public layers:

* :mod:`shadowtrack.series` holds every input check: time grids,
  observation series with their weights or information matrices, the
  smoothing strength, and the checked fixes and polar readings with
  their provenance labels.
* :mod:`shadowtrack.matrices` builds the structured banded operators for
  a given time grid, and the dense KKT oracle assembled from them.
* :mod:`shadowtrack.solver` solves the batch smoothing system, recovers
  velocities and accelerations, and searches the smoothing strength for
  a target RMS acceleration.
* :mod:`shadowtrack.geometry` converts sensor readings into position
  estimates with information matrices and condition weights. Only
  ``generate`` and ``transform`` load it.
* :mod:`shadowtrack.tracker` runs a sequential tracker with configurable
  gap policies. Over the full history or a sliding window it eliminates
  one sample per fix and never re-solves.
* :mod:`shadowtrack.scenarios` generates seeded synthetic data sets.
* :mod:`shadowtrack.fileio` reads and writes the CSV/JSON interchange
  formats used by the ``shadow-track`` command line tool.

Importing the package loads none of them. Each public name, and each
module, is imported on first use (PEP 562), so a command that needs one
layer never pays for the others.
"""

from importlib import import_module

__version__ = "0.1.0"

# The one map from each public name to the module that defines and lists it.
_EXPORTS = {
    "errors": (
        "ShadowTrackError", "UsageError", "DataError", "NumericalError", "IOFailure",
        "NonIncreasingTimes", "TooFewPoints", "NonPositiveEta", "DegenerateWeights",
        "NonSymmetricInformation", "IndefiniteInformation", "ShapeMismatch",
        "TimeOutOfRange", "BracketDoesNotStraddle", "MaxIterations", "SingularSystem",
        "RangeTooSmall", "CoincidentSites", "OutOfOrderTimestamp", "WindowTooSparse",
        "NoTrajectoryYet", "UnknownScenario", "SchemaError",
    ),
    "constants": (
        "SCENARIO_IDS", "MODE_IGNORE_CORRELATION", "MODE_PROPAGATE", "POLICY_COALESCE",
        "POLICY_ZERO_WEIGHT", "POLICY_FORECAST", "POLICIES",
    ),
    "series": (
        "TimeGrid", "build_time_grid", "ScalarObservationSeries", "VectorObservationSeries",
        "PROVENANCE_OBSERVED", "PROVENANCE_FORECAST", "PROVENANCE_DROPPED", "PolarObservation",
        "RawPositionEstimate", "wrap_bearing",
    ),
    "matrices": (
        "FilterMatrices", "IdentityReport", "OracleSolution", "build_filter_matrices",
        "verify_identities", "solve_kkt_oracle", "oracle_residuals",
    ),
    "solver": (
        "ShadowingTrajectory", "EtaSearchResult", "solve_scalar", "solve_vector",
        "rms_acceleration", "search_eta", "evaluate_spline", "evaluate_spline_velocity",
    ),
    "geometry": (
        "SensorSite", "rcond_1norm", "propagate_information", "range_bearing_to_position",
        "two_bearings_to_position", "two_ranges_to_position",
    ),
    "tracker": ("TrackerConfig", "TrackPoint", "SequentialTracker"),
    "scenarios": (
        "ScalarScenario", "PlanarScenario", "TwoSensorBearingScenario",
        "RangeBearingScenario", "planar_truth", "gen_scalar_rednoise", "gen_planar_path",
        "gen_two_sensor_bearings", "gen_range_bearing", "apply_missing",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "fileio")

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_SUBMODULES})
