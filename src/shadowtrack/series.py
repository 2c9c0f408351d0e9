"""Checked inputs: time grids, observation series, fixes, smoothing strengths.

Every rule for valid input lives here: strictly increasing finite times,
symmetric positive semidefinite informations, finite non-negative
weights, enough informed samples, and a positive finite eta. So do the
checked observation types that carry those rules to the tracker and the
file readers: a fix as a ``RawPositionEstimate`` with its provenance
label, and a range-and-bearing reading as a ``PolarObservation``. The
module needs numpy and ``errors`` alone and holds no solver code, so
reading and writing observation files, or generating scenarios, loads
neither the solver nor the operator layer, and reading a fix loads no
sensor geometry. ``solver`` keeps the series classes as attributes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DataError,
    DegenerateWeights,
    IndefiniteInformation,
    NonIncreasingTimes,
    NonPositiveEta,
    NonSymmetricInformation,
    ShapeMismatch,
    TooFewPoints,
    UsageError,
)

__all__ = [
    "TimeGrid", "build_time_grid", "ScalarObservationSeries", "VectorObservationSeries",
    "PROVENANCE_OBSERVED", "PROVENANCE_FORECAST", "PROVENANCE_DROPPED", "PolarObservation",
    "RawPositionEstimate", "wrap_bearing",
]

MIN_EFFECTIVE_SAMPLES = 3

PROVENANCE_OBSERVED = "observed"
PROVENANCE_FORECAST = "forecast-inserted"
PROVENANCE_DROPPED = "dropped"
PROVENANCE_VALUES = (PROVENANCE_OBSERVED, PROVENANCE_FORECAST, PROVENANCE_DROPPED)


def _frozen(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _symmetrized(infos: np.ndarray, where: str = "at sample {}") -> tuple[np.ndarray, np.ndarray]:
    """Symmetric parts W of finite (m, d, d) information matrices, and their roots.

    One eigendecomposition W = V diag(lambda) V^T per matrix checks that W
    is positive semidefinite and gives the root sqrt(max(lambda, 0)) V^T,
    whose Gram matrix is W even when W is singular, unlike a Cholesky
    factor. Raises NonSymmetricInformation or IndefiniteInformation for the
    first matrix that is not symmetric, or not positive semidefinite, to
    within 1e-12 of one plus its largest entry; ``where`` names it in the
    message, formatted with its index.
    """
    scale = np.abs(infos).max(axis=(1, 2))
    skew = np.abs(infos - np.transpose(infos, (0, 2, 1))).max(axis=(1, 2))
    bad = np.nonzero(skew > 1e-12 * (1.0 + scale))[0]
    if bad.size:
        raise NonSymmetricInformation(
            f"information matrix {where.format(int(bad[0]))} is not symmetric "
            f"(max asymmetry {skew[bad[0]]:.3e})"
        )
    sym = 0.5 * infos + 0.5 * np.transpose(infos, (0, 2, 1))  # halved first: no overflow
    eigenvalues, vectors = np.linalg.eigh(sym)
    low = eigenvalues.min(axis=1)
    bad = np.nonzero(low < -1e-12 * (1.0 + scale))[0]
    if bad.size:
        raise IndefiniteInformation(
            f"information matrix {where.format(int(bad[0]))} has eigenvalue "
            f"{low[bad[0]]:.3e}"
        )
    return sym, np.sqrt(np.maximum(eigenvalues, 0.0))[:, :, None] * np.swapaxes(vectors, 1, 2)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing sample times and their gaps.

    Arrays are read-only so a grid can be shared between solves and
    threads without defensive copies.
    """

    times: np.ndarray  # shape (n+1,)
    taus: np.ndarray   # shape (n,), all positive

    @property
    def n(self) -> int:
        """Number of gaps (one less than the number of samples)."""
        return self.taus.shape[0]

    @property
    def span(self) -> float:
        """Total window length t_n - t_0."""
        return float(self.times[-1] - self.times[0])


def build_time_grid(times) -> TimeGrid:
    """Validate sample times and derive the gap sequence.

    Raises TooFewPoints for fewer than three samples, NonIncreasingTimes
    when times are not strictly increasing or not finite.
    """
    arr = np.asarray(times, dtype=float)
    if arr.ndim != 1:
        raise ShapeMismatch(f"times must be one-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 3:
        raise TooFewPoints(
            f"need at least 3 samples to constrain an acceleration, got {arr.shape[0]}"
        )
    if not np.all(np.isfinite(arr)):
        raise NonIncreasingTimes("times contain non-finite values")
    taus = np.diff(arr)
    if np.any(taus <= 0.0):
        bad = int(np.argmax(taus <= 0.0))
        raise NonIncreasingTimes(
            f"times must be strictly increasing; violation between samples "
            f"{bad} and {bad + 1} ({float(arr[bad])!r} -> {float(arr[bad + 1])!r})"
        )
    return TimeGrid(times=_frozen(arr), taus=_frozen(taus))


def _real(value) -> float:
    """``float(value)``, reading an integer past the float range as an infinity of its sign."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _require_positive_eta(eta: float) -> float:
    eta = _real(eta)
    if not np.isfinite(eta) or eta <= 0.0:
        raise NonPositiveEta(f"eta must be a positive finite number, got {eta!r}")
    return eta


@dataclass(frozen=True)
class ScalarObservationSeries:
    """One-dimensional observations with per-sample weights.

    Weights are inverse error variances; a weight of zero marks a
    placeholder slot whose value is ignored by the fit but whose time
    stays in the grid.
    """

    grid: TimeGrid
    values: np.ndarray   # (n+1,)
    weights: np.ndarray  # (n+1,), >= 0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        m = self.grid.times.shape[0]
        if values.shape != (m,):
            raise ShapeMismatch(f"values shape {values.shape} does not match grid of {m} samples")
        if weights.shape != (m,):
            raise ShapeMismatch(f"weights shape {weights.shape} does not match grid of {m} samples")
        if not np.all(np.isfinite(values)):
            raise DataError("observation values must be finite")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
            raise DegenerateWeights("weights must be finite and non-negative")
        if int(np.count_nonzero(weights > 0.0)) < MIN_EFFECTIVE_SAMPLES:
            raise DegenerateWeights(
                f"need at least {MIN_EFFECTIVE_SAMPLES} positive weights, "
                f"got {int(np.count_nonzero(weights > 0.0))}"
            )
        object.__setattr__(self, "values", _frozen(values))
        object.__setattr__(self, "weights", _frozen(weights))


@dataclass(frozen=True)
class VectorObservationSeries:
    """d-dimensional observations with per-sample information matrices.

    Information matrices are inverses of the observation error
    covariances; they must be symmetric and positive semidefinite. A zero
    matrix marks a placeholder slot.
    """

    grid: TimeGrid
    values: np.ndarray        # (n+1, d)
    informations: np.ndarray  # (n+1, d, d)
    roots: np.ndarray = field(init=False, repr=False, compare=False)  # R^T R = information

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        infos = np.asarray(self.informations, dtype=float)
        m = self.grid.times.shape[0]
        if values.ndim != 2 or values.shape[0] != m or values.shape[1] < 1:
            raise ShapeMismatch(
                f"values must have shape ({m}, d), got {values.shape}"
            )
        d = values.shape[1]
        if infos.shape != (m, d, d):
            raise ShapeMismatch(
                f"informations must have shape ({m}, {d}, {d}), got {infos.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise DataError("observation values must be finite")
        if not np.all(np.isfinite(infos)):
            raise DataError("information matrices must be finite")
        sym, roots = _symmetrized(infos)
        # A positive semidefinite matrix is nonzero iff a diagonal entry is positive.
        usable = int(np.count_nonzero(np.any(np.diagonal(sym, axis1=1, axis2=2) > 0.0, axis=1)))
        if usable < MIN_EFFECTIVE_SAMPLES:
            raise DegenerateWeights(
                f"need at least {MIN_EFFECTIVE_SAMPLES} samples with nonzero "
                f"information, got {usable}"
            )
        object.__setattr__(self, "values", _frozen(values))
        object.__setattr__(self, "informations", _frozen(sym))
        object.__setattr__(self, "roots", _frozen(roots))

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def wrap_bearing(theta: float) -> float:
    """Reduce an angle in radians to the interval (-pi, pi]."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise DataError("bearing must be finite")
    return math.pi - (math.pi - theta) % (2.0 * math.pi)


def _positive_variance(value: float, what: str, argument: str) -> float:
    var = float(value)
    if not math.isfinite(var) or var <= 0.0:
        raise DataError(f"{what} must be finite and positive, got {var}", argument=argument)
    return var


@dataclass(frozen=True)
class PolarObservation:
    """One range-and-bearing fix with per-channel noise variances.

    ``bearing`` is in radians, anti-clockwise from the x-axis, stored
    wrapped to (-pi, pi]. ``distance`` is the measured range and must be
    positive, as must both variances.
    """

    distance: float
    bearing: float
    distance_variance: float
    bearing_variance: float

    def __post_init__(self) -> None:
        distance = float(self.distance)
        if not math.isfinite(distance) or distance <= 0.0:
            raise DataError(f"range must be finite and positive, got {distance}",
                            argument="distance")
        var_r = _positive_variance(self.distance_variance, "range variance", "distance_variance")
        var_b = _positive_variance(self.bearing_variance, "bearing variance", "bearing_variance")
        object.__setattr__(self, "distance", distance)
        object.__setattr__(self, "bearing", wrap_bearing(self.bearing))
        object.__setattr__(self, "distance_variance", var_r)
        object.__setattr__(self, "bearing_variance", var_b)


@dataclass(frozen=True)
class RawPositionEstimate:
    """Cartesian position derived from sensor data.

    ``information`` is the inverse covariance of the estimate,
    ``weight`` the conditioning weight in [0, 1] of the transform that
    produced it, and ``provenance`` one of ``"observed"``,
    ``"forecast-inserted"``, or ``"dropped"``. Dropped estimates must not
    enter a solve. Construction checks the information by ``_symmetrized``,
    the rule of every series, and keeps its root R (R^T R = information) as ``root``.
    """

    position: np.ndarray
    information: np.ndarray
    weight: float
    provenance: str
    root: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        position = np.asarray(self.position, dtype=float)
        if position.ndim != 1 or position.size < 1:
            raise ShapeMismatch(
                f"estimate position must be a 1-D vector, got shape {position.shape}"
            )
        if not np.all(np.isfinite(position)):
            raise DataError("estimate position must be finite")
        dim = position.size
        info = np.asarray(self.information, dtype=float)
        if info.shape != (dim, dim):
            raise ShapeMismatch(
                f"information must have shape ({dim}, {dim}), got {info.shape}"
            )
        if not np.all(np.isfinite(info)):
            raise DataError("information matrix must be finite")
        sym, root = _symmetrized(info[None], where="of this estimate")
        weight = float(self.weight)
        if not math.isfinite(weight) or weight < 0.0 or weight > 1.0 + 1e-12:
            raise DataError(f"condition weight must lie in [0, 1], got {weight}",
                            argument="weight")
        if self.provenance not in PROVENANCE_VALUES:
            raise DataError(f"unknown provenance {self.provenance!r}; expected one of "
                            f"{PROVENANCE_VALUES}", argument="provenance")
        object.__setattr__(self, "position", _frozen(position))
        object.__setattr__(self, "information", _frozen(sym[0]))
        object.__setattr__(self, "root", _frozen(root[0]))
        object.__setattr__(self, "weight", min(weight, 1.0))

    @property
    def dim(self) -> int:
        return self.position.size

    @property
    def usable(self) -> bool:
        """Whether the estimate may participate in a solve."""
        return self.provenance != PROVENANCE_DROPPED


def _scalar_fix(value: Optional[float], info: float) -> Optional[RawPositionEstimate]:
    """A scalar reading as an observed 1-D fix; None for a gap (``value`` None or ``info`` 0)."""
    if value is None:
        return None
    value, info = float(value), float(info)
    if not math.isfinite(value):
        raise ShapeMismatch("scalar observation must be finite")
    if not math.isfinite(info) or info < 0.0:
        raise UsageError(f"scalar information must be finite and non-negative, got {info}")
    if info == 0.0:
        return None
    return RawPositionEstimate(position=np.array([value]), information=np.array([[info]]),
                               weight=1.0, provenance=PROVENANCE_OBSERVED)
