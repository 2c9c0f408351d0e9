"""Planar sensor geometry.

Converts non-Cartesian fixes (range plus bearing from one site, bearings
from two sites, ranges from two sites) into raw Cartesian position
estimates carrying an information matrix, a conditioning weight, and a
provenance label. Degraded fixes are returned with provenance
``"dropped"`` rather than raised, so observation streams keep flowing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .constants import DROP_WEIGHT, MODE_IGNORE_CORRELATION, MODE_PROPAGATE
from .errors import (
    CoincidentSites,
    DataError,
    RangeTooSmall,
    ShapeMismatch,
    UsageError,
)
from .series import _frozen, _symmetrized

__all__ = [
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
]

MIN_RANGE = 1e-9

PROVENANCE_OBSERVED = "observed"
PROVENANCE_FORECAST = "forecast-inserted"
PROVENANCE_DROPPED = "dropped"
PROVENANCE_VALUES = (PROVENANCE_OBSERVED, PROVENANCE_FORECAST, PROVENANCE_DROPPED)


def wrap_bearing(theta: float) -> float:
    """Reduce an angle in radians to the interval (-pi, pi]."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise DataError("bearing must be finite")
    return math.pi - (math.pi - theta) % (2.0 * math.pi)


def _planar_point(value: Union[Sequence[float], np.ndarray], what: str) -> np.ndarray:
    point = np.asarray(value, dtype=float)
    if point.shape != (2,):
        raise ShapeMismatch(f"{what} must have shape (2,), got {point.shape}")
    if not np.all(np.isfinite(point)):
        raise DataError(f"{what} must be finite")
    return point


@dataclass(frozen=True)
class SensorSite:
    """A measurement reference point, fixed or moving along a known path.

    ``position`` is the fixed location. When ``path`` is given it maps a
    time to the instantaneous location and takes precedence.
    """

    position: np.ndarray
    path: Callable[[float], Union[Sequence[float], np.ndarray]] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "position", _frozen(_planar_point(self.position, "site position"))
        )

    def at(self, time: float = 0.0) -> np.ndarray:
        """Location of the site at ``time``."""
        if self.path is None:
            return self.position
        return _planar_point(self.path(float(time)), "site path value")


def _segment_path(start: np.ndarray, end: np.ndarray, span: float):
    # Past the float range a position comes out infinite, for SensorSite.at to reject.
    def path(time: float) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return start + (end - start) * (float(time) / span)

    return path


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
        var_r = float(self.distance_variance)
        var_b = float(self.bearing_variance)
        if not (math.isfinite(var_r) and var_r > 0.0):
            raise DataError(f"range variance must be positive, got {var_r}",
                            argument="distance_variance")
        if not (math.isfinite(var_b) and var_b > 0.0):
            raise DataError(f"bearing variance must be positive, got {var_b}",
                            argument="bearing_variance")
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


def rcond_1norm(matrix: Union[Sequence[Sequence[float]], np.ndarray]) -> float:
    """Exact reciprocal condition number of a 2x2 matrix in the 1-norm.

    Returns a value in [0, 1]; 0 for a singular or zero matrix.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (2, 2):
        raise ShapeMismatch(f"expected a 2x2 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DataError("matrix entries must be finite")
    a, b = m[0]
    c, d = m[1]
    det = abs(a * d - b * c)
    if det == 0.0:
        return 0.0
    norm_m = max(abs(a) + abs(c), abs(b) + abs(d))
    # |det| * ||M^-1||_1 = max column sum of adj(M)
    norm_adj = max(abs(d) + abs(c), abs(b) + abs(a))
    return min(1.0, det / (norm_m * norm_adj))


def propagate_information(
    jacobian: Union[Sequence[Sequence[float]], np.ndarray],
    information: Union[Sequence[Sequence[float]], np.ndarray],
) -> np.ndarray:
    """Push an information matrix through a measurement Jacobian.

    ``jacobian`` maps position perturbations to measurement perturbations;
    the returned matrix is jacobian^T @ information @ jacobian, symmetrized
    to remove rounding skew.
    """
    k = np.asarray(jacobian, dtype=float)
    info = np.asarray(information, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ShapeMismatch(f"jacobian must be square, got shape {k.shape}")
    if info.shape != k.shape:
        raise ShapeMismatch(
            f"information shape {info.shape} does not match jacobian shape {k.shape}"
        )
    if not (np.all(np.isfinite(k)) and np.all(np.isfinite(info))):
        raise DataError("jacobian and information must be finite")
    out = k.T @ info @ k
    return (out + out.T) / 2.0


def _site_position(
    site: Union[SensorSite, Sequence[float], np.ndarray], time: float
) -> np.ndarray:
    if isinstance(site, SensorSite):
        return site.at(time)
    return _planar_point(site, "site position")


def range_bearing_to_position(
    site: Union[SensorSite, Sequence[float], np.ndarray],
    observation: PolarObservation,
    mode: str = MODE_IGNORE_CORRELATION,
    *,
    time: float = 0.0,
) -> RawPositionEstimate:
    """Convert a single-site range-and-bearing fix to a Cartesian estimate.

    ``mode`` selects how measurement noise becomes position information:
    ``"propagate"`` carries the full covariance through the polar-to-
    Cartesian Jacobian evaluated at the raw estimate, while
    ``"ignore-correlation"`` keeps only the per-component variances
    (off-diagonal terms zeroed) and inverts those.
    """
    if mode not in (MODE_IGNORE_CORRELATION, MODE_PROPAGATE):
        raise UsageError(
            f"mode must be {MODE_IGNORE_CORRELATION!r} or {MODE_PROPAGATE!r}, "
            f"got {mode!r}"
        )
    anchor = _site_position(site, time)
    r = observation.distance
    if r < MIN_RANGE:
        raise RangeTooSmall(f"range {r} is below the minimum {MIN_RANGE}")
    theta = observation.bearing
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    position = anchor + r * np.array([cos_t, sin_t])
    var_r = observation.distance_variance
    var_b = observation.bearing_variance
    if mode == MODE_PROPAGATE:
        # Jacobian of (range, bearing) with respect to (x, y) at the estimate.
        k = np.array([[cos_t, sin_t], [-sin_t / r, cos_t / r]])
        info = propagate_information(k, np.diag([1.0 / var_r, 1.0 / var_b]))
    else:
        cov_xx = cos_t * cos_t * var_r + (r * sin_t) ** 2 * var_b
        cov_yy = sin_t * sin_t * var_r + (r * cos_t) ** 2 * var_b
        info = np.diag([1.0 / cov_xx, 1.0 / cov_yy])
    return RawPositionEstimate(
        position=position,
        information=info,
        weight=1.0,
        provenance=PROVENANCE_OBSERVED,
    )


def _positive_variance(value: float, what: str, argument: str) -> float:
    var = float(value)
    if not math.isfinite(var) or var <= 0.0:
        raise DataError(f"{what} must be finite and positive, got {var}", argument=argument)
    return var


def _two_site_fix(position: np.ndarray, jacobian: Optional[np.ndarray],
                  variances: Tuple[float, float], weight: float, usable: bool,
                  scale: float) -> RawPositionEstimate:
    """The estimate at ``position`` of a fix from one reading at each of two sites.

    ``jacobian`` maps position perturbations to the readings; it is None for
    a fix on a site, which is dropped with weight 0. A fix that is not
    ``usable`` or weighs under ``DROP_WEIGHT`` is dropped with zero
    information; any other gets the readings' information propagated
    through ``jacobian``, times ``scale``.
    """
    if jacobian is None:
        weight, usable = 0.0, False
    if usable and weight >= DROP_WEIGHT:
        provenance = PROVENANCE_OBSERVED
        readings = np.diag([1.0 / variances[0], 1.0 / variances[1]])
        info = scale * propagate_information(jacobian, readings)
    else:
        provenance = PROVENANCE_DROPPED
        info = np.zeros((2, 2))
    return RawPositionEstimate(position=position, information=info, weight=weight,
                               provenance=provenance)


def two_bearings_to_position(
    site_a: Union[SensorSite, Sequence[float], np.ndarray],
    site_b: Union[SensorSite, Sequence[float], np.ndarray],
    bearing_a: float,
    bearing_b: float,
    variance_a: float,
    variance_b: float,
    *,
    time: float = 0.0,
) -> RawPositionEstimate:
    """Triangulate a position from bearings taken at two distinct sites.

    The fix solves the two ray equations for the along-ray distances. The
    conditioning weight is the exact 1-norm reciprocal condition of that
    2x2 system; the propagated information matrix is scaled by it, and
    fixes below the drop threshold come back with provenance ``"dropped"``
    instead of raising, since near-collinear sightlines are a routine
    transient.
    """
    a = _site_position(site_a, time)
    b = _site_position(site_b, time)
    if float(np.hypot(*(b - a))) < MIN_RANGE:
        raise CoincidentSites("bearing sites must be distinct")
    var_a = _positive_variance(variance_a, "bearing variance", "variance_a")
    var_b = _positive_variance(variance_b, "bearing variance", "variance_b")
    theta_a = wrap_bearing(bearing_a)
    theta_b = wrap_bearing(bearing_b)
    dir_a = np.array([math.cos(theta_a), math.sin(theta_a)])
    dir_b = np.array([math.cos(theta_b), math.sin(theta_b)])
    system = np.column_stack([dir_a, -dir_b])
    weight = rcond_1norm(system)
    lengths, *_ = np.linalg.lstsq(system, b - a, rcond=None)
    position = a + lengths[0] * dir_a

    offset_a = position - a
    offset_b = position - b
    rsq_a = float(offset_a @ offset_a)
    rsq_b = float(offset_b @ offset_b)
    k = None
    if rsq_a >= MIN_RANGE**2 and rsq_b >= MIN_RANGE**2:
        # Jacobian of the two bearings with respect to (x, y) at the estimate.
        k = np.array([[-offset_a[1] / rsq_a, offset_a[0] / rsq_a],
                      [-offset_b[1] / rsq_b, offset_b[0] / rsq_b]])
    return _two_site_fix(position, k, (var_a, var_b), weight, True, weight)


def two_ranges_to_position(
    site_a: Union[SensorSite, Sequence[float], np.ndarray],
    site_b: Union[SensorSite, Sequence[float], np.ndarray],
    range_a: float,
    range_b: float,
    disambiguator: Union[Sequence[float], np.ndarray],
    *,
    variance_a: float = 1.0,
    variance_b: float = 1.0,
    time: float = 0.0,
) -> RawPositionEstimate:
    """Trilaterate a position from ranges measured at two distinct sites.

    Of the two circle intersections the one nearer ``disambiguator`` is
    returned. Disjoint or nested circles yield the nearest consistent
    point on the inter-site axis with provenance ``"dropped"``. Tangency
    produces a valid fix whose weight is naturally small because the two
    range gradients become parallel.
    """
    a = _site_position(site_a, time)
    b = _site_position(site_b, time)
    guess = _planar_point(disambiguator, "disambiguator")
    r_a = float(range_a)
    r_b = float(range_b)
    for argument, r in (("range_a", r_a), ("range_b", r_b)):
        if not (math.isfinite(r) and r > 0.0):
            raise DataError(f"ranges must be finite and positive, got {r_a}, {r_b}",
                            argument=argument)
    var_a = _positive_variance(variance_a, "range variance", "variance_a")
    var_b = _positive_variance(variance_b, "range variance", "variance_b")
    baseline = b - a
    spacing = float(np.hypot(*baseline))
    if spacing < MIN_RANGE:
        raise CoincidentSites("range sites must be distinct")
    axis = baseline / spacing
    normal = np.array([-axis[1], axis[0]])
    # Products, not **: squaring a Python float past about 1e154 raises
    # OverflowError, and the factored difference of squares stays finite
    # when the ranges are huge but close. What still overflows is an inf.
    along = (spacing * spacing + (r_a - r_b) * (r_a + r_b)) / (2.0 * spacing)
    height_sq = (r_a - along) * (r_a + along)
    if not (math.isfinite(along) and math.isfinite(height_sq)):
        longest = max((spacing, None), (r_a, "range_a"), (r_b, "range_b"),
                      key=lambda item: item[0])
        raise DataError(f"ranges {r_a:g} and {r_b:g} from sites {spacing:g} apart "
                        "overflow the circle intersection", argument=longest[1])
    intersects = height_sq >= 0.0
    height = math.sqrt(height_sq) if intersects else 0.0
    foot = a + along * axis
    if intersects:
        candidates = (foot + height * normal, foot - height * normal)
        gaps = [float(np.hypot(*(c - guess))) for c in candidates]
        position = candidates[0] if gaps[0] <= gaps[1] else candidates[1]
    else:
        position = foot

    offset_a = position - a
    offset_b = position - b
    dist_a = float(np.hypot(*offset_a))
    dist_b = float(np.hypot(*offset_b))
    k, weight = None, 0.0
    if dist_a >= MIN_RANGE and dist_b >= MIN_RANGE:
        # Jacobian of the two ranges with respect to (x, y) at the estimate.
        k = np.array([offset_a / dist_a, offset_b / dist_b])
        weight = rcond_1norm(k)
    return _two_site_fix(position, k, (var_a, var_b), weight, intersects, 1.0)
