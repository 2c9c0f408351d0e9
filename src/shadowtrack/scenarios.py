"""Deterministic synthetic scenarios for tests and figure-style runs.

Every generator is a pure function of its parameters and a seed. All
randomness flows through ``numpy.random.default_rng`` (the PCG64
generator), and the order of draws inside each generator is fixed, so a
given (generator, parameters, seed) triple always reproduces the same
arrays byte for byte.

Scenarios provided:

* ``rednoise``: a scalar path with an oscillation riding on a random
  walk, observed through additive Gaussian noise.
* ``planar``: a two-component path whose oscillation amplitude grows
  linearly in time, observed with independent per-component noise.
* ``sonar``: two moving sensors taking bearing fixes of a target on a
  circular path; the geometry degrades when target and sensors align.
* ``range-bearing``: a single static site taking range and bearing
  fixes of the planar path, with independently tunable accuracies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Mapping, Tuple

import numpy as np

from .constants import SCENARIO_IDS  # noqa: F401  (re-exported; listed by ``constants``)
from .errors import DataError, UsageError
from .geometry import SensorSite, _segment_path
from .series import (
    PolarObservation,
    ScalarObservationSeries,
    VectorObservationSeries,
    _frozen,
    build_time_grid,
    wrap_bearing,
)

__all__ = [
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

# Straight runs of the two sonar sensors, (start, end) for sites a and b.
_SONAR_RUNS = (((-3.0, 3.0), (3.0, 1.0)), ((-3.0, -2.0), (3.0, -1.0)))


def _check_seed(seed: int) -> int:
    # The seed goes whole into every output name; below 2**128 (39 digits)
    # the longest name the pipeline derives stays under 100 bytes.
    seed = int(seed)
    if seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {seed}")
    if seed >= 2**128:
        raise UsageError(f"seed must be below 2**128, got {seed}")
    return seed


def _check_count(count: int) -> int:
    count = int(count)
    if count < 3:
        raise UsageError(f"scenario needs at least 3 samples, got {count}")
    return count


def _check_sd(value: float, what: str, minimum: float = 0.0) -> float:
    value = float(value)
    if not math.isfinite(value) or value < minimum:
        raise DataError(f"{what} must be finite and >= {minimum}, got {value}")
    return value


def _parameters(scenario, **extra) -> Mapping[str, object]:
    """Manifest parameters: the scenario's str, int and float fields, its count, ``extra``."""
    scalars = {f.name: getattr(scenario, f.name) for f in fields(scenario)
               if isinstance(getattr(scenario, f.name), (str, int, float))}
    return {**scalars, "count": int(scenario.times.size), **extra}


@dataclass(frozen=True)
class ScalarScenario:
    """Scalar truth, drift component, and noisy observation series."""

    identifier: str
    seed: int
    times: np.ndarray
    truth: np.ndarray
    observations: ScalarObservationSeries
    noise_sd: float
    drift_sd: float

    def parameters(self) -> Mapping[str, object]:
        return _parameters(self)


@dataclass(frozen=True)
class PlanarScenario:
    """Planar truth path and noisy vector observation series."""

    identifier: str
    seed: int
    times: np.ndarray
    truth: np.ndarray
    observations: VectorObservationSeries
    noise_sd: float

    def parameters(self) -> Mapping[str, object]:
        return _parameters(self)


@dataclass(frozen=True)
class TwoSensorBearingScenario:
    """Bearing streams from two moving sites watching one target."""

    identifier: str
    seed: int
    times: np.ndarray
    truth: np.ndarray
    site_a: SensorSite
    site_b: SensorSite
    bearings: np.ndarray
    bearing_noise_sd: float

    def parameters(self) -> Mapping[str, object]:
        return _parameters(self, **{
            f"site_{name}_{end}": list(point)
            for name, run in zip("ab", _SONAR_RUNS) for end, point in zip(("start", "end"), run)
        })

    def geometry(self) -> Mapping[str, object]:
        """Manifest geometry block: each site's straight run over the time span."""
        span = float(self.times[-1])
        sites = {
            f"site_{name}": {"start": list(start), "end": list(end), "span": span}
            for name, (start, end) in zip("ab", _SONAR_RUNS)
        }
        return {"kind": "two-bearings", **sites}


@dataclass(frozen=True)
class RangeBearingScenario:
    """Range and bearing fixes of the planar path from one static site."""

    identifier: str
    seed: int
    times: np.ndarray
    truth: np.ndarray
    site: SensorSite
    observations: Tuple[PolarObservation, ...]
    range_noise_sd: float
    bearing_noise_sd: float

    def parameters(self) -> Mapping[str, object]:
        return _parameters(self, site=[float(x) for x in self.site.position])

    def geometry(self) -> Mapping[str, object]:
        """Manifest geometry block: the static site."""
        return {"kind": "range-bearing", "site": self.parameters()["site"]}


def gen_scalar_rednoise(
    seed: int,
    *,
    count: int = 101,
    noise_sd: float = 3.0,
    drift_sd: float = 1.0,
) -> ScalarScenario:
    """Scalar oscillation on a random walk, observed with Gaussian noise.

    The truth is 25 + 10 sin(t/15) plus a cumulative sum of independent
    N(0, drift_sd^2) steps starting at zero. Observations add
    N(0, noise_sd^2); the series carries the matching inverse-variance
    weight. Unit time steps starting at t = 0. Setting both standard
    deviations to zero gives the noise-free oscillation (weights fall
    back to 1).

    Draw order per seed: count-1 drift steps first, then count
    observation noises.
    """
    count = _check_count(count)
    noise_sd = _check_sd(noise_sd, "observation noise sd")
    drift_sd = _check_sd(drift_sd, "drift sd")
    seed = _check_seed(seed)
    rng = np.random.default_rng(seed)
    times = np.arange(count, dtype=float)
    steps = drift_sd * rng.standard_normal(count - 1)
    drift = np.concatenate([[0.0], np.cumsum(steps)])
    truth = 25.0 + 10.0 * np.sin(times / 15.0) + drift
    values = truth + noise_sd * rng.standard_normal(count)
    weight = 1.0 / noise_sd**2 if noise_sd > 0.0 else 1.0
    observations = ScalarObservationSeries(
        grid=build_time_grid(times),
        values=values,
        weights=np.full(count, weight),
    )
    return ScalarScenario(
        identifier="rednoise",
        seed=seed,
        times=_frozen(times),
        truth=_frozen(truth),
        observations=observations,
        noise_sd=noise_sd,
        drift_sd=drift_sd,
    )


def planar_truth(times: np.ndarray) -> np.ndarray:
    """Planar path with a linearly growing oscillation, one row per time."""
    times = np.asarray(times, dtype=float)
    base = 10.0 * (times - 10.0) / 150.0
    amp = (1.0 - times) / 3.0
    x = base + amp * np.sin(times / 15.0)
    y = base + amp * (2.0 - times / 15.0)
    return np.column_stack([x, y])


def gen_planar_path(
    seed: int,
    *,
    count: int = 151,
    noise_sd: float = 5.0,
) -> PlanarScenario:
    """Planar path observed with independent per-component noise.

    Both components share a slow linear term; on top of it the first
    component oscillates and the second sweeps, with an amplitude that
    grows linearly in time. Unit time steps from t = 0. Observation
    noise is N(0, noise_sd^2) per component; information matrices are
    the matching diagonal inverses (identity when noise_sd is 0).

    Draw order per seed: one (count, 2) noise block.
    """
    count = _check_count(count)
    noise_sd = _check_sd(noise_sd, "observation noise sd")
    seed = _check_seed(seed)
    rng = np.random.default_rng(seed)
    times = np.arange(count, dtype=float)
    truth = planar_truth(times)
    values = truth + noise_sd * rng.standard_normal((count, 2))
    inv_var = 1.0 / noise_sd**2 if noise_sd > 0.0 else 1.0
    informations = np.broadcast_to(inv_var * np.eye(2), (count, 2, 2)).copy()
    observations = VectorObservationSeries(
        grid=build_time_grid(times),
        values=values,
        informations=informations,
    )
    return PlanarScenario(
        identifier="planar",
        seed=seed,
        times=_frozen(times),
        truth=_frozen(truth),
        observations=observations,
        noise_sd=noise_sd,
    )


def gen_two_sensor_bearings(
    seed: int,
    *,
    count: int = 101,
    bearing_noise_sd: float = 0.01,
) -> TwoSensorBearingScenario:
    """Bearings of a circling target from two sensors on straight runs.

    Over unit steps t = 0..count-1 one sensor moves from (-3, 3) to
    (3, 1) and the other from (-3, -2) to (3, -1), both at constant
    speed, while the target follows (sin(t/25), cos(t/25)). Each row of
    ``bearings`` holds the two noisy bearings (site order a, b) wrapped
    to (-pi, pi].

    Draw order per seed: one (count, 2) noise block.
    """
    count = _check_count(count)
    bearing_noise_sd = _check_sd(bearing_noise_sd, "bearing noise sd")
    seed = _check_seed(seed)
    rng = np.random.default_rng(seed)
    times = np.arange(count, dtype=float)
    span = float(times[-1])
    site_a, site_b = (
        SensorSite(np.array(start), path=_segment_path(np.array(start), np.array(end), span))
        for start, end in _SONAR_RUNS
    )
    truth = np.column_stack([np.sin(times / 25.0), np.cos(times / 25.0)])
    noise = bearing_noise_sd * rng.standard_normal((count, 2))
    bearings = np.empty((count, 2))
    for i, t in enumerate(times):
        for j, site in enumerate((site_a, site_b)):
            offset = truth[i] - site.at(t)
            clean = math.atan2(offset[1], offset[0])
            bearings[i, j] = wrap_bearing(clean + noise[i, j])
    return TwoSensorBearingScenario(
        identifier="sonar",
        seed=seed,
        times=_frozen(times),
        truth=_frozen(truth),
        site_a=site_a,
        site_b=site_b,
        bearings=_frozen(bearings),
        bearing_noise_sd=bearing_noise_sd,
    )


def gen_range_bearing(
    seed: int,
    *,
    count: int = 151,
    site: Tuple[float, float] = (100.0, 150.0),
    bearing_noise_sd: float = 0.05,
    range_accuracy_ratio: float = 0.1,
) -> RangeBearingScenario:
    """Range and bearing fixes of the planar path from one static site.

    The range noise standard deviation is set relative to the position
    error a bearing error induces at the path's mean distance:
    range_noise_sd = range_accuracy_ratio * mean_range * bearing_noise_sd.
    A ratio of 0.1 therefore makes range readings ten times more
    accurate than bearing readings in position terms; a ratio of 10
    reverses that.

    Draw order per seed: count range noises first, then count bearing
    noises.
    """
    count = _check_count(count)
    bearing_noise_sd = _check_sd(bearing_noise_sd, "bearing noise sd", 1e-12)
    ratio = _check_sd(range_accuracy_ratio, "range accuracy ratio", 1e-12)
    seed = _check_seed(seed)
    rng = np.random.default_rng(seed)
    times = np.arange(count, dtype=float)
    truth = planar_truth(times)
    anchor = SensorSite(np.asarray(site, dtype=float))
    offsets = truth - anchor.position[None, :]
    ranges = np.hypot(offsets[:, 0], offsets[:, 1])
    mean_range = float(np.mean(ranges))
    range_noise_sd = ratio * mean_range * bearing_noise_sd
    noisy_ranges = ranges + range_noise_sd * rng.standard_normal(count)
    noisy_ranges = np.maximum(noisy_ranges, 1e-6)
    clean_bearings = np.arctan2(offsets[:, 1], offsets[:, 0])
    noisy_bearings = clean_bearings + bearing_noise_sd * rng.standard_normal(count)
    observations = tuple(
        PolarObservation(
            distance=float(noisy_ranges[i]),
            bearing=float(noisy_bearings[i]),
            distance_variance=range_noise_sd**2,
            bearing_variance=bearing_noise_sd**2,
        )
        for i in range(count)
    )
    return RangeBearingScenario(
        identifier="range-bearing",
        seed=seed,
        times=_frozen(times),
        truth=_frozen(truth),
        site=anchor,
        observations=observations,
        range_noise_sd=range_noise_sd,
        bearing_noise_sd=bearing_noise_sd,
    )


def apply_missing(
    series: ScalarObservationSeries | VectorObservationSeries,
    fraction: float,
    seed: int,
) -> Tuple[ScalarObservationSeries | VectorObservationSeries, np.ndarray]:
    """Remove a random interior fraction of a series, keeping endpoints.

    Exactly floor(fraction * size) samples are removed, drawn uniformly
    without replacement from the interior indices, deterministically per
    seed. Returns a series of the same type holding the retained samples
    (times, values, and weights or informations) and the sorted retained
    indices into the original grid. Anything but a scalar or vector
    observation series raises UsageError.
    """
    if not isinstance(series, (ScalarObservationSeries, VectorObservationSeries)):
        raise UsageError(
            f"apply_missing expects an observation series, got {type(series).__name__}"
        )
    fraction = float(fraction)
    if not (0.0 <= fraction < 1.0):
        raise UsageError(f"missing fraction must lie in [0, 1), got {fraction}")
    size = series.grid.times.size
    remove = int(math.floor(fraction * size))
    if size - remove < 3:
        raise UsageError(
            f"removing {remove} of {size} samples leaves fewer than 3"
        )
    rng = np.random.default_rng(_check_seed(seed))
    interior = np.arange(1, size - 1)
    removed = rng.choice(interior, size=remove, replace=False)
    keep = np.setdiff1d(np.arange(size), removed)
    # Every constructor field but the grid holds one entry per sample.
    samples = {f.name: getattr(series, f.name)[keep] for f in fields(series)
               if f.init and f.name != "grid"}
    thinned = replace(series, grid=build_time_grid(series.grid.times[keep]), **samples)
    return thinned, keep
