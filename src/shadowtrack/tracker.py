"""Sequential state estimation over a growing or sliding window of observations.

Each step appends one timestamped fix (or a gap marker), applies the
configured missing-data policy, and emits the newest sample of the
time-reversed smoothing solve, which leaves the scheme's approximation
error at the oldest samples. That solve is the batch fit's least squares
over positions, velocities and accelerations, eliminated one sample at a
time in square-root information form and never re-solved: over the full
history (the default) every fix costs constant work however long the
stream runs, over a sliding window work in proportion to its length.
Either way, ``trajectory`` is the batch solve of the window as of the last
solved step, built when it is read.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field
from itertools import takewhile
from typing import Deque, NamedTuple, Optional

import numpy as np

from .constants import (
    DROP_WEIGHT,
    FORECAST_INFO_SCALE,
    POLICIES,
    POLICY_COALESCE,
    POLICY_FORECAST,
    POLICY_ZERO_WEIGHT,
    TRACKER_ETA,
)
from .errors import (
    DataError,
    NoTrajectoryYet,
    OutOfOrderTimestamp,
    ShapeMismatch,
    UsageError,
    WindowTooSparse,
)
from .geometry import (
    PROVENANCE_DROPPED,
    PROVENANCE_FORECAST,
    RawPositionEstimate,
    _scalar_fix,
)
from .series import (
    MIN_EFFECTIVE_SAMPLES,
    ScalarObservationSeries,
    VectorObservationSeries,
    _frozen,
    _real,
    _require_positive_eta,
    build_time_grid,
)
from .solver import (
    ShadowingTrajectory,
    _IncrementalSolve,
    _rescaled,
    evaluate_spline,
    solve_scalar,
    solve_vector,
)

__all__ = [
    "TrackerConfig",
    "TrackPoint",
    "SequentialTracker",
]


@dataclass(frozen=True)
class TrackerConfig:
    """Tuning for a sequential tracker.

    ``window`` is the number of most recent steps retained (None keeps
    the full history). ``policy`` chooses how unusable steps enter the
    solve: removed entirely, kept as zero-information placeholders, or
    replaced by forecasts whose information is the window mean scaled by
    ``forecast_info_scale``. Fixes whose condition weight falls below
    ``drop_weight`` are treated as unusable.
    """

    eta: float = TRACKER_ETA
    window: Optional[int] = None
    policy: str = POLICY_COALESCE
    forecast_info_scale: float = FORECAST_INFO_SCALE
    drop_weight: float = DROP_WEIGHT

    def __post_init__(self) -> None:
        eta = _require_positive_eta(self.eta)
        if self.window is not None:
            whole = isinstance(self.window, numbers.Integral)  # exact at any size
            window = self.window if whole else float(self.window)
            if not (window % 1 == 0 and window >= MIN_EFFECTIVE_SAMPLES):
                raise UsageError(f"window must be a whole number of at least "
                                 f"{MIN_EFFECTIVE_SAMPLES} steps, got {self.window!r}")
            object.__setattr__(self, "window", int(window))
        if self.policy not in POLICIES:
            raise UsageError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        gamma = _real(self.forecast_info_scale)
        if not (0.0 < gamma <= 1.0):
            raise UsageError(
                f"forecast information scale must lie in (0, 1], got {gamma}"
            )
        drop = _real(self.drop_weight)
        if not (0.0 <= drop < 1.0):
            raise UsageError(f"drop weight must lie in [0, 1), got {drop}")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "forecast_info_scale", gamma)
        object.__setattr__(self, "drop_weight", drop)


@dataclass(frozen=True)
class TrackPoint:
    """One emitted state estimate.

    ``weight`` echoes the condition weight of the raw fix that arrived
    at this step (0 for a gap). ``provenance`` records what fed the
    window here: ``"observed"``, ``"forecast-inserted"`` when the policy
    substituted a forecast, or ``"dropped"`` when the step contributed
    nothing.
    """

    time: float
    position: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray
    weight: float
    provenance: str
    usable_points: int


@dataclass
class _Slot:
    time: float
    value: Optional[np.ndarray]        # None when coalesced out, zero for placeholders
    information: Optional[np.ndarray]  # None when coalesced out, zero for placeholders
    root: Optional[np.ndarray]         # R with R^T R = information, as the estimate's root
    raw_weight: float
    emitted: str
    contributes: bool = field(init=False)  # carries information into the solve

    def __post_init__(self) -> None:
        self.contributes = (
            self.information is not None and bool(np.any(np.diagonal(self.information) > 0.0))
        )


def _fix_slot(time: float, estimate: RawPositionEstimate, raw_weight: float) -> _Slot:
    """The slot of a usable fix or a forecast, as the estimate was checked and decomposed."""
    return _Slot(time, estimate.position, estimate.information, estimate.root,
                 raw_weight, estimate.provenance)


class _Newest(NamedTuple):
    """The newest sample of the last solve."""

    time: float
    position: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray


class SequentialTracker:
    """Streaming tracker: ingest fixes in time order, emit state estimates.

    One instance is single-writer; steps mutate the window and never run a
    batch solve. The batch solution of the window as of the last solved
    step is available as ``trajectory`` for retrospective smoothing.

    Under the zero-weight policy an unusable step becomes a placeholder:
    a gridded slot with zero information and a zero value. Every solve
    multiplies a slot's value by its information, so the value never
    reaches an output. A placeholder is made once the dimension is known
    and either a solve exists or the window holds a contributing fix;
    before that the step is coalesced out.
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config if config is not None else TrackerConfig()
        self.dim: Optional[int] = None
        self.last_point: Optional[TrackPoint] = None
        self._window: Deque[_Slot] = deque()
        self._usable = 0  # contributing slots in the window
        # Full history only: the running sum of contributing informations, as _info_sum
        # times _info_scale, a power of two that grows only where the sum passes the float range.
        self._info_sum: np.ndarray | float = 0.0
        self._info_scale = 1.0
        self._elimination: Optional[_IncrementalSolve] = None
        self._newest: Optional[_Newest] = None
        self._solved: Deque[_Slot] = deque()  # gridded slots of the last solve
        self._trajectory: Optional[ShadowingTrajectory] = None

    @property
    def window_size(self) -> int:
        return len(self._window)

    @property
    def usable_count(self) -> int:
        return self._usable

    @property
    def trajectory(self) -> Optional[ShadowingTrajectory]:
        """Batch solve of the window's gridded slots as of the last solved step.

        Built when first read after a solved step and kept until the next,
        even once the window has moved past those slots. None until a step
        has been solved.
        """
        if self._trajectory is None and self._newest is not None:
            self._trajectory = self._batch_solve(self._solved)
        return self._trajectory

    def insert_forecast(self, time: float) -> RawPositionEstimate:
        """Forecast a fix at ``time`` from the current trajectory.

        The position extrapolates the fitted spline (constant velocity
        past the window end); the information matrix is the mean over
        the window's contributing fixes scaled down by the configured
        forecast factor.
        """
        if self._newest is None:
            raise NoTrajectoryYet("no trajectory solved yet; cannot forecast")
        if time >= self._newest.time:
            position = self._extrapolate(time)
        else:
            position = np.atleast_1d(np.asarray(evaluate_spline(self.trajectory, time)))
        if not self._usable:
            raise WindowTooSparse(
                "no contributing fixes left in the window to scale a forecast from"
            )
        if self.config.window is None:
            mean_info = self._info_sum / self._usable * self._info_scale
        else:
            infos = np.array([slot.information for slot in self._window if slot.contributes])
            mean_info = _rescaled(lambda infos: np.mean(infos, axis=0), 1, infos)
        info = self.config.forecast_info_scale * mean_info
        return RawPositionEstimate(
            position=position,
            information=info,
            weight=1.0,
            provenance=PROVENANCE_FORECAST,
        )

    def step_scalar(
        self, time: float, value: Optional[float], info: float = 1.0
    ) -> TrackPoint:
        """Ingest one scalar observation with inverse variance ``info``.

        A reading with ``value`` None or ``info`` 0 is a gap, as a row of
        a scalar observation table is for ``track``. A non-finite value,
        or a negative or non-finite ``info``, raises.
        """
        return self.step(time, _scalar_fix(value, info))

    def step(
        self, time: float, estimate: Optional[RawPositionEstimate]
    ) -> TrackPoint:
        """Advance the tracker by one timestamped fix or gap marker.

        A fix that fails validation raises before the tracker changes, so
        the next step proceeds as if the rejected fix had never arrived.
        """
        time = float(time)
        if not math.isfinite(time):
            raise DataError(f"timestamp must be finite, got {time}")
        if self._window and time <= self._window[-1].time:
            raise OutOfOrderTimestamp(
                f"timestamp {time!r} does not advance past {self._window[-1].time!r}"
            )
        if estimate is not None and self.dim is not None and estimate.dim != self.dim:
            raise ShapeMismatch(
                f"estimate dimension {estimate.dim} does not match "
                f"tracker dimension {self.dim}"
            )

        usable = (
            estimate is not None
            and estimate.usable
            and estimate.weight >= self.config.drop_weight
        )
        raw_weight = float(estimate.weight) if estimate is not None else 0.0
        if usable:
            slot = _fix_slot(time, estimate, raw_weight)
        else:
            slot = self._missing_slot(time, raw_weight)

        if self.dim is None and estimate is not None:
            self.dim = estimate.dim
            self._elimination = _IncrementalSolve(self.dim, self.config.eta,
                                                  sliding=self.config.window is not None)
        self._append(slot)
        point = self._emit(slot)
        self.last_point = point
        return point

    def _append(self, slot: _Slot) -> None:
        self._window.append(slot)
        if slot.contributes:
            self._usable += 1
        if self.config.window is None and slot.contributes:
            with np.errstate(over="ignore"):
                total = self._info_sum + slot.information / self._info_scale
            if not np.isfinite(total).all():  # both terms halved, their sum is in range
                self._info_scale *= 2.0
                total = 0.5 * self._info_sum + slot.information / self._info_scale
            self._info_sum = total
        while self.config.window is not None and len(self._window) > self.config.window:
            if self._window.popleft().contributes:
                self._usable -= 1
        if slot.information is not None:
            self._elimination.append(slot.time, slot.value, slot.root)
        if self._elimination is not None:
            self._elimination.retire(self._window[0].time)

    def _missing_slot(self, time: float, raw_weight: float) -> _Slot:
        """The slot for an unusable step: a forecast, a placeholder or coalesced out."""
        policy = self.config.policy
        if policy == POLICY_FORECAST and self._newest is not None and self._usable:
            return _fix_slot(time, self.insert_forecast(time), raw_weight)
        if policy == POLICY_ZERO_WEIGHT and self.dim is not None and (
            self._newest is not None or self._usable
        ):
            zero = np.zeros((self.dim, self.dim))
            return _Slot(time, np.zeros(self.dim), zero, zero, raw_weight, PROVENANCE_DROPPED)
        return _Slot(time, None, None, None, raw_weight, PROVENANCE_DROPPED)

    def _extrapolate(self, time: float) -> np.ndarray:
        """The fitted spline past its end: constant velocity from the newest state."""
        newest = self._newest
        return newest.position + newest.velocity * (time - newest.time)

    def _batch_solve(self, gridded: Deque[_Slot]) -> ShadowingTrajectory:
        grid = build_time_grid(np.array([slot.time for slot in gridded]))
        values = np.stack([slot.value for slot in gridded])
        infos = np.stack([slot.information for slot in gridded])
        if self.dim == 1:
            series = ScalarObservationSeries(
                grid=grid, values=values[:, 0], weights=infos[:, 0, 0]
            )
            return solve_scalar(series, self.config.eta)
        # Each slot's information was checked and decomposed when its fix was made.
        series = VectorObservationSeries._decomposed(
            grid, values, infos, np.stack([slot.root for slot in gridded]))
        return solve_vector(series, self.config.eta)

    def _solve(self) -> None:
        """Bring ``_solved``, the window's gridded slots, and ``_newest`` up to date."""
        solved, window = self._solved, self._window
        last = solved[-1].time if solved else -math.inf
        fresh = [slot for slot in takewhile(lambda slot: slot.time > last, reversed(window))
                 if slot.information is not None]
        solved.extend(reversed(fresh))
        oldest = solved[0]
        while solved[0].time < window[0].time:
            solved.popleft()
        if fresh or solved[0] is not oldest:  # else the grid, hence its solve, is unchanged
            self._newest = _Newest(solved[-1].time, *self._elimination.newest())
            self._trajectory = None

    def _emit(self, newest: _Slot) -> TrackPoint:
        if self._usable >= MIN_EFFECTIVE_SAMPLES:
            self._solve()
            state = self._newest
            position, velocity, acceleration = state.position, state.velocity, state.acceleration
            if state.time != newest.time:
                # Newest step was coalesced out: extrapolate to its time.
                position = self._extrapolate(newest.time)
                acceleration = np.zeros_like(position)
        elif newest.contributes:
            # Too few fixes to solve: echo the fix at rest.
            position = newest.value
            velocity = acceleration = np.zeros(newest.value.size)
        else:
            raise WindowTooSparse(
                f"window holds {self._usable} usable of {len(self._window)} "
                f"steps; need {MIN_EFFECTIVE_SAMPLES}"
            )
        return TrackPoint(
            time=newest.time,
            position=_frozen(position),
            velocity=_frozen(velocity),
            acceleration=_frozen(acceleration),
            weight=newest.raw_weight,
            provenance=newest.emitted,
            usable_points=self._usable,
        )
