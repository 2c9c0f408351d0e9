"""Sequential state estimation over a growing or sliding window of observations.

Each step appends one timestamped fix (or a gap marker), applies the
configured missing-data policy, and emits the newest sample of the
time-reversed smoothing solve, which leaves the scheme's approximation
error at the oldest samples. The full history (the default) is eliminated
one sample at a time, so every fix costs constant work however long the
stream runs; a sliding window re-solves its samples from scratch at every
step. Either way, ``trajectory`` is the batch solve of the window as of
the last solved step.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, NamedTuple, Optional

import numpy as np

from .errors import (
    DataError,
    NonPositiveEta,
    NoTrajectoryYet,
    OutOfOrderTimestamp,
    ShapeMismatch,
    UsageError,
    WindowTooSparse,
)
from .geometry import (
    DROP_WEIGHT,
    PROVENANCE_DROPPED,
    PROVENANCE_FORECAST,
    PROVENANCE_OBSERVED,
    RawPositionEstimate,
)
from .matrices import _frozen, build_time_grid
from .solver import (
    MIN_EFFECTIVE_SAMPLES,
    ScalarObservationSeries,
    ShadowingTrajectory,
    VectorObservationSeries,
    _IncrementalSolve,
    _symmetrized,
    evaluate_spline,
    solve_scalar,
    solve_vector,
)

POLICY_COALESCE = "coalesce-gaps"
POLICY_ZERO_WEIGHT = "zero-weight-placeholder"
POLICY_FORECAST = "forecast-insert"
POLICIES = (POLICY_COALESCE, POLICY_ZERO_WEIGHT, POLICY_FORECAST)


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

    eta: float = 1000.0
    window: Optional[int] = None
    policy: str = POLICY_COALESCE
    forecast_info_scale: float = 0.25
    drop_weight: float = DROP_WEIGHT

    def __post_init__(self) -> None:
        eta = float(self.eta)
        if not math.isfinite(eta) or eta <= 0.0:
            raise NonPositiveEta(f"eta must be finite and positive, got {eta}")
        if self.window is not None:
            window = int(self.window)
            if window < MIN_EFFECTIVE_SAMPLES:
                raise UsageError(
                    f"window must be at least {MIN_EFFECTIVE_SAMPLES}, got {window}"
                )
            object.__setattr__(self, "window", window)
        if self.policy not in POLICIES:
            raise UsageError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        gamma = float(self.forecast_info_scale)
        if not (0.0 < gamma <= 1.0):
            raise UsageError(
                f"forecast information scale must lie in (0, 1], got {gamma}"
            )
        drop = float(self.drop_weight)
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
    raw_weight: float
    emitted: str
    contributes: bool = field(init=False)  # carries information into the solve

    def __post_init__(self) -> None:
        self.contributes = (
            self.information is not None and float(np.trace(self.information)) > 0.0
        )


class _Newest(NamedTuple):
    """The newest sample of the last solve."""

    time: float
    position: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray


class SequentialTracker:
    """Streaming tracker: ingest fixes in time order, emit state estimates.

    One instance is single-writer; steps mutate the window. The latest
    full-window solution stays available as ``trajectory`` for
    retrospective smoothing.

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
        # Full history only: the running sum of contributing informations
        # and the incremental solve of the gridded slots.
        self._info_sum: Optional[np.ndarray] = None
        self._history: Optional[_IncrementalSolve] = None
        self._newest: Optional[_Newest] = None
        self._solved_slots = 0  # gridded slots in the last solve
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

        A full-history tracker builds it when it is first read after a
        solved step; a sliding window keeps the solve of its last step.
        None until a step has been solved.
        """
        if self._trajectory is None and self._newest is not None:
            gridded = [slot for slot in self._window if slot.information is not None]
            self._trajectory = self._batch_solve(gridded[:self._solved_slots])
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
            mean_info = self._info_sum / self._usable
        else:
            mean_info = np.mean(
                [slot.information for slot in self._window if slot.contributes], axis=0
            )
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
        """Ingest one scalar observation (``value`` None marks a gap).

        ``info`` is the inverse variance attached to the reading.
        """
        if value is None:
            return self.step(time, None)
        value = float(value)
        info = float(info)
        if not math.isfinite(value):
            raise ShapeMismatch("scalar observation must be finite")
        if not math.isfinite(info) or info <= 0.0:
            raise UsageError(f"scalar information must be positive, got {info}")
        estimate = RawPositionEstimate(
            position=np.array([value]),
            information=np.array([[info]]),
            weight=1.0,
            provenance=PROVENANCE_OBSERVED,
        )
        return self.step(time, estimate)

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
            information = np.asarray(estimate.information, dtype=float)
            _symmetrized(information[None], where=f"of the fix at time {time!r}")
            slot = _Slot(
                time=time,
                value=np.asarray(estimate.position, dtype=float),
                information=information,
                raw_weight=raw_weight,
                emitted=estimate.provenance,
            )
        else:
            slot = self._missing_slot(time, raw_weight)

        if self.dim is None and estimate is not None:
            self.dim = estimate.dim
        self._append(slot)
        point = self._emit(slot)
        self.last_point = point
        return point

    def _append(self, slot: _Slot) -> None:
        self._window.append(slot)
        if slot.contributes:
            self._usable += 1
        if self.config.window is not None:
            while len(self._window) > self.config.window:
                if self._window.popleft().contributes:
                    self._usable -= 1
            return
        if slot.contributes:
            self._info_sum = (
                slot.information if self._info_sum is None
                else self._info_sum + slot.information
            )
        if slot.information is not None:
            if self._history is None:
                self._history = _IncrementalSolve(self.dim, self.config.eta)
            self._history.append(slot.time, slot.value, slot.information)

    def _missing_slot(self, time: float, raw_weight: float) -> _Slot:
        """The slot for an unusable step: a forecast, a placeholder or coalesced out."""
        policy = self.config.policy
        if policy == POLICY_FORECAST and self._newest is not None and self._usable:
            forecast = self.insert_forecast(time)
            return _Slot(time, forecast.position, forecast.information, raw_weight,
                         PROVENANCE_FORECAST)
        if policy == POLICY_ZERO_WEIGHT and self.dim is not None and (
            self._newest is not None or self._usable
        ):
            return _Slot(time, np.zeros(self.dim), np.zeros((self.dim, self.dim)),
                         raw_weight, PROVENANCE_DROPPED)
        return _Slot(time, None, None, raw_weight, PROVENANCE_DROPPED)

    def _extrapolate(self, time: float) -> np.ndarray:
        """The fitted spline past its end: constant velocity from the newest state."""
        newest = self._newest
        return newest.position + newest.velocity * (time - newest.time)

    def _batch_solve(self, gridded: list[_Slot]) -> ShadowingTrajectory:
        grid = build_time_grid(np.array([slot.time for slot in gridded]))
        values = np.stack([slot.value for slot in gridded])
        infos = np.stack([slot.information for slot in gridded])
        if self.dim == 1:
            series = ScalarObservationSeries(
                grid=grid, values=values[:, 0], weights=infos[:, 0, 0]
            )
            return solve_scalar(series, self.config.eta)
        series = VectorObservationSeries(grid=grid, values=values, informations=infos)
        return solve_vector(series, self.config.eta)

    def _solve(self, newest: _Slot) -> None:
        """Bring ``_newest`` up to date with a window that holds enough fixes."""
        if self.config.window is None:
            if newest.information is None:
                return  # coalesced out: the grid, hence its solve, is unchanged
            position, velocity, acceleration = self._history.newest()
            self._newest = _Newest(newest.time, position, velocity, acceleration)
            self._solved_slots = self._history.count
            self._trajectory = None
            return
        gridded = [slot for slot in self._window if slot.information is not None]
        trajectory = self._batch_solve(gridded)
        m = len(gridded)
        self._trajectory = trajectory
        self._newest = _Newest(
            gridded[-1].time,
            np.reshape(trajectory.positions, (m, -1))[-1],
            np.reshape(trajectory.velocities, (m, -1))[-1],
            np.reshape(trajectory.accelerations, (m - 1, -1))[-1],
        )

    def _emit(self, newest: _Slot) -> TrackPoint:
        if self._usable >= MIN_EFFECTIVE_SAMPLES:
            self._solve(newest)
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
