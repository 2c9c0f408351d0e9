"""Sequential tracking: windowing, gap policies, warm-up, and emission contract."""

import math
from functools import lru_cache

import numpy as np
import pytest

from shadowtrack import (
    POLICIES,
    DataError,
    IndefiniteInformation,
    NonPositiveEta,
    NoTrajectoryYet,
    OutOfOrderTimestamp,
    POLICY_COALESCE,
    POLICY_FORECAST,
    POLICY_ZERO_WEIGHT,
    PROVENANCE_DROPPED,
    PROVENANCE_FORECAST,
    PROVENANCE_OBSERVED,
    RawPositionEstimate,
    ScalarObservationSeries,
    SequentialTracker,
    ShapeMismatch,
    SingularSystem,
    TrackerConfig,
    TrackPoint,
    UsageError,
    VectorObservationSeries,
    WindowTooSparse,
    build_time_grid,
    evaluate_spline,
    gen_scalar_rednoise,
    solve_scalar,
    solve_vector,
)
from shadowtrack import solver as solver_module
from shadowtrack import tracker as tracker_module


def vector_estimate(x, y, info_scale=1.0, weight=1.0, provenance=PROVENANCE_OBSERVED):
    return RawPositionEstimate(
        position=[x, y],
        information=np.eye(2) * info_scale,
        weight=weight,
        provenance=provenance,
    )


class TestConfig:
    def test_defaults(self):
        config = TrackerConfig()
        assert config.eta == 1000.0
        assert config.window is None
        assert config.policy == POLICY_COALESCE
        assert config.forecast_info_scale == 0.25

    def test_window_floor(self):
        for bad in (2, 25.5, math.inf, math.nan):
            with pytest.raises(UsageError, match="window"):
                TrackerConfig(window=bad)
        TrackerConfig(window=3)
        assert TrackerConfig(window=25.0).window == 25

    def test_gamma_range(self):
        for bad in (0.0, -0.5, 1.5, math.nextafter(1.0, 2.0)):
            with pytest.raises(UsageError):
                TrackerConfig(forecast_info_scale=bad)
        TrackerConfig(forecast_info_scale=1.0)

    def test_policy_enum(self):
        with pytest.raises(UsageError):
            TrackerConfig(policy="improvise")

    def test_eta_positive(self):
        with pytest.raises(UsageError):
            TrackerConfig(eta=0.0)

    def test_drop_weight_range(self):
        for bad in (-0.1, 1.0):
            with pytest.raises(UsageError, match="drop weight"):
                TrackerConfig(drop_weight=bad)
        TrackerConfig(drop_weight=0.0)

    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    def test_integers_past_the_float_range(self, sign):
        """An integer window is checked as an integer; the other fields read it as an infinity."""
        huge = sign * 10 ** 400
        if sign > 0:
            assert TrackerConfig(window=huge).window == huge
        else:
            with pytest.raises(UsageError, match="window"):
                TrackerConfig(window=huge)
        with pytest.raises(NonPositiveEta):
            TrackerConfig(eta=huge)
        with pytest.raises(UsageError, match="forecast information scale"):
            TrackerConfig(forecast_info_scale=huge)
        with pytest.raises(UsageError, match="drop weight"):
            TrackerConfig(drop_weight=huge)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_a_window_longer_than_the_stream_tracks_as_full_history(self, policy):
        times, fixes = maneuvering_stream(2, seed=4, n=40)
        runs = [SequentialTracker(TrackerConfig(eta=1.0, window=window, policy=policy))
                for window in (None, 10 ** 400)]
        for t, fix in zip(times, fixes):
            full, long = (tracker.step(float(t), fix) for tracker in runs)
            assert (full.provenance, full.usable_points) == (long.provenance, long.usable_points)
            for field in ("position", "velocity", "acceleration"):
                assert np.array_equal(getattr(full, field), getattr(long, field))


class TestWarmUpAndExactness:
    def test_constant_feed_exact_every_step(self):
        tracker = SequentialTracker(TrackerConfig(eta=10.0))
        for t in range(8):
            point = tracker.step_scalar(float(t), 7.25, 1.0)
            assert abs(point.position[0] - 7.25) <= 1e-12

    def test_warm_up_echoes_raw_value(self):
        tracker = SequentialTracker(TrackerConfig(eta=5.0))
        first = tracker.step_scalar(0.0, 3.5, 1.0)
        assert first.position[0] == 3.5
        assert first.usable_points == 1
        second = tracker.step_scalar(1.0, 4.0, 1.0)
        assert second.position[0] == 4.0
        assert second.usable_points == 2

    def test_all_gap_head_raises_window_too_sparse(self):
        tracker = SequentialTracker(TrackerConfig(eta=5.0, policy=POLICY_COALESCE))
        with pytest.raises(WindowTooSparse):
            tracker.step(0.0, None)

    def test_linear_feed_velocity(self):
        tracker = SequentialTracker(TrackerConfig(eta=100.0))
        for t in range(10):
            point = tracker.step_scalar(float(t), 2.0 + 3.0 * t, 1.0)
        assert point.position[0] == pytest.approx(2.0 + 3.0 * 9, abs=1e-9)
        assert point.velocity[0] == pytest.approx(3.0, abs=1e-8)


class TestWindowConsistency:
    def test_full_history_final_point_matches_batch(self):
        sc = gen_scalar_rednoise(3)
        tracker = SequentialTracker(TrackerConfig(eta=100.0, window=None))
        for t, v, w in zip(sc.times, sc.observations.values, sc.observations.weights):
            point = tracker.step_scalar(float(t), float(v), float(w))
        batch = solve_scalar(sc.observations, 100.0)
        for got, want in ((point.position[0], batch.positions[-1]),
                          (point.velocity[0], batch.velocities[-1]),
                          (point.acceleration[0], batch.accelerations[-1])):
            assert abs(got - want) <= 1e-9 * abs(want)

    def test_window_trims_history(self):
        tracker = SequentialTracker(TrackerConfig(eta=5.0, window=5))
        rng = np.random.default_rng(1)
        for t in range(20):
            point = tracker.step_scalar(float(t), float(rng.standard_normal()), 1.0)
        assert tracker.window_size == 5
        assert point.usable_points == 5

    def test_windowed_estimate_matches_batch_over_window(self):
        rng = np.random.default_rng(2)
        times = np.arange(12.0)
        values = np.sin(times) + 0.1 * rng.standard_normal(12)
        tracker = SequentialTracker(TrackerConfig(eta=7.0, window=6))
        for t, v in zip(times, values):
            point = tracker.step_scalar(float(t), float(v), 1.0)
        from shadowtrack import ScalarObservationSeries, build_time_grid

        tail = ScalarObservationSeries(
            grid=build_time_grid(times[-6:]),
            values=values[-6:],
            weights=np.ones(6),
        )
        batch = solve_scalar(tail, 7.0)
        assert point.position[0] == pytest.approx(batch.positions[-1], abs=1e-12)

    def test_causality_future_does_not_rewrite_past(self):
        sc = gen_scalar_rednoise(0)
        futures = (sc.observations.values[40:], -sc.observations.values[40:])
        histories = []
        for future in futures:
            tracker = SequentialTracker(TrackerConfig(eta=50.0))
            emitted = []
            for i in range(40):
                emitted.append(
                    tracker.step_scalar(
                        float(sc.times[i]), float(sc.observations.values[i]), 1.0
                    ).position[0]
                )
            for j, v in enumerate(future):
                tracker.step_scalar(float(sc.times[40 + j]), float(v), 1.0)
            histories.append(emitted)
        assert histories[0] == histories[1]


class TestGapPolicies:
    def test_coalesce_gap_equals_removal(self):
        values = 5.0 + 0.3 * np.arange(12.0) + np.sin(np.arange(12.0))
        with_gap = SequentialTracker(TrackerConfig(eta=5.0, policy=POLICY_COALESCE))
        without = SequentialTracker(TrackerConfig(eta=5.0, policy=POLICY_COALESCE))
        for i in range(12):
            if i == 7:
                gap_point = with_gap.step(float(i), None)
            else:
                gap_point = with_gap.step_scalar(float(i), float(values[i]), 2.0)
                plain_point = without.step_scalar(float(i), float(values[i]), 2.0)
        assert np.abs(
            np.asarray(gap_point.position) - np.asarray(plain_point.position)
        ).max() <= 1e-12

    def test_gap_emission_is_marked_dropped(self):
        tracker = SequentialTracker(TrackerConfig(eta=5.0, policy=POLICY_COALESCE))
        for i in range(5):
            tracker.step_scalar(float(i), float(i), 1.0)
        point = tracker.step(5.0, None)
        assert point.provenance == PROVENANCE_DROPPED
        assert point.weight == 0.0
        assert point.position[0] == pytest.approx(5.0, abs=1e-9)

    def test_dropped_fix_never_contributes(self):
        fixes = [vector_estimate(float(i), 2.0 * i) for i in range(8)]
        poisoned = SequentialTracker(TrackerConfig(eta=5.0, policy=POLICY_COALESCE))
        reference = SequentialTracker(TrackerConfig(eta=5.0, policy=POLICY_COALESCE))
        for i in range(8):
            if i == 4:
                bad = RawPositionEstimate(
                    position=[1e6, -1e6],
                    information=np.zeros((2, 2)),
                    weight=0.0,
                    provenance=PROVENANCE_DROPPED,
                )
                p_a = poisoned.step(float(i), bad)
                p_b = reference.step(float(i), None)
            else:
                p_a = poisoned.step(float(i), fixes[i])
                p_b = reference.step(float(i), fixes[i])
            assert np.abs(
                np.asarray(p_a.position) - np.asarray(p_b.position)
            ).max() <= 1e-8

    def test_zero_weight_placeholder_matches_coalesce_on_linear_data(self):
        values = 1.0 + 2.0 * np.arange(10.0)
        placeholder = SequentialTracker(TrackerConfig(eta=5.0, policy=POLICY_ZERO_WEIGHT))
        coalesced = SequentialTracker(TrackerConfig(eta=5.0, policy=POLICY_COALESCE))
        for i in range(10):
            if i == 6:
                p_a = placeholder.step(float(i), None)
                p_b = coalesced.step(float(i), None)
            else:
                p_a = placeholder.step_scalar(float(i), float(values[i]), 1.0)
                p_b = coalesced.step_scalar(float(i), float(values[i]), 1.0)
        assert np.abs(
            np.asarray(p_a.position) - np.asarray(p_b.position)
        ).max() <= 1e-8

    def test_zero_weight_reference_value_does_not_leak(self):
        rng = np.random.default_rng(5)
        values = np.sin(np.arange(12.0)) + 0.1 * rng.standard_normal(12)
        absurd = RawPositionEstimate(
            position=[1e9],
            information=np.array([[4.0]]),
            weight=0.0,
            provenance=PROVENANCE_OBSERVED,
        )
        final = {}
        for label, marker in (("gap", None), ("weak", absurd)):
            tracker = SequentialTracker(TrackerConfig(eta=5.0, policy=POLICY_ZERO_WEIGHT))
            for i in range(12):
                if i == 7:
                    tracker.step(float(i), marker)
                else:
                    tracker.step_scalar(float(i), float(values[i]), 2.0)
            final[label] = tracker.last_point.position[0]
        # A sub-threshold fix becomes a zero-information placeholder with
        # a zero value, so its payload cannot leak.
        assert final["gap"] == final["weak"]

    def test_placeholder_needs_a_solve_or_a_contributing_fix(self):
        """A gap becomes a gridded placeholder once the dimension is known and
        either a solve exists or the window holds a contributing fix."""
        tracker = SequentialTracker(TrackerConfig(eta=5.0, window=5, policy=POLICY_ZERO_WEIGHT))
        dropped = vector_estimate(0.0, 0.0, info_scale=0.0, weight=0.0,
                                  provenance=PROVENANCE_DROPPED)

        def feed(t, fix):
            try:
                tracker.step(float(t), fix)
            except WindowTooSparse:
                pass

        feed(0, dropped)  # dimension known, but nothing to anchor: coalesced
        feed(1, vector_estimate(1.0, 1.0))
        feed(2, None)  # no solve yet, one fix in the window: a placeholder
        for t in (3, 4):
            feed(t, vector_estimate(float(t), 1.0))
        assert tracker.trajectory.grid.times.tolist() == [1.0, 2.0, 3.0, 4.0]
        for t in range(5, 11):
            feed(t, None)  # at t = 10 no fix is left in the window, only a solve
        for t in (11, 12, 13):
            feed(t, vector_estimate(float(t), 1.0))
        assert tracker.trajectory.grid.times.tolist() == [9.0, 10.0, 11.0, 12.0, 13.0]

    @pytest.mark.parametrize("window", [None, 7], ids=["full-history", "window-7"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_zero_information_values_leave_points_bitwise_equal(self, dim, window):
        """Zero-information slots valued 0, +1e9 or -1e9, or made by the
        zero-weight policy, give bitwise-equal emitted states."""
        config = TrackerConfig(eta=3.0, window=window, policy=POLICY_ZERO_WEIGHT)
        times, fixes = maneuvering_stream(dim, seed=30 + dim, n=120, decades=2.0,
                                          gap_share=0.3)
        runs = []
        for filler in (None, 0.0, 1e9, -1e9):
            tracker = SequentialTracker(config)
            states = []
            for t, fix in zip(times, fixes):
                if fix is None and filler is not None:
                    fix = RawPositionEstimate(
                        position=np.full(dim, filler), information=np.zeros((dim, dim)),
                        weight=1.0, provenance=PROVENANCE_OBSERVED)
                try:
                    point = tracker.step(float(t), fix)
                except WindowTooSparse:
                    states.append(b"too sparse")
                    continue
                states.append(b"".join(
                    getattr(point, name).tobytes()
                    for name in ("position", "velocity", "acceleration")))
            runs.append(states)
        assert fixes.count(None) > 20
        for states in runs[1:]:
            assert states == runs[0]


class TestForecastPolicy:
    def test_forecast_on_line_is_exact(self):
        tracker = SequentialTracker(TrackerConfig(eta=5.0, policy=POLICY_FORECAST))
        for i in range(6):
            tracker.step_scalar(float(i), 2.0 + 3.0 * i, 1.0)
        forecast = tracker.insert_forecast(6.0)
        assert forecast.position[0] == pytest.approx(2.0 + 3.0 * 6, abs=1e-9)
        assert forecast.provenance == PROVENANCE_FORECAST

    def test_forecast_information_scale(self):
        tracker = SequentialTracker(
            TrackerConfig(eta=5.0, policy=POLICY_FORECAST, forecast_info_scale=0.1)
        )
        for i in range(5):
            tracker.step(float(i), vector_estimate(float(i), 0.0, info_scale=4.0))
        forecast = tracker.insert_forecast(5.0)
        assert np.allclose(np.asarray(forecast.information), 0.1 * 4.0 * np.eye(2))

    def test_gap_step_emits_forecast_provenance(self):
        tracker = SequentialTracker(TrackerConfig(eta=5.0, policy=POLICY_FORECAST))
        for i in range(6):
            tracker.step_scalar(float(i), 2.0 + 3.0 * i, 1.0)
        point = tracker.step(6.0, None)
        assert point.provenance == PROVENANCE_FORECAST
        assert point.position[0] == pytest.approx(20.0, abs=1e-8)
        next_point = tracker.step_scalar(7.0, 23.0, 1.0)
        assert next_point.position[0] == pytest.approx(23.0, abs=1e-6)

    def test_forecast_before_any_trajectory_raises(self):
        tracker = SequentialTracker(TrackerConfig(eta=5.0, policy=POLICY_FORECAST))
        with pytest.raises(NoTrajectoryYet):
            tracker.insert_forecast(0.0)

    @pytest.mark.parametrize("window", [None, 6])
    def test_forecast_inside_window_evaluates_spline(self, window):
        tracker = SequentialTracker(TrackerConfig(eta=5.0, window=window))
        rng = np.random.default_rng(9)
        for i in range(10):
            tracker.step(float(i), vector_estimate(float(i), float(rng.standard_normal())))
        for t in (6.25, 8.5, 8.999):
            forecast = tracker.insert_forecast(t)
            assert np.array_equal(forecast.position, evaluate_spline(tracker.trajectory, t))

    def test_forecast_with_no_contributing_fix_left_raises(self):
        tracker = SequentialTracker(TrackerConfig(eta=5.0, window=3))
        for i in range(3):
            tracker.step_scalar(float(i), float(i), 1.0)
        for i in range(3, 6):
            with pytest.raises(WindowTooSparse):
                tracker.step(float(i), None)
        assert tracker.usable_count == 0
        with pytest.raises(WindowTooSparse, match="no contributing fixes"):
            tracker.insert_forecast(6.0)


class TestForecastInformation:
    @pytest.mark.parametrize("window", [None, 6], ids=["full-history", "window-6"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_mean_over_contributing_fixes(self, policy, window):
        """Forecast information is the scale times the mean information over
        the window's contributing fixes; gap slots do not count."""
        rng = np.random.default_rng(41)
        tracker = SequentialTracker(TrackerConfig(
            eta=10.0, window=window, policy=policy, forecast_info_scale=0.3))
        fed = []  # the information each step put into the window, or None
        for i in range(20):
            t = float(i)
            if i >= 4 and i % 3 == 0:
                inserted = None
                if policy == POLICY_FORECAST:
                    inserted = np.asarray(tracker.insert_forecast(t).information)
                assert tracker.step(t, None).provenance != PROVENANCE_OBSERVED
                fed.append(inserted)
                continue
            factor = rng.standard_normal((2, 2))
            info = factor @ factor.T + 0.5 * np.eye(2)
            tracker.step(t, RawPositionEstimate(position=[t, 0.5 * t], information=info,
                                                weight=1.0, provenance=PROVENANCE_OBSERVED))
            fed.append(info)
            if i < 2:
                continue
            held = fed if window is None else fed[-window:]
            contributing = [each for each in held if each is not None]
            assert tracker.usable_count == len(contributing)
            found = np.asarray(tracker.insert_forecast(t + 0.5).information)
            np.testing.assert_allclose(found, 0.3 * np.mean(contributing, axis=0),
                                       rtol=1e-13, atol=0.0)
        if policy != POLICY_FORECAST:
            assert tracker.usable_count < tracker.window_size

    @pytest.mark.parametrize("window", [None, 5], ids=["full-history", "window-5"])
    def test_mean_of_informations_past_the_float_range(self, window):
        """Two fixes of 1e308 I overflow the informations' sum, not their mean: the
        forecast's information is finite and the stream is tracked."""
        tracker = SequentialTracker(TrackerConfig(eta=10.0, window=window,
                                                  policy=POLICY_FORECAST))
        for t in range(4):
            tracker.step(float(t), vector_estimate(t, 0.5 * t, 1e308 if t < 2 else 1.0))
        info = np.asarray(tracker.insert_forecast(4.0).information)
        np.testing.assert_allclose(info, 0.25 * 0.5e308 * np.eye(2), rtol=1e-15, atol=0.0)
        points = [tracker.step(4.0, None), tracker.step(5.0, vector_estimate(5.0, 2.5))]
        assert points[0].provenance == PROVENANCE_FORECAST
        for point in points:
            for state in (point.position, point.velocity, point.acceleration):
                assert np.all(np.isfinite(state))


class TestEmissionContract:
    def test_observed_point_carries_fix_weight(self):
        tracker = SequentialTracker(TrackerConfig(eta=5.0))
        for i in range(4):
            point = tracker.step(float(i), vector_estimate(float(i), 1.0, weight=0.6))
        assert point.provenance == PROVENANCE_OBSERVED
        assert point.weight == 0.6

    def test_sub_threshold_weight_treated_as_gap(self):
        tracker = SequentialTracker(TrackerConfig(eta=5.0, drop_weight=0.5))
        for i in range(5):
            tracker.step(float(i), vector_estimate(float(i), 0.0, weight=1.0))
        weak = vector_estimate(99.0, 99.0, weight=0.4)
        point = tracker.step(5.0, weak)
        assert point.provenance == PROVENANCE_DROPPED
        assert point.position[0] == pytest.approx(5.0, abs=1e-6)

    def test_lag_at_high_smoothing(self):
        sc = gen_scalar_rednoise(0)
        tracker = SequentialTracker(TrackerConfig(eta=1e4))
        estimates = []
        for t, v, w in zip(sc.times, sc.observations.values, sc.observations.weights):
            estimates.append(tracker.step_scalar(float(t), float(v), float(w)).position[0])
        estimates = np.array(estimates)
        aligned = np.sqrt(np.mean((estimates[20:] - sc.truth[20:]) ** 2))
        lagged = min(
            np.sqrt(np.mean((estimates[20:] - sc.truth[20 - k : 101 - k]) ** 2))
            for k in range(1, 9)
        )
        assert lagged < 0.75 * aligned

    def test_moderate_smoothing_recovers_faster(self):
        sc = gen_scalar_rednoise(0)

        def run(eta):
            tracker = SequentialTracker(TrackerConfig(eta=eta))
            return np.array([
                tracker.step_scalar(float(t), float(v), float(w)).position[0]
                for t, v, w in zip(
                    sc.times, sc.observations.values, sc.observations.weights
                )
            ])

        late = slice(80, 96)
        err_100 = np.mean(np.abs(run(100.0)[late] - sc.truth[late]))
        err_1000 = np.mean(np.abs(run(1000.0)[late] - sc.truth[late]))
        assert err_100 < err_1000


class TestValidation:
    def test_out_of_order_timestamp(self):
        tracker = SequentialTracker(TrackerConfig(eta=5.0))
        tracker.step_scalar(0.0, 1.0, 1.0)
        tracker.step_scalar(1.0, 1.0, 1.0)
        with pytest.raises(OutOfOrderTimestamp):
            tracker.step_scalar(1.0, 1.0, 1.0)
        with pytest.raises(OutOfOrderTimestamp):
            tracker.step_scalar(0.5, 1.0, 1.0)

    def test_non_finite_time_rejected(self):
        tracker = SequentialTracker(TrackerConfig(eta=5.0))
        with pytest.raises(DataError):
            tracker.step_scalar(float("nan"), 1.0, 1.0)

    def test_dimension_mismatch(self):
        tracker = SequentialTracker(TrackerConfig(eta=5.0))
        tracker.step_scalar(0.0, 1.0, 1.0)
        with pytest.raises(ShapeMismatch):
            tracker.step(1.0, vector_estimate(0.0, 0.0))

    def test_last_point_before_any_step(self):
        tracker = SequentialTracker(TrackerConfig(eta=5.0))
        assert tracker.last_point is None

    def test_step_scalar_gap_and_bad_readings(self):
        tracker = SequentialTracker(TrackerConfig(eta=5.0))
        for t in range(4):
            tracker.step_scalar(float(t), float(t), 1.0)
        gap = tracker.step_scalar(4.0, None)
        assert (gap.provenance, gap.weight, gap.usable_points) == (PROVENANCE_DROPPED, 0.0, 4)
        for value in (math.nan, math.inf):
            with pytest.raises(ShapeMismatch, match="must be finite"):
                tracker.step_scalar(5.0, value, 1.0)
        for info in (-1.0, math.nan, math.inf):
            with pytest.raises(UsageError, match="finite and non-negative"):
                tracker.step_scalar(5.0, 5.0, info)
        # Zero information is a gap, as a zero-weight row is for track.
        gap = tracker.step_scalar(5.0, 5.0, 0.0)
        assert (gap.provenance, gap.weight, gap.usable_points) == (PROVENANCE_DROPPED, 0.0, 4)
        assert tracker.step_scalar(6.0, 5.0, 1.0).usable_points == 5


class ReSolvingTracker:
    """The tracker as it was before the incremental solve.

    Every step trims the window to the configured number of steps,
    re-solves all its gridded slots from scratch and reads the newest
    state off the batch trajectory. The slot bookkeeping and the gap
    policies are kept as they were, so the incremental tracker is checked
    against an independent implementation of both.
    """

    def __init__(self, config):
        self.config = config
        self.dim = None
        self.trajectory = None
        self._window = []

    def _usable_slots(self):
        return [slot for slot in self._window
                if slot["info"] is not None and float(np.trace(slot["info"])) > 0.0]

    def insert_forecast(self, time):
        position = np.atleast_1d(np.asarray(evaluate_spline(self.trajectory, time)))
        mean_info = np.mean([slot["info"] for slot in self._usable_slots()], axis=0)
        return position, self.config.forecast_info_scale * mean_info

    def step(self, time, estimate):
        usable = (estimate is not None and estimate.usable
                  and estimate.weight >= self.config.drop_weight)
        if estimate is not None and self.dim is None:
            self.dim = estimate.dim
        raw_weight = float(estimate.weight) if estimate is not None else 0.0
        if usable:
            slot = dict(time=time, value=np.asarray(estimate.position, dtype=float),
                        info=np.asarray(estimate.information, dtype=float),
                        raw_weight=raw_weight, emitted=estimate.provenance)
        else:
            slot = self._missing_slot(time, raw_weight)
        self._window.append(slot)
        if self.config.window is not None:
            del self._window[:-self.config.window]
        return self._emit(slot)

    def _missing_slot(self, time, raw_weight):
        slot = dict(time=time, value=None, info=None, raw_weight=raw_weight,
                    emitted=PROVENANCE_DROPPED)
        policy = self.config.policy
        if policy == POLICY_FORECAST and self.trajectory is not None and self._usable_slots():
            value, info = self.insert_forecast(time)
            slot.update(value=value, info=info, emitted=PROVENANCE_FORECAST)
        elif policy == POLICY_ZERO_WEIGHT and self.dim is not None:
            if self.trajectory is not None:
                reference = np.atleast_1d(np.asarray(evaluate_spline(self.trajectory, time)))
            elif self._usable_slots():
                reference = self._usable_slots()[-1]["value"]
            else:
                reference = None
            if reference is not None:
                slot.update(value=reference, info=np.zeros((self.dim, self.dim)))
        return slot

    def _emit(self, newest):
        gridded = [slot for slot in self._window if slot["info"] is not None]
        usable_count = len(self._usable_slots())
        if usable_count < 3:
            contributes = newest["info"] is not None and float(np.trace(newest["info"])) > 0.0
            if not contributes:
                raise WindowTooSparse("too few usable fixes")
            zeros = np.zeros(newest["value"].size)
            return TrackPoint(newest["time"], newest["value"], zeros, zeros,
                              newest["raw_weight"], newest["emitted"], usable_count)
        grid = build_time_grid(np.array([slot["time"] for slot in gridded]))
        values = np.stack([slot["value"] for slot in gridded])
        infos = np.stack([slot["info"] for slot in gridded])
        if self.dim == 1:
            trajectory = solve_scalar(ScalarObservationSeries(
                grid=grid, values=values[:, 0], weights=infos[:, 0, 0]), self.config.eta)
        else:
            trajectory = solve_vector(VectorObservationSeries(
                grid=grid, values=values, informations=infos), self.config.eta)
        self.trajectory = trajectory
        m = len(gridded)
        positions = np.reshape(trajectory.positions, (m, -1))
        velocities = np.reshape(trajectory.velocities, (m, -1))
        accelerations = np.reshape(trajectory.accelerations, (m - 1, -1))
        if gridded[-1]["time"] == newest["time"]:
            position, acceleration = positions[-1], accelerations[-1]
        else:
            position = np.atleast_1d(np.asarray(evaluate_spline(trajectory, newest["time"])))
            acceleration = np.zeros_like(position)
        return TrackPoint(newest["time"], position, velocities[-1], acceleration,
                          newest["raw_weight"], newest["emitted"], usable_count)


def maneuvering_stream(dim, seed, n, decades=4.0, gap_share=0.1):
    """Noisy fixes of a smooth maneuvering path on a widely spread grid.

    Gaps between samples are log-uniform over ``decades`` decades, the
    informations are correlated and vary from fix to fix, and a share of
    the steps are gap markers (None). The first three steps are fixes.
    """
    rng = np.random.default_rng(seed)
    times = np.concatenate([[0.0], np.cumsum(10.0 ** rng.uniform(-decades / 2, decades / 2,
                                                                n - 1))])
    s = times / times[-1]
    truth = np.column_stack([40.0 * s + 15.0 * np.sin(5.0 * s + k) for k in range(dim)])
    fixes = []
    for i in range(n):
        if i >= 3 and rng.random() < gap_share:
            fixes.append(None)
            continue
        root = rng.standard_normal((dim, dim))
        fixes.append(RawPositionEstimate(
            position=truth[i] + 0.5 * rng.standard_normal(dim),
            information=root @ root.T + 0.1 * np.eye(dim),
            weight=1.0, provenance=PROVENANCE_OBSERVED))
    return times, fixes


def assert_states_agree(got, want, tol):
    """Each of p, v, a agrees to ``tol`` times its largest magnitude over the run.

    The run's scale, not each point's, sets the bound: an acceleration
    that is zero to rounding (after a zero-information newest sample, say)
    has no relative digits to compare.
    """
    for field in ("position", "velocity", "acceleration"):
        x = np.array([getattr(point, field) for point in got])
        y = np.array([getattr(point, field) for point in want])
        assert np.abs(x - y).max() <= tol * np.abs(y).max(), field


class TestIncrementalFullHistory:
    @pytest.mark.parametrize("policy, dim, eta, window", [
        *(pytest.param(policy, dim, eta, None, id=f"{policy}-{dim}-{eta}")
          for policy, dim, eta in (
              (POLICY_COALESCE, 1, 1e-3), (POLICY_COALESCE, 2, 1e6),
              (POLICY_ZERO_WEIGHT, 1, 1.0), (POLICY_ZERO_WEIGHT, 2, 1e-3),
              (POLICY_FORECAST, 1, 1e6), (POLICY_FORECAST, 2, 1.0),
              (POLICY_COALESCE, 3, 1e-3), (POLICY_ZERO_WEIGHT, 3, 1.0), (POLICY_FORECAST, 3, 1e6))),
        *(pytest.param(policy, dim, eta, 25, id=f"{policy}-{dim}-{eta}-window-25")
          for policy in POLICIES for dim in (1, 2) for eta in (1e-3, 1.0, 1e6)),
        *(pytest.param(policy, 3, eta, 25, id=f"{policy}-3-{eta}-window-25")
          for policy, eta in ((POLICY_COALESCE, 1e-3), (POLICY_ZERO_WEIGHT, 1.0),
                              (POLICY_FORECAST, 1e6))),
    ])
    def test_matches_re_solving_tracker(self, policy, dim, eta, window):
        config = TrackerConfig(eta=eta, window=window, policy=policy)
        tracker, reference = SequentialTracker(config), ReSolvingTracker(config)
        times, fixes = maneuvering_stream(dim, seed=dim, n=180)
        got, want = [], []
        for t, fix in zip(times, fixes):
            got.append(tracker.step(float(t), fix))
            want.append(reference.step(float(t), fix))
        for a, b in zip(got, want):
            assert (a.time, a.weight, a.provenance, a.usable_points) == (
                b.time, b.weight, b.provenance, b.usable_points)
        assert_states_agree(got, want, 1e-9)

    @pytest.mark.parametrize("dim, eta", [(1, 1e-3), (2, 1e6)])
    def test_long_run_matches_batch_at_checkpoints(self, dim, eta):
        tracker = SequentialTracker(TrackerConfig(eta=eta, policy=POLICY_ZERO_WEIGHT))
        times, fixes = maneuvering_stream(dim, seed=10 + dim, n=1600)
        got, want = [], []
        for i, (t, fix) in enumerate(zip(times, fixes)):
            point = tracker.step(float(t), fix)
            if i % 400 == 399:
                batch = tracker.trajectory
                m = batch.grid.times.size
                got.append(point)
                want.append(TrackPoint(
                    float(t), np.reshape(batch.positions, (m, -1))[-1],
                    np.reshape(batch.velocities, (m, -1))[-1],
                    np.reshape(batch.accelerations, (m - 1, -1))[-1], 0.0, "", 0))
        assert_states_agree(got, want, 1e-9)

    @pytest.mark.parametrize("dim, seed, window", [
        pytest.param(1, 2, None, id="1-2"), pytest.param(2, 0, None, id="2-0"),
        pytest.param(2, 0, 25, id="2-0-window-25"),
    ])
    def test_rough_stream_stays_close_to_batch(self, dim, seed, window):
        """Noise-dominated values, eta 1e-3 and zero-information runs on a 4-decade grid.

        The fit interpolates noise across gaps of 1 to 1e4, the hardest
        streams tried. The incremental solve stayed within 5e-10 of the
        scale here; without rescaling its carried rows it was off by 1e-7
        to 4e-7, which the bound catches.
        """
        rng = np.random.default_rng(seed)
        n = 150
        times = np.concatenate([[0.0], np.cumsum(10.0 ** rng.uniform(0.0, 4.0, n - 1))])
        values = (3.0 * rng.standard_normal((n, dim))
                  + np.cumsum(rng.standard_normal((n, dim)), axis=0))
        tracker = SequentialTracker(TrackerConfig(eta=1e-3, window=window,
                                                  policy=POLICY_ZERO_WEIGHT))
        got, want = [], []
        for i, t in enumerate(times):
            root = rng.standard_normal((dim, dim))
            fix = None if i >= 3 and rng.random() < 0.1 else RawPositionEstimate(
                position=values[i], information=root @ root.T + 0.1 * np.eye(dim),
                weight=1.0, provenance=PROVENANCE_OBSERVED)
            point = tracker.step(float(t), fix)
            if i >= 2:
                batch = tracker.trajectory
                m = batch.grid.times.size
                got.append(point)
                want.append(TrackPoint(
                    float(t), np.reshape(batch.positions, (m, -1))[-1],
                    np.reshape(batch.velocities, (m, -1))[-1],
                    np.reshape(batch.accelerations, (m - 1, -1))[-1], 0.0, "", 0))
        assert_states_agree(got, want, 1e-8)

    @pytest.mark.parametrize("policy, window", [
        *(pytest.param(policy, None, id=policy) for policy in POLICIES),
        *(pytest.param(policy, 25, id=f"{policy}-window-25") for policy in POLICIES),
    ])
    def test_full_history_never_re_solves(self, monkeypatch, policy, window):
        """Steps never batch-solve, over the full history or a window; reading
        ``trajectory`` solves once, over the gridded slots of the last step."""
        calls = []

        def counted(solve):
            def wrapper(*args, **kwargs):
                calls.append(solve.__name__)
                return solve(*args, **kwargs)
            return wrapper

        for name in ("solve_scalar", "solve_vector"):
            monkeypatch.setattr(tracker_module, name,
                                counted(getattr(tracker_module, name)))
        tracker = SequentialTracker(TrackerConfig(eta=10.0, window=window, policy=policy))
        times, fixes = maneuvering_stream(2, seed=3, n=500, decades=1.0)
        for t, fix in zip(times, fixes):
            tracker.step(float(t), fix)
        assert calls == []
        first = tracker.trajectory
        assert calls == ["solve_vector"]
        assert tracker.trajectory is first
        assert calls == ["solve_vector"]
        held = fixes if window is None else fixes[-window:]
        gridded = len(held) - (held.count(None) if policy == POLICY_COALESCE else 0)
        assert first.positions.shape == (gridded, 2)

    @pytest.mark.parametrize("policy, window", [
        *(pytest.param(policy, None, id=policy) for policy in POLICIES),
        *(pytest.param(policy, 25, id=f"{policy}-window-25") for policy in POLICIES),
    ])
    def test_one_decomposition_per_gridded_step(self, monkeypatch, policy, window):
        """A fix is checked and decomposed by one eigh when it is made, and a
        forecast by one inside ``step``; the elimination reuses their roots, so
        observed fixes, placeholders and coalesced gaps take none in ``step``."""
        calls = []

        def counted(name):
            decompose = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return decompose(*args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name))
        times, fixes = maneuvering_stream(2, seed=3, n=200, decades=1.0)
        assert calls == ["eigh"] * (len(fixes) - fixes.count(None))
        tracker = SequentialTracker(TrackerConfig(eta=10.0, window=window, policy=policy))
        seen = set()
        for t, fix in zip(times, fixes):
            calls.clear()
            provenance = tracker.step(float(t), fix).provenance
            assert calls == (["eigh"] if provenance == PROVENANCE_FORECAST else []), t
            seen.add(provenance)
        emitted = {POLICY_FORECAST: PROVENANCE_FORECAST}.get(policy, PROVENANCE_DROPPED)
        assert seen == {PROVENANCE_OBSERVED, emitted}

    @pytest.mark.parametrize("policy", POLICIES)
    def test_trajectory_reuses_the_slots_roots(self, monkeypatch, policy):
        """Reading ``trajectory`` decomposes no information again, and fits what
        a series checked and decomposed afresh from the same slots fits, bit for bit."""
        tracker = SequentialTracker(TrackerConfig(eta=10.0, policy=policy))
        times, fixes = maneuvering_stream(2, seed=3, n=200, decades=1.0)
        for t, fix in zip(times, fixes):
            tracker.step(float(t), fix)
        calls = []
        decompose = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda *args, **kwargs: calls.append(1) or decompose(*args, **kwargs))
        got = tracker.trajectory
        assert calls == []
        monkeypatch.undo()
        slots = tracker._solved
        fresh = VectorObservationSeries(
            grid=build_time_grid([slot.time for slot in slots]),
            values=np.stack([slot.value for slot in slots]),
            informations=np.stack([slot.information for slot in slots]),
        )
        want = solve_vector(fresh, 10.0)
        assert got.positions.shape == (len(slots), 2)
        assert np.array_equal(got.positions, want.positions)
        assert np.array_equal(got.velocities, want.velocities)

    @pytest.mark.parametrize("policy", [POLICY_COALESCE, POLICY_ZERO_WEIGHT])
    def test_trajectory_outlives_a_thinned_window(self, policy):
        """Read only after the window has thinned below three usable fixes,
        ``trajectory`` is still the batch solve of the last solved step."""
        tracker = SequentialTracker(TrackerConfig(eta=5.0, window=6, policy=policy))
        values = np.sin(np.arange(8.0))
        for t, v in enumerate(values):
            tracker.step_scalar(float(t), float(v), 1.0)
        for t in (8.0, 9.0, 10.0):  # at t = 10 the window holds three fixes
            tracker.step(t, None)
        for t in (11.0, 12.0, 13.0):
            with pytest.raises(WindowTooSparse):
                tracker.step(t, None)
        held = 6 if policy == POLICY_ZERO_WEIGHT else 3  # placeholders at 8, 9 and 10
        times = np.arange(5.0, 5.0 + held)
        batch = solve_scalar(ScalarObservationSeries(
            grid=build_time_grid(times), values=np.append(values[5:], np.zeros(held - 3)),
            weights=np.arange(held) < 3), 5.0)
        trajectory = tracker.trajectory
        assert np.array_equal(trajectory.grid.times, times)
        assert np.array_equal(trajectory.positions, batch.positions)

    @pytest.mark.parametrize("window", [None, 3])
    def test_an_information_of_1e308_is_tracked(self, window):
        """Its trace would overflow; the elimination uses its root, 1e154 I."""
        tracker = SequentialTracker(TrackerConfig(eta=10.0, window=window))
        for t in np.arange(6.0):
            point = tracker.step(t, vector_estimate(t, 0.5 * t, 1e308 if t == 0.0 else 1.0))
            assert np.allclose(point.position, [t, 0.5 * t], rtol=0.0, atol=1e-12)
        assert np.allclose(point.velocity, [1.0, 0.5], rtol=0.0, atol=1e-12)

    @pytest.mark.xfail(strict=True, reason=(
        "velocity off by 3.1e-6 (d = 1) and 3.5e-6 (d = 2) of scale, a gap that grows as "
        "about 1/eta (5.5e-12 at eta 1e-6 and 9.8e-9 at 1e-9 for d = 1); likely the "
        "pin-first elimination, which carries the null directions' response at absolute, "
        "not relative, accuracy"))
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_re_solving_tracker_at_eta_1e_minus_12(self, dim):
        config = TrackerConfig(eta=1e-12)
        tracker, reference = SequentialTracker(config), ReSolvingTracker(config)
        times, fixes = maneuvering_stream(dim, seed=dim, n=120, decades=1.0)
        got = [tracker.step(float(t), fix) for t, fix in zip(times, fixes)]
        want = [reference.step(float(t), fix) for t, fix in zip(times, fixes)]
        assert_states_agree(got, want, 1e-9)

    @pytest.mark.xfail(strict=True, reason=(
        "positions off by 9.1e-2, likely because the elimination's QR mixes the 1e50 "
        "root's rows with unit ones without row ordering"))
    def test_a_heavy_information_mid_stream(self):
        """Five fixes of the line (t, t/2) at eta 10, the middle one with information 1e100 I."""
        tracker = SequentialTracker(TrackerConfig(eta=10.0))
        for t in range(5):
            point = tracker.step(float(t), vector_estimate(t, 0.5 * t, 1e100 if t == 2 else 1.0))
            assert np.abs(point.position - [t, 0.5 * t]).max() <= 1e-12 * 4.0

    @pytest.mark.parametrize("window", [None, 6])
    def test_unobserved_direction_raises_singular_system(self, window):
        tracker = SequentialTracker(TrackerConfig(eta=2.0, window=window))
        times = np.arange(20.0)
        with pytest.raises(SingularSystem):
            for t in times:
                tracker.step(float(t), RawPositionEstimate(
                    position=[math.sin(t), math.cos(t)], information=np.diag([1.0, 0.0]),
                    weight=1.0, provenance=PROVENANCE_OBSERVED))

    @pytest.mark.parametrize("window", [None, 6])
    def test_alpha_rows_that_lose_rank_raise_singular_system(self, monkeypatch, window):
        """With no null direction left in the carried rows, alpha's rows lose rank, and
        ``step`` raises as the batch solve does rather than emit a truncated alpha."""
        append = solver_module._IncrementalSolve.append

        def unseen(self, *args):
            append(self, *args)
            self._carry[..., 2 * self.dim + 1:] = 0.0  # x_N's null directions
            self._residual[..., 2 * self.dim + 1:] = 0.0  # and the older samples'

        monkeypatch.setattr(solver_module._IncrementalSolve, "append", unseen)
        tracker = SequentialTracker(TrackerConfig(eta=2.0, window=window))
        with pytest.raises(SingularSystem, match="singular"):
            for t in range(8):
                tracker.step(float(t), vector_estimate(t, 0.5 * t * t))


@lru_cache(maxsize=None)  # the tests of one stream read one run
def invariance_errors(dim, window, seed):
    """How far a tracker is from the exact invariances of its fit on one stream.

    The objective, the sum of (p - y)^T W (p - y) / 2 and eta tau |a|^2, keeps
    its minimizer when time is scaled by c and eta by c^3 (velocities scale by
    1/c and accelerations by 1/c^2), and scales it by s when the values are (the
    informations unchanged). For d = 2 it also maps the minimizer by M when
    every fix's position is moved by M and its information to M W M^T, for a
    random orthogonal M ("rotation") and for the axis swap ("swap"). Adding
    c0 + c1 t to every fix's position, the informations unchanged, moves the
    positions by c0 + c1 t and the velocities by c1 and leaves the
    accelerations ("shift"); only steps with at least three usable points are
    compared, since a warm-up step echoes its fix at rest. The stream is
    ``maneuvering_stream`` on three decades of gaps with every tenth step a
    gap, a placeholder under the zero-weight policy; c and s are drawn from
    2^[-8, 8], eta from 1e-3 to 1e4, and c0 and c1 from normals at the scale of
    the fixes' positions and of those over the stream's span. Returns the worst
    error of each by name, p, v and a each on its own scale over the steps
    compared.
    """
    rng = np.random.default_rng([61, dim, seed])
    c, s = 2.0 ** rng.uniform(-8.0, 8.0, 2)
    eta = 10.0 ** rng.uniform(-3.0, 4.0)
    rotation = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    times, fixes = maneuvering_stream(dim, seed=100 * dim + seed, n=60, decades=3.0,
                                      gap_share=0.0)
    fixes[9::10] = [None] * 6
    scale = max(np.abs(fix.position).max() for fix in fixes if fix is not None)
    c0 = scale * rng.standard_normal(dim)
    c1 = scale / times[-1] * rng.standard_normal(dim)

    def track(times, fixes, eta):
        tracker = SequentialTracker(TrackerConfig(eta=eta, window=window,
                                                  policy=POLICY_ZERO_WEIGHT))
        return [tracker.step(float(t), fix) for t, fix in zip(times, fixes)]

    base = track(times, fixes, eta)

    def error(points, scales, back=None, moves=(0.0,) * 3, steps=slice(None)):
        """Worst error over ``steps`` of ``points`` scaled back by ``scales``, mapped
        back by ``back`` and moved back by ``moves``."""
        worst = 0.0
        for field, scale, move in zip(("position", "velocity", "acceleration"), scales, moves):
            got = scale * np.array([getattr(point, field) for point in points]) - move
            if back is not None:
                got = got @ back  # rows M x mapped back to x, as M is orthogonal
            want = np.array([getattr(point, field) for point in base])
            worst = max(worst, np.abs(got - want)[steps].max() / np.abs(want[steps]).max())
        return worst

    def mapped(m):
        """The stream with each position moved by m and each information to m W m^T."""
        return track(times, [fix if fix is None else RawPositionEstimate(
            position=m @ fix.position, information=m @ fix.information @ m.T,
            weight=fix.weight, provenance=fix.provenance) for fix in fixes], eta)

    timed = track(c * times, fixes, eta * c ** 3)
    scaled = track(times, [fix if fix is None else RawPositionEstimate(
        position=s * fix.position, information=fix.information, weight=fix.weight,
        provenance=fix.provenance) for fix in fixes], eta)
    shifted = track(times, [fix if fix is None else RawPositionEstimate(
        position=fix.position + c0 + c1 * t, information=fix.information, weight=fix.weight,
        provenance=fix.provenance) for t, fix in zip(times, fixes)], eta)
    solved = [point.usable_points >= 3 for point in base]
    errors = {"time": error(timed, (1.0, c, c * c)), "values": error(scaled, (1.0 / s,) * 3),
              "shift": error(shifted, (1.0,) * 3, moves=(c0 + np.outer(times, c1), c1, 0.0),
                             steps=solved)}
    if dim == 2:
        swap = np.eye(2)[::-1]
        errors["rotation"] = error(mapped(rotation), (1.0,) * 3, rotation)
        errors["swap"] = error(mapped(swap), (1.0,) * 3, swap)
    return errors


class TestInvariances:
    """Time scaled with eta, values scaled, fixes shifted by c0 + c1 t, and planar
    fixes rotated or their axes swapped leave the tracker's states as they were,
    mapped alike.

    None is bitwise, even at powers of two, because the pin's unit right-hand
    sides do not scale. Over 300 streams each, the worst time and value errors
    were 6.3e-11 and 4.8e-11 for d = 1 (window 25: 6.5e-11 and 4.9e-11) and
    1.3e-11 and 4.6e-12 for d = 2. In a window of 7 the time error is wider.
    Over seeds 0-39 for d = 2 under full history and windows 7 and 25, the
    worst rotation and swap errors were 1.4e-12 and 1.6e-12 (window 25 and
    window 7); their bounds are about five times those. Over the same seeds for
    d = 1 and 2 under each window, the worst shift error was 1.9e-12 (d = 2,
    window 7), and its bound is about five times that.
    """

    @pytest.mark.parametrize("window", [None, 7, 25])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_time_and_value_scaling(self, dim, window):
        for seed in range(4):
            errors = invariance_errors(dim, window, seed)
            assert max(errors["time"], errors["values"]) <= 1e-10, seed

    @pytest.mark.parametrize("window", [None, 7, 25])
    def test_rotation_and_axis_swap(self, window):
        for seed in range(4):
            errors = invariance_errors(2, window, seed)
            assert errors["rotation"] <= 7e-12, seed
            assert errors["swap"] <= 8e-12, seed

    @pytest.mark.parametrize("window", [None, 7, 25])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_affine_shift(self, dim, window):
        for seed in range(4):
            assert invariance_errors(dim, window, seed)["shift"] <= 1e-11, seed

    @pytest.mark.xfail(strict=True, reason=(
        "velocity off by 6.7e-10 (d = 1) and 2.1e-10 (d = 2) of scale at eta 8.2e3 and "
        "2.5e3, the worst of 300 streams each; likely alpha's rows beside the window's pin"))
    @pytest.mark.parametrize("dim, seed", [(1, 113), (2, 267)])
    def test_time_scaling_in_a_window_of_7(self, dim, seed):
        assert invariance_errors(dim, 7, seed)["time"] <= 1e-10


class TestRejectedFix:
    @pytest.mark.parametrize("window", [None, 25])
    def test_rejected_fix_leaves_tracker_unchanged(self, window):
        config = TrackerConfig(eta=5.0, window=window)
        rejecting, reference = SequentialTracker(config), SequentialTracker(config)
        # Past step 25 the window's state comes from chains pinned before the
        # rejected fix, other than the first.
        for i in range(30):
            fix = vector_estimate(float(i), 0.5 * i * i)
            if i == 4:
                with pytest.raises(IndefiniteInformation):
                    RawPositionEstimate(position=[3.0, 3.0], information=np.diag([1.0, -1.0]),
                                        weight=1.0, provenance=PROVENANCE_OBSERVED)
                spatial = RawPositionEstimate(position=[3.0, 3.0, 3.0], information=np.eye(3),
                                              weight=1.0, provenance=PROVENANCE_OBSERVED)
                with pytest.raises(ShapeMismatch):
                    rejecting.step(3.5, spatial)
            got, want = rejecting.step(float(i), fix), reference.step(float(i), fix)
            assert np.array_equal(got.position, want.position)
            assert np.array_equal(got.velocity, want.velocity)
            assert got.usable_points == want.usable_points
