"""Seeded synthetic data generators: determinism, endpoints, noise statistics."""

import json
import math

import numpy as np
import pytest

from shadowtrack import (
    UsageError,
    VectorObservationSeries,
    apply_missing,
    gen_planar_path,
    gen_range_bearing,
    gen_scalar_rednoise,
    gen_two_sensor_bearings,
    planar_truth,
    rcond_1norm,
    two_bearings_to_position,
    SensorSite,
)


class TestScalarRednoise:
    def test_grid_is_unit_steps(self):
        sc = gen_scalar_rednoise(0)
        assert sc.times.size == 101
        assert np.array_equal(sc.times, np.arange(101.0))

    def test_determinism_bitwise(self):
        a = gen_scalar_rednoise(7)
        b = gen_scalar_rednoise(7)
        assert np.array_equal(a.truth, b.truth)
        assert np.array_equal(a.observations.values, b.observations.values)
        assert np.array_equal(a.observations.weights, b.observations.weights)

    def test_seeds_differ(self):
        assert not np.array_equal(
            gen_scalar_rednoise(0).observations.values,
            gen_scalar_rednoise(1).observations.values,
        )

    def test_noise_free_variant_is_pure_sinusoid(self):
        sc = gen_scalar_rednoise(0, noise_sd=0.0, drift_sd=0.0)
        expected = 25.0 + 10.0 * np.sin(sc.times / 15.0)
        assert np.abs(sc.truth - expected).max() == 0.0
        assert np.array_equal(sc.observations.values, sc.truth)

    def test_drift_starts_at_zero(self):
        sc = gen_scalar_rednoise(5, noise_sd=0.0)
        assert sc.truth[0] == 25.0

    def test_weights_are_inverse_variance(self):
        sc = gen_scalar_rednoise(0)
        assert np.all(sc.observations.weights == 1.0 / 9.0)

    def test_observation_noise_variance_monte_carlo(self):
        pooled = []
        for seed in range(100):
            sc = gen_scalar_rednoise(seed)
            pooled.extend(sc.observations.values - sc.truth)
        variance = float(np.var(pooled))
        assert abs(variance - 9.0) <= 0.05 * 9.0

    def test_drift_increment_variance_monte_carlo(self):
        pooled = []
        for seed in range(100):
            sc = gen_scalar_rednoise(seed, noise_sd=0.0)
            smooth = 25.0 + 10.0 * np.sin(sc.times / 15.0)
            pooled.extend(np.diff(sc.truth - smooth))
        variance = float(np.var(pooled))
        assert abs(variance - 1.0) <= 0.05

    def test_parameters_json_serializable(self):
        params = gen_scalar_rednoise(3).parameters()
        assert json.loads(json.dumps(params)) == dict(params)


class TestPlanarPath:
    def test_t1_fixed_point(self):
        point = planar_truth(np.array([1.0]))[0]
        assert point == pytest.approx([-0.6, -0.6], abs=1e-15)

    def test_formula_components(self):
        times = np.array([0.0, 31.0, 150.0])
        truth = planar_truth(times)
        base = 10.0 * (times - 10.0) / 150.0
        amp = (1.0 - times) / 3.0
        expected_x = base + amp * np.sin(times / 15.0)
        expected_y = base + amp * (2.0 - times / 15.0)
        assert np.abs(truth[:, 0] - expected_x).max() <= 1e-12
        assert np.abs(truth[:, 1] - expected_y).max() <= 1e-12

    def test_grid_and_determinism(self):
        sc = gen_planar_path(2)
        assert sc.times.size == 151
        again = gen_planar_path(2)
        assert np.array_equal(sc.observations.values, again.observations.values)

    def test_noise_free_matches_truth(self):
        sc = gen_planar_path(0, noise_sd=0.0)
        assert np.abs(sc.observations.values - sc.truth).max() == 0.0

    def test_noise_sd_monte_carlo(self):
        pooled = []
        for seed in range(40):
            sc = gen_planar_path(seed)
            pooled.append(sc.observations.values - sc.truth)
        sd = float(np.std(np.concatenate(pooled).ravel()))
        assert abs(sd - 5.0) <= 0.05 * 5.0

    def test_informations_match_noise(self):
        sc = gen_planar_path(0)
        assert np.allclose(sc.observations.informations, np.eye(2) / 25.0)


class TestTwoSensorBearings:
    def test_endpoint_geometry(self):
        sc = gen_two_sensor_bearings(0)
        assert sc.site_a.at(0.0) == pytest.approx([-3.0, 3.0])
        assert sc.site_b.at(0.0) == pytest.approx([-3.0, -2.0])
        assert sc.site_a.at(100.0) == pytest.approx([3.0, 1.0])
        assert sc.site_b.at(100.0) == pytest.approx([3.0, -1.0])
        assert sc.truth[0] == pytest.approx([0.0, 1.0])
        assert sc.truth[-1] == pytest.approx([math.sin(4.0), math.cos(4.0)])

    def test_bearings_wrapped_and_noisy(self):
        sc = gen_two_sensor_bearings(1)
        assert np.all(sc.bearings > -math.pi)
        assert np.all(sc.bearings <= math.pi)
        clean = gen_two_sensor_bearings(1, bearing_noise_sd=0.0)
        spread = np.abs(sc.bearings - clean.bearings).max()
        assert 0.0 < spread < 0.1

    def test_noise_free_bearings_point_at_target(self):
        sc = gen_two_sensor_bearings(0, bearing_noise_sd=0.0)
        for i in (0, 50, 100):
            t = sc.times[i]
            offset = sc.truth[i] - np.asarray(sc.site_a.at(t))
            assert sc.bearings[i, 0] == pytest.approx(
                math.atan2(offset[1], offset[0]), abs=1e-12
            )

    def test_collinearity_minimum_in_lower_right_quadrant(self):
        sc = gen_two_sensor_bearings(0, bearing_noise_sd=0.0)
        weights = []
        for i, t in enumerate(sc.times):
            est = two_bearings_to_position(
                sc.site_a, sc.site_b,
                sc.bearings[i, 0], sc.bearings[i, 1],
                1e-4, 1e-4, time=float(t),
            )
            weights.append(est.weight)
        t_min = sc.times[int(np.argmin(weights))]
        # Target (sin(t/25), cos(t/25)) sits in the 4-5 o'clock sector when
        # t/25 in [2pi/3, 5pi/6].
        assert 52.0 <= t_min <= 66.0

    def test_determinism(self):
        a = gen_two_sensor_bearings(9)
        b = gen_two_sensor_bearings(9)
        assert np.array_equal(a.bearings, b.bearings)


class TestRangeBearing:
    def test_observes_planar_path(self):
        sc = gen_range_bearing(0)
        assert np.array_equal(sc.truth, planar_truth(sc.times))
        assert sc.times.size == 151

    def test_near_noiseless_fixes_recover_truth(self):
        sc = gen_range_bearing(0, bearing_noise_sd=1e-9, range_accuracy_ratio=1e-6)
        site = np.asarray(sc.site.position)
        for i in (0, 75, 150):
            obs = sc.observations[i]
            rebuilt = site + obs.distance * np.array(
                [math.cos(obs.bearing), math.sin(obs.bearing)]
            )
            assert np.abs(rebuilt - sc.truth[i]).max() <= 1e-5

    def test_range_noise_honors_accuracy_ratio(self):
        sc = gen_range_bearing(0)
        site = np.asarray(sc.site.position)
        mean_range = float(np.mean(np.hypot(*(sc.truth - site).T)))
        expected_sd = 0.1 * mean_range * 0.05
        assert sc.range_noise_sd == pytest.approx(expected_sd, rel=1e-12)

    def test_observations_positive_ranges(self):
        for seed in range(5):
            sc = gen_range_bearing(seed)
            assert all(o.distance > 0 for o in sc.observations)

    def test_determinism(self):
        a = gen_range_bearing(4)
        b = gen_range_bearing(4)
        assert all(
            x.distance == y.distance and x.bearing == y.bearing
            for x, y in zip(a.observations, b.observations)
        )


class TestApplyMissing:
    def test_fraction_zero_unchanged(self):
        obs = gen_scalar_rednoise(0).observations
        thinned, keep = apply_missing(obs, 0.0, 1)
        assert np.array_equal(thinned.values, obs.values)
        assert list(keep) == list(range(101))

    def test_seventy_five_percent_keeps_26(self):
        obs = gen_scalar_rednoise(0).observations
        thinned, keep = apply_missing(obs, 0.75, 3)
        assert len(keep) == 26
        assert thinned.values.size == 26
        assert keep[0] == 0
        assert keep[-1] == 100

    def test_endpoints_always_retained(self):
        obs = gen_scalar_rednoise(1).observations
        for seed in range(10):
            _, keep = apply_missing(obs, 0.9, seed)
            assert keep[0] == 0
            assert keep[-1] == 100

    def test_deterministic_pattern(self):
        obs = gen_scalar_rednoise(0).observations
        _, keep_a = apply_missing(obs, 0.75, 7)
        _, keep_b = apply_missing(obs, 0.75, 7)
        assert list(keep_a) == list(keep_b)

    def test_values_survive_subsetting(self):
        obs = gen_scalar_rednoise(2).observations
        thinned, keep = apply_missing(obs, 0.5, 2)
        idx = np.array(keep)
        assert np.array_equal(thinned.values, obs.values[idx])
        assert np.array_equal(thinned.grid.times, obs.grid.times[idx])

    def test_planar_series_keeps_values_and_informations(self):
        planar = gen_planar_path(4).observations
        # Distinct informations per sample, so a reordering would show.
        obs = VectorObservationSeries(
            grid=planar.grid, values=planar.values,
            informations=planar.informations * np.arange(1.0, 152.0)[:, None, None],
        )
        thinned, keep = apply_missing(obs, 0.5, 5)
        assert isinstance(thinned, VectorObservationSeries)
        assert len(keep) == 151 - 75
        assert keep[0] == 0
        assert keep[-1] == 150
        assert np.array_equal(thinned.grid.times, obs.grid.times[keep])
        assert np.array_equal(thinned.values, obs.values[keep])
        assert np.array_equal(thinned.informations, obs.informations[keep])

    def test_invalid_fraction_rejected(self):
        obs = gen_scalar_rednoise(0).observations
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(UsageError):
                apply_missing(obs, bad, 0)

    def test_overthinning_rejected(self):
        obs = gen_scalar_rednoise(0).observations
        with pytest.raises(UsageError):
            apply_missing(obs, 0.999, 0)
