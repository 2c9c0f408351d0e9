"""Sensor-to-Cartesian transforms, information propagation, condition weights."""

import math

import numpy as np
import pytest

from shadowtrack import (
    CoincidentSites,
    DataError,
    IndefiniteInformation,
    MODE_IGNORE_CORRELATION,
    MODE_PROPAGATE,
    NonSymmetricInformation,
    PROVENANCE_DROPPED,
    PROVENANCE_OBSERVED,
    PolarObservation,
    RangeTooSmall,
    RawPositionEstimate,
    SensorSite,
    ShapeMismatch,
    UsageError,
    VectorObservationSeries,
    build_time_grid,
    propagate_information,
    range_bearing_to_position,
    rcond_1norm,
    two_bearings_to_position,
    two_ranges_to_position,
    wrap_bearing,
)


def polar_jacobian(r, theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -r * s], [s, r * c]])


class TestWrapBearing:
    def test_principal_values(self):
        assert wrap_bearing(0.0) == 0.0
        assert wrap_bearing(math.pi) == pytest.approx(math.pi)
        assert wrap_bearing(-math.pi) == pytest.approx(math.pi)
        assert wrap_bearing(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_bearing(2 * math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_range_is_half_open(self):
        for theta in np.linspace(-10.0, 10.0, 101):
            w = wrap_bearing(theta)
            assert -math.pi < w <= math.pi
            assert math.cos(w) == pytest.approx(math.cos(theta), abs=1e-12)
            assert math.sin(w) == pytest.approx(math.sin(theta), abs=1e-12)


class TestRcond:
    def test_identity(self):
        assert rcond_1norm(np.eye(2)) == 1.0

    def test_singular(self):
        assert rcond_1norm(np.array([[1.0, 0.0], [0.0, 0.0]])) == 0.0

    def test_diagonal_half(self):
        assert rcond_1norm(np.diag([1.0, 0.5])) == pytest.approx(0.5, rel=1e-15)

    def test_matches_norm_definition(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            m = rng.standard_normal((2, 2))
            expected = 1.0 / (
                np.linalg.norm(m, 1) * np.linalg.norm(np.linalg.inv(m), 1)
            )
            assert rcond_1norm(m) == pytest.approx(min(1.0, expected), rel=1e-12)

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            w = rcond_1norm(rng.standard_normal((2, 2)))
            assert 0.0 <= w <= 1.0


class TestRangeBearing:
    def test_axis_case(self):
        est = range_bearing_to_position(
            SensorSite([0.0, 0.0]),
            PolarObservation(1.0, 0.0, 0.01, 0.01),
            MODE_IGNORE_CORRELATION,
        )
        assert est.position == pytest.approx([1.0, 0.0])
        assert est.weight == 1.0
        assert est.provenance == PROVENANCE_OBSERVED

    def test_round_trip(self):
        rng = np.random.default_rng(23)
        site = SensorSite([3.0, -2.0])
        for _ in range(50):
            r = rng.uniform(0.5, 50.0)
            theta = rng.uniform(-math.pi, math.pi)
            est = range_bearing_to_position(
                site, PolarObservation(r, theta, 0.01, 0.01), MODE_PROPAGATE
            )
            offset = np.asarray(est.position) - [3.0, -2.0]
            assert np.hypot(*offset) == pytest.approx(r, rel=1e-12)
            assert wrap_bearing(math.atan2(offset[1], offset[0])) == pytest.approx(
                wrap_bearing(theta), rel=1e-12, abs=1e-12
            )

    def test_jacobian_inverse_identity_on_grid(self):
        worst = 0.0
        for r in np.linspace(0.2, 20.0, 10):
            for theta in np.linspace(-math.pi + 0.01, math.pi, 10):
                jac = polar_jacobian(r, theta)
                k = np.linalg.inv(jac)
                worst = max(worst, np.abs(jac @ k - np.eye(2)).max())
        assert worst <= 1e-12

    def test_propagate_matches_covariance_inversion(self):
        site = SensorSite([0.0, 0.0])
        obs = PolarObservation(2.0, 0.7, 0.04, 0.01)
        est = range_bearing_to_position(site, obs, MODE_PROPAGATE)
        jac = polar_jacobian(2.0, 0.7)
        cov_polar = np.diag([0.04, 0.01])
        expected = np.linalg.inv(jac @ cov_polar @ jac.T)
        assert np.abs(np.asarray(est.information) - expected).max() <= 1e-9

    def test_ignore_correlation_uses_cartesian_diagonal(self):
        site = SensorSite([0.0, 0.0])
        obs = PolarObservation(2.0, 0.7, 0.04, 0.01)
        est = range_bearing_to_position(site, obs, MODE_IGNORE_CORRELATION)
        jac = polar_jacobian(2.0, 0.7)
        cov_cart = jac @ np.diag([0.04, 0.01]) @ jac.T
        expected = np.diag(1.0 / np.diag(cov_cart))
        info = np.asarray(est.information)
        assert info[0, 1] == 0.0
        assert np.abs(info - expected).max() <= 1e-9 * np.abs(expected).max()

    def test_information_quarters_when_sigmas_double(self):
        site = SensorSite([1.0, 1.0])
        for mode in (MODE_IGNORE_CORRELATION, MODE_PROPAGATE):
            base = range_bearing_to_position(
                site, PolarObservation(3.0, 1.1, 0.01, 0.0025), mode
            )
            doubled = range_bearing_to_position(
                site, PolarObservation(3.0, 1.1, 0.04, 0.01), mode
            )
            assert np.allclose(
                np.asarray(doubled.information),
                np.asarray(base.information) / 4.0,
                rtol=1e-12,
                atol=0,
            )

    def test_tiny_range_rejected(self):
        with pytest.raises(RangeTooSmall):
            range_bearing_to_position(
                SensorSite([0.0, 0.0]),
                PolarObservation(1e-12, 0.0, 0.01, 0.01),
                MODE_PROPAGATE,
            )

    def test_moving_site_evaluated_at_time(self):
        site = SensorSite([0.0, 0.0], path=lambda t: np.array([t, 2.0 * t]))
        est = range_bearing_to_position(
            site, PolarObservation(1.0, 0.0, 0.01, 0.01), MODE_PROPAGATE, time=3.0
        )
        assert est.position == pytest.approx([4.0, 6.0])


class TestTwoBearings:
    def test_symmetric_triangulation(self):
        est = two_bearings_to_position(
            SensorSite([0.0, 0.0]),
            SensorSite([1.0, 0.0]),
            math.pi / 4,
            3 * math.pi / 4,
            1e-4,
            1e-4,
        )
        assert np.abs(np.asarray(est.position) - [0.5, 0.5]).max() <= 1e-12
        assert est.provenance == PROVENANCE_OBSERVED

    def test_collinear_is_dropped(self):
        est = two_bearings_to_position(
            SensorSite([0.0, 0.0]), SensorSite([1.0, 0.0]), 0.0, 0.0, 1e-4, 1e-4
        )
        assert est.provenance == PROVENANCE_DROPPED
        assert est.weight == 0.0
        assert np.all(np.asarray(est.information) == 0.0)

    def test_fix_on_a_site_is_dropped(self):
        # The ray from b points back at a, so the rays meet on site a.
        est = two_bearings_to_position(
            [0.0, 0.0], [1.0, 0.0], math.pi / 2, math.pi, 1e-4, 1e-4
        )
        assert est.provenance == PROVENANCE_DROPPED
        assert est.weight == 0.0
        assert np.all(np.asarray(est.information) == 0.0)
        assert est.position == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_jacobian_matches_finite_differences(self):
        a = np.array([0.0, 0.0])
        b = np.array([1.0, 0.0])
        x = np.array([0.3, 0.7])

        def bearings(point):
            return np.array([
                math.atan2(point[1] - a[1], point[0] - a[0]),
                math.atan2(point[1] - b[1], point[0] - b[0]),
            ])

        eps = 1e-6
        fd = np.empty((2, 2))
        for col in range(2):
            step = np.zeros(2)
            step[col] = eps
            fd[:, col] = (bearings(x + step) - bearings(x - step)) / (2 * eps)

        r2_a = np.sum((x - a) ** 2)
        r2_b = np.sum((x - b) ** 2)
        analytic = np.array([
            [-(x[1] - a[1]) / r2_a, (x[0] - a[0]) / r2_a],
            [-(x[1] - b[1]) / r2_b, (x[0] - b[0]) / r2_b],
        ])
        assert np.abs(analytic - fd).max() <= 1e-6

        theta_a, theta_b = bearings(x)
        est = two_bearings_to_position(
            SensorSite(a), SensorSite(b), theta_a, theta_b, 1.0, 1.0
        )
        expected_info = est.weight * (analytic.T @ analytic)
        assert np.abs(np.asarray(est.information) - expected_info).max() <= 1e-9

    def test_solution_lies_on_both_rays(self):
        rng = np.random.default_rng(24)
        site_a = SensorSite([-2.0, 1.0])
        site_b = SensorSite([3.0, -1.0])
        for _ in range(50):
            target = rng.uniform(-5.0, 5.0, 2)
            theta_a = math.atan2(target[1] - 1.0, target[0] + 2.0)
            theta_b = math.atan2(target[1] + 1.0, target[0] - 3.0)
            est = two_bearings_to_position(site_a, site_b, theta_a, theta_b, 1e-4, 1e-4)
            if est.weight <= 1e-6:
                continue
            p = np.asarray(est.position)
            cross_a = (p[0] + 2.0) * math.sin(theta_a) - (p[1] - 1.0) * math.cos(theta_a)
            cross_b = (p[0] - 3.0) * math.sin(theta_b) - (p[1] + 1.0) * math.cos(theta_b)
            assert abs(cross_a) <= 1e-9 * max(1.0, np.abs(p).max())
            assert abs(cross_b) <= 1e-9 * max(1.0, np.abs(p).max())

    def test_weight_stable_under_rotation(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            a = rng.uniform(-3.0, 3.0, 2)
            b = rng.uniform(-3.0, 3.0, 2)
            if np.allclose(a, b):
                continue
            target = rng.uniform(-3.0, 3.0, 2)
            phi = rng.uniform(0.0, 2 * math.pi)
            rot = np.array([
                [math.cos(phi), -math.sin(phi)],
                [math.sin(phi), math.cos(phi)],
            ])

            def fix(sa, sb, tgt):
                ta = math.atan2(tgt[1] - sa[1], tgt[0] - sa[0])
                tb = math.atan2(tgt[1] - sb[1], tgt[0] - sb[0])
                return two_bearings_to_position(
                    SensorSite(sa), SensorSite(sb), ta, tb, 1e-4, 1e-4
                )

            base = fix(a, b, target)
            turned = fix(rot @ a, rot @ b, rot @ target)
            if base.weight < 1e-9:
                assert turned.weight < 1e-6
                continue
            ratio = turned.weight / base.weight
            assert 0.5 <= ratio <= 2.0

    def test_coincident_sites_rejected(self):
        with pytest.raises(CoincidentSites):
            two_bearings_to_position(
                SensorSite([1.0, 1.0]), SensorSite([1.0, 1.0]), 0.1, 0.2, 1e-4, 1e-4
            )

    def test_moving_sites(self):
        site_a = SensorSite([0.0, 0.0], path=lambda t: np.array([t, 0.0]))
        site_b = SensorSite([0.0, 0.0], path=lambda t: np.array([t + 1.0, 0.0]))
        est = two_bearings_to_position(
            site_a, site_b, math.pi / 4, 3 * math.pi / 4, 1e-4, 1e-4, time=2.0
        )
        assert np.abs(np.asarray(est.position) - [2.5, 0.5]).max() <= 1e-12


class TestTwoRanges:
    def test_symmetric_trilateration(self):
        est = two_ranges_to_position(
            SensorSite([0.0, 0.0]),
            SensorSite([2.0, 0.0]),
            math.sqrt(2.0),
            math.sqrt(2.0),
            [0.0, 1.0],
        )
        assert np.abs(np.asarray(est.position) - [1.0, 1.0]).max() <= 1e-12
        assert est.provenance == PROVENANCE_OBSERVED

    def test_disambiguator_selects_nearer_intersection(self):
        args = (
            SensorSite([0.0, 0.0]),
            SensorSite([2.0, 0.0]),
            math.sqrt(2.0),
            math.sqrt(2.0),
        )
        upper = two_ranges_to_position(*args, [0.0, 1.0])
        lower = two_ranges_to_position(*args, [0.0, -1.0])
        assert upper.position[1] == pytest.approx(1.0)
        assert lower.position[1] == pytest.approx(-1.0)

    @pytest.mark.parametrize("disambiguator", [[math.inf, 0.0], [0.0, math.nan]])
    def test_non_finite_disambiguator_rejected(self, disambiguator):
        with pytest.raises(DataError, match="disambiguator must be finite"):
            two_ranges_to_position(SensorSite([0.0, 0.0]), SensorSite([2.0, 0.0]),
                                   1.5, 1.5, disambiguator)

    def test_tangent_circles_drop_with_zero_weight(self):
        est = two_ranges_to_position(
            SensorSite([0.0, 0.0]), SensorSite([2.0, 0.0]), 1.0, 1.0, [0.0, 1.0]
        )
        assert est.position == pytest.approx([1.0, 0.0])
        assert est.weight <= 1e-6
        assert est.provenance == PROVENANCE_DROPPED

    def test_disjoint_circles_dropped_with_clamped_position(self):
        est = two_ranges_to_position(
            SensorSite([0.0, 0.0]), SensorSite([2.0, 0.0]), 0.4, 0.4, [0.0, 1.0]
        )
        assert est.provenance == PROVENANCE_DROPPED
        assert est.position == pytest.approx([1.0, 0.0])
        assert np.all(np.asarray(est.information) == 0.0)

    def test_fix_on_a_site_is_dropped(self):
        est = two_ranges_to_position(
            SensorSite([0.0, 0.0]), SensorSite([4.0, 0.0]), 1e-12, 4.0, [0.0, 1.0]
        )
        assert est.provenance == PROVENANCE_DROPPED
        assert est.weight == 0.0
        assert np.all(np.asarray(est.information) == 0.0)
        assert est.position == pytest.approx([0.0, 0.0], abs=1e-11)

    def test_information_from_unit_offsets(self):
        site_a = np.array([0.0, 0.0])
        site_b = np.array([2.0, 0.0])
        est = two_ranges_to_position(
            SensorSite(site_a),
            SensorSite(site_b),
            math.sqrt(2.0),
            math.sqrt(2.0),
            [0.0, 1.0],
            variance_a=0.04,
            variance_b=0.09,
        )
        p = np.asarray(est.position)
        k = np.vstack([
            (p - site_a) / np.linalg.norm(p - site_a),
            (p - site_b) / np.linalg.norm(p - site_b),
        ])
        expected = k.T @ np.diag([1 / 0.04, 1 / 0.09]) @ k
        assert np.abs(np.asarray(est.information) - expected).max() <= 1e-9
        assert est.weight == pytest.approx(rcond_1norm(k), rel=1e-12)

    def test_round_trip_random_targets(self):
        rng = np.random.default_rng(26)
        site_a = np.array([-1.0, 0.5])
        site_b = np.array([2.0, -0.5])
        for _ in range(50):
            target = rng.uniform(-4.0, 4.0, 2)
            r_a = np.linalg.norm(target - site_a)
            r_b = np.linalg.norm(target - site_b)
            est = two_ranges_to_position(
                SensorSite(site_a), SensorSite(site_b), r_a, r_b, target + rng.uniform(-0.3, 0.3, 2)
            )
            if est.provenance == PROVENANCE_DROPPED:
                continue
            assert np.abs(np.asarray(est.position) - target).max() <= 1e-9

    def test_coincident_sites_rejected(self):
        with pytest.raises(CoincidentSites):
            two_ranges_to_position(
                SensorSite([0.0, 0.0]), SensorSite([0.0, 0.0]), 1.0, 1.0, [0.0, 0.0]
            )


class TestPropagateInformation:
    def test_identity_jacobian(self):
        info = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert np.array_equal(propagate_information(np.eye(2), info), info)

    def test_diagonal_jacobian(self):
        out = propagate_information(np.diag([2.0, 3.0]), np.eye(2))
        assert np.allclose(out, np.diag([4.0, 9.0]), rtol=0, atol=1e-15)

    def test_consistency_with_covariance_route(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            k = rng.standard_normal((2, 2))
            if abs(np.linalg.det(k)) < 0.1:
                continue
            cov_q = np.diag(rng.uniform(0.1, 2.0, 2))
            via_k = propagate_information(k, np.linalg.inv(cov_q))
            jac = np.linalg.inv(k)
            via_cov = np.linalg.inv(jac @ cov_q @ jac.T)
            assert np.abs(via_k - via_cov).max() <= 1e-9 * np.abs(via_cov).max()

    def test_output_exactly_symmetric(self):
        k = np.array([[1.0, 2.0], [0.5, -1.0]])
        info = np.array([[3.0, 0.2], [0.2, 1.0]])
        out = propagate_information(k, info)
        assert np.array_equal(out, out.T)


class TestRawPositionEstimate:
    def test_fields_and_usable(self):
        est = RawPositionEstimate(
            position=[1.0, 2.0],
            information=np.eye(2),
            weight=0.7,
            provenance=PROVENANCE_OBSERVED,
        )
        assert est.dim == 2
        assert est.usable
        assert est.weight == 0.7

    def test_dropped_estimate_not_usable(self):
        est = RawPositionEstimate(
            position=[0.0, 0.0],
            information=np.zeros((2, 2)),
            weight=0.0,
            provenance=PROVENANCE_DROPPED,
        )
        assert not est.usable

    def test_asymmetric_information_rejected(self):
        with pytest.raises(NonSymmetricInformation):
            RawPositionEstimate(
                position=[0.0, 0.0],
                information=np.array([[1.0, 0.5], [0.1, 1.0]]),
                weight=1.0,
                provenance=PROVENANCE_OBSERVED,
            )

    @pytest.mark.parametrize("information, error", [
        # Asymmetric by 1e-10 of its largest entry, past the 1e-12 of the one rule.
        (np.array([[1.0, 0.5], [0.5 + 1e-10, 1.0]]), NonSymmetricInformation),
        (np.diag([1.0, -1.0]), IndefiniteInformation),
    ], ids=["asymmetric", "indefinite"])
    def test_information_judged_by_the_series_rule(self, information, error):
        with pytest.raises(error, match="of this estimate"):
            RawPositionEstimate(position=[0.0, 0.0], information=information, weight=1.0,
                                provenance=PROVENANCE_OBSERVED)
        infos = np.stack([information, np.eye(2), np.eye(2)])
        with pytest.raises(error):
            VectorObservationSeries(grid=build_time_grid([0.0, 1.0, 2.0]),
                                    values=np.zeros((3, 2)), informations=infos)

    @pytest.mark.parametrize("information", [
        [[4.0, 1.0], [1.0 + 1e-13, 2.0]], [[1.0, 1.0], [1.0, 1.0]], np.zeros((2, 2)),
    ], ids=["rounding-skew", "singular", "zero"])
    def test_root_has_the_information_as_gram(self, information):
        est = RawPositionEstimate(position=[0.0, 0.0], information=information, weight=1.0,
                                  provenance=PROVENANCE_OBSERVED)
        info = np.asarray(information, dtype=float)
        assert np.array_equal(est.information, 0.5 * (info + info.T))
        gram = est.root.T @ est.root
        assert np.abs(gram - est.information).max() <= 1e-15 * (1.0 + np.abs(info).max())
        assert not est.root.flags.writeable
        assert "root" not in repr(est)

    def test_weight_outside_unit_interval_rejected(self):
        for bad in (1.5, -0.1, float("nan")):
            with pytest.raises(DataError) as caught:
                RawPositionEstimate(
                    position=[0.0, 0.0],
                    information=np.eye(2),
                    weight=bad,
                    provenance=PROVENANCE_OBSERVED,
                )
            assert caught.value.argument == "weight"

    def test_weight_rounding_fuzz_clamped(self):
        est = RawPositionEstimate(
            position=[0.0, 0.0],
            information=np.eye(2),
            weight=1.0 + 1e-13,
            provenance=PROVENANCE_OBSERVED,
        )
        assert est.weight == 1.0

    def test_unknown_provenance_rejected(self):
        with pytest.raises(DataError, match="guessed") as caught:
            RawPositionEstimate(
                position=[0.0, 0.0],
                information=np.eye(2),
                weight=1.0,
                provenance="guessed",
            )
        assert caught.value.argument == "provenance"


def estimate(position=(0.0, 0.0), information=((1.0, 0.0), (0.0, 1.0))):
    return RawPositionEstimate(position=position, information=information, weight=1.0,
                               provenance=PROVENANCE_OBSERVED)


def site_at(value):
    return SensorSite([0.0, 0.0], path=lambda t: value).at(1.0)


class TestRejections:
    """Every argument check raises its documented error, naming the argument."""

    @pytest.mark.parametrize("call, error, match", [
        (lambda: wrap_bearing(math.nan), DataError, "bearing must be finite"),
        (lambda: wrap_bearing(-math.inf), DataError, "bearing must be finite"),
        (lambda: SensorSite([0.0, 0.0, 0.0]), ShapeMismatch, r"shape \(2,\)"),
        (lambda: SensorSite([[0.0, 0.0]]), ShapeMismatch, r"shape \(2,\)"),
        (lambda: SensorSite([0.0, math.inf]), DataError, "site position must be finite"),
        (lambda: site_at([1.0]), ShapeMismatch, "site path value"),
        (lambda: site_at([math.nan, 1.0]), DataError, "site path value must be finite"),
        (lambda: estimate(position=[[0.0, 0.0]]), ShapeMismatch, "1-D vector"),
        (lambda: estimate(position=[]), ShapeMismatch, "1-D vector"),
        (lambda: estimate(position=[0.0, math.nan]), DataError, "position must be finite"),
        (lambda: estimate(information=np.eye(3)), ShapeMismatch, "information must have"),
        (lambda: estimate(information=[[1.0, 0.0], [0.0, math.inf]]), DataError,
         "information matrix must be finite"),
        (lambda: rcond_1norm(np.eye(3)), ShapeMismatch, "2x2"),
        (lambda: rcond_1norm([1.0, 2.0, 3.0, 4.0]), ShapeMismatch, "2x2"),
        (lambda: rcond_1norm([[1.0, math.nan], [0.0, 1.0]]), DataError, "finite"),
        (lambda: propagate_information(np.ones((2, 3)), np.eye(2)), ShapeMismatch,
         "jacobian must be square"),
        (lambda: propagate_information(np.eye(2), np.eye(3)), ShapeMismatch,
         "does not match"),
        (lambda: propagate_information([[1.0, math.inf], [0.0, 1.0]], np.eye(2)),
         DataError, "must be finite"),
        (lambda: propagate_information(np.eye(2), [[math.nan, 0.0], [0.0, 1.0]]),
         DataError, "must be finite"),
        (lambda: range_bearing_to_position([0.0, 0.0], PolarObservation(1.0, 0.0, 1.0, 1.0),
                                           "cartesian"), UsageError, "mode must be"),
    ])
    def test_rejected(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    @pytest.mark.parametrize("fields, argument", [
        ((0.0, 0.1, 0.01, 0.01), "distance"),
        ((-1.0, 0.1, 0.01, 0.01), "distance"),
        ((math.nan, 0.1, 0.01, 0.01), "distance"),
        ((1.0, 0.1, 0.0, 0.01), "distance_variance"),
        ((1.0, 0.1, math.inf, 0.01), "distance_variance"),
        ((1.0, 0.1, 0.01, -1.0), "bearing_variance"),
        ((1.0, 0.1, 0.01, math.nan), "bearing_variance"),
    ])
    def test_polar_observation_names_its_field(self, fields, argument):
        with pytest.raises(DataError) as caught:
            PolarObservation(*fields)
        assert caught.value.argument == argument

    @pytest.mark.parametrize("ranges, variances, argument", [
        ((0.0, 3.0), (1.0, 1.0), "range_a"),
        ((2.0, -2.0), (1.0, 1.0), "range_b"),
        ((math.inf, 3.0), (1.0, 1.0), "range_a"),
        ((2.0, 3.0), (0.0, 1.0), "variance_a"),
        ((2.0, 3.0), (1.0, -1.0), "variance_b"),
    ])
    def test_two_ranges_names_the_bad_argument(self, ranges, variances, argument):
        with pytest.raises(DataError, match="must be finite and positive") as caught:
            two_ranges_to_position([0.0, 0.0], [4.0, 0.0], *ranges, [2.0, 1.0],
                                   variance_a=variances[0], variance_b=variances[1])
        assert caught.value.argument == argument

    @pytest.mark.parametrize("ranges, sites, argument", [
        ((1e200, 1e200), ([0.0, 0.0], [4.0, 0.0]), "range_a"),
        ((1.0, 1e200), ([0.0, 0.0], [4.0, 0.0]), "range_b"),
        ((1.0, 2.0), ([0.0, 0.0], [1e200, 0.0]), None),
    ])
    def test_two_ranges_overflow_is_a_data_error(self, ranges, sites, argument):
        """Squaring a length past about 1e154 overflows; that is bad data, not a crash."""
        with pytest.raises(DataError, match="overflow the circle intersection") as caught:
            two_ranges_to_position(*sites, *ranges, [2.0, 1.0])
        assert caught.value.argument == argument

    @pytest.mark.parametrize("variances, argument", [
        ((0.0, 1.0), "variance_a"), ((1.0, math.nan), "variance_b"),
    ])
    def test_two_bearings_names_the_bad_variance(self, variances, argument):
        with pytest.raises(DataError, match="bearing variance") as caught:
            two_bearings_to_position([0.0, 0.0], [4.0, 0.0], 0.5, 2.5, *variances)
        assert caught.value.argument == argument
