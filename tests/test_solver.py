"""Batch solver behavior against closed forms and the dense stationarity oracle."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from shadowtrack import (
    BracketDoesNotStraddle,
    DataError,
    DegenerateWeights,
    MaxIterations,
    NonPositiveEta,
    NonSymmetricInformation,
    ScalarObservationSeries,
    ShapeMismatch,
    SingularSystem,
    TimeGrid,
    TimeOutOfRange,
    PolarObservation,
    TooFewPoints,
    UsageError,
    VectorObservationSeries,
    build_filter_matrices,
    build_time_grid,
    evaluate_spline,
    evaluate_spline_velocity,
    gen_planar_path,
    gen_scalar_rednoise,
    oracle_residuals,
    range_bearing_to_position,
    rms_acceleration,
    search_eta,
    solve_kkt_oracle,
    solve_scalar,
    solve_vector,
)
from shadowtrack import solver
from shadowtrack.series import _symmetrized
from shadowtrack.solver import ShadowingTrajectory

# Singular values below this fraction of the largest count as zero in the
# dense references, guarding against rank collapse from placeholder rows.
SVD_CUTOFF = 1e-12


def scalar_series(times, values, weights=None):
    grid = build_time_grid(times)
    values = np.asarray(values, dtype=float)
    if weights is None:
        weights = np.ones_like(values)
    return ScalarObservationSeries(grid=grid, values=values, weights=np.asarray(weights, dtype=float))


def random_series(rng, n=10, tau_range=(7.0, 9.0), weight=25.0, noise=0.08):
    taus = rng.uniform(*tau_range, size=n)
    times = np.concatenate([[0.0], np.cumsum(taus)])
    values = 10.0 * np.sin(times / 25.0) + 0.2 * times + noise * rng.standard_normal(n + 1)
    return scalar_series(times, values, np.full(n + 1, weight))


def kronecker_reference_positions(obs, eta, time_reversed):
    """Planar positions from the Kronecker-expanded, block-diagonal system.

    Every scalar coupling is expanded to a d-by-d identity block and the
    informations form one dense block-diagonal metric; the null-space
    coefficients minimize the metric-weighted residual. The reversed
    orientation builds the forward blocks on the reversed gaps and flips
    their rows and columns back, without mirroring the data.
    """
    m, d = obs.values.shape
    if time_reversed:
        rev = build_filter_matrices(
            TimeGrid(times=-obs.grid.times[::-1], taus=obs.grid.taus[::-1])
        )
        a_bar = np.vstack([rev.A[::-1, ::-1], np.ones((1, m))])
        b_bar = np.vstack([rev.B[::-1, ::-1], np.zeros((1, m))])
    else:
        fm = build_filter_matrices(obs.grid)
        a_bar, b_bar = fm.a_bar, fm.b_bar
    W = np.zeros((m * d, m * d))
    for j in range(m):
        W[j * d:(j + 1) * d, j * d:(j + 1) * d] = obs.informations[j]
    a_hat = np.kron(a_bar, np.eye(d))
    stacked = obs.values.reshape(-1)
    C = a_hat @ W + eta * np.kron(b_bar, np.eye(d))
    rhs = a_hat @ (W @ stacked)
    U, s, Vt = np.linalg.svd(C)
    rank = int(np.sum(s > SVD_CUTOFF * s[0]))
    p = Vt[:rank].T @ ((U.T @ rhs)[:rank] / s[:rank])
    null = Vt[rank:].T
    alpha = np.linalg.lstsq(null.T @ W @ null, null.T @ W @ (stacked - p), rcond=None)[0]
    return (p + null @ alpha).reshape(m, d)


def dense_reference(grid, values, infos, eta, time_reversed):
    """Positions, accelerations and rank from a dense SVD of the master system.

    This is the formulation the structured solve replaced: the d-by-d
    blocks a_bar[i, j] W_j + eta b_bar[i, j] I_d are formed densely, the
    SVD gives a particular solution and a null basis (directions under
    SVD_CUTOFF count as null), and the null coefficients minimize the
    information-weighted residual. Accelerations come from the
    acceleration core. The reversed orientation is the forward solve on
    mirrored time. Cubic in time and quadratic in memory.
    """
    m, d = values.shape
    if time_reversed:
        grid = TimeGrid(times=-grid.times[::-1], taus=grid.taus[::-1])
        values, infos = values[::-1], infos[::-1]

    def weigh(stacked):
        blocks = stacked.reshape(m, d, -1)
        return np.einsum("jab,jbk->jak", infos, blocks).reshape(stacked.shape)

    fm = build_filter_matrices(grid)
    C = (fm.a_bar[:, None, :, None] * infos.transpose(1, 0, 2)[None]
         + eta * fm.b_bar[:, None, :, None] * np.eye(d)[None, :, None, :])
    C = C.reshape(-1, m * d)
    rhs = (fm.a_bar @ weigh(values)).reshape(-1)
    U, s, Vt = np.linalg.svd(C, full_matrices=True)
    rank = int(np.sum(s > SVD_CUTOFF * s[0]))
    p = Vt[:rank].T @ ((U.T @ rhs)[:rank] / s[:rank])
    null = Vt[rank:].T
    alpha = np.linalg.lstsq(null.T @ weigh(null), null.T @ weigh(values.reshape(-1) - p),
                            rcond=None)[0]
    p = (p + null @ alpha).reshape(m, d)
    a = fm.accel_core @ weigh(values - p) / (2.0 * eta)
    if time_reversed:
        p, a = p[::-1], a[::-1]
    return p, a, rank


def weighted_line_fit(times, values, weights):
    design = np.column_stack([np.ones_like(times), times])
    wd = design * weights[:, None]
    coef = np.linalg.solve(design.T @ wd, wd.T @ values)
    return design @ coef


class TestAffineExactness:
    @pytest.mark.parametrize("eta", [0.1, 1.0, 1e3])
    def test_line_is_reproduced_with_zero_acceleration(self, eta):
        times = np.array([0.0, 1.0, 2.5, 4.0, 7.0, 11.0])
        values = 2.0 + 3.0 * times
        traj = solve_scalar(scalar_series(times, values), eta)
        scale = np.abs(values).max()
        assert np.abs(traj.positions - values).max() <= 1e-12 * scale
        assert np.abs(traj.accelerations).max() <= 1e-12
        assert np.abs(traj.velocities - 3.0).max() <= 1e-10

    def test_constant_data(self):
        times = np.linspace(0.0, 9.0, 10)
        traj = solve_scalar(scalar_series(times, np.full(10, 4.5)), 10.0)
        assert np.abs(traj.positions - 4.5).max() <= 1e-12
        assert np.abs(traj.velocities).max() <= 1e-12

    def test_nonuniform_weights_keep_exactness(self):
        rng = np.random.default_rng(3)
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 3.0, 7))])
        values = -1.0 + 0.8 * times
        weights = rng.uniform(0.2, 5.0, 8)
        traj = solve_scalar(scalar_series(times, values, weights), 1.0)
        assert np.abs(traj.positions - values).max() <= 1e-10 * np.abs(values).max()


class TestLargeEtaLimit:
    def test_matches_weighted_line_fit(self):
        rng = np.random.default_rng(12)
        times = np.linspace(0.0, 40.0, 21)
        values = 5.0 * np.sin(times / 6.0) + rng.standard_normal(21)
        weights = rng.uniform(0.5, 4.0, 21)
        traj = solve_scalar(scalar_series(times, values, weights), 1e8)
        fit = weighted_line_fit(times, values, weights)
        scale = np.abs(fit).max()
        assert np.abs(traj.positions - fit).max() <= 1e-3 * scale
        assert np.abs(traj.accelerations).max() <= 1e-5


class TestOracleAgreement:
    def test_interior_positions_match_oracle(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(20):
            obs = random_series(rng)
            traj = solve_scalar(obs, 1.0)
            oracle = solve_kkt_oracle(obs, 1.0)
            scale = max(1.0, np.abs(oracle.positions).max())
            worst = max(
                worst,
                float(np.abs(traj.positions - oracle.positions)[3:].max() / scale),
            )
        assert worst <= 1e-3

    def test_interior_accelerations_match_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            obs = random_series(rng)
            traj = solve_scalar(obs, 1.0)
            oracle = solve_kkt_oracle(obs, 1.0)
            diff = np.abs(traj.accelerations - oracle.accelerations)[3:]
            assert diff.max() <= 1e-2 * max(1.0, np.abs(oracle.accelerations).max())

    def test_oracle_stationarity_residuals(self):
        rng = np.random.default_rng(44)
        obs = random_series(rng, n=12)
        oracle = solve_kkt_oracle(obs, 2.0)
        residuals = oracle_residuals(oracle, obs)
        for name, value in residuals.items():
            assert value <= 1e-9, name

    def test_oracle_full_weighted_residual_sum_vanishes(self):
        rng = np.random.default_rng(45)
        obs = random_series(rng, n=8)
        oracle = solve_kkt_oracle(obs, 1.5)
        total = float(np.sum(obs.weights * (obs.values - oracle.positions)))
        assert abs(total) <= 1e-9 * float(np.sum(obs.weights * np.abs(obs.values)))

    def test_oracle_on_linear_data_is_exact_with_zero_duals(self):
        times = np.linspace(0.0, 10.0, 8)
        obs = scalar_series(times, 1.0 + 2.0 * times)
        oracle = solve_kkt_oracle(obs, 1.0)
        assert np.abs(oracle.positions - obs.values).max() <= 1e-9
        assert np.abs(oracle.accelerations).max() <= 1e-9
        assert np.abs(oracle.lambdas).max() <= 1e-9
        assert np.abs(oracle.mus).max() <= 1e-9

    def test_oracle_positions_solve_master_system(self):
        rng = np.random.default_rng(46)
        obs = random_series(rng, n=9)
        eta = 1.0
        fm = build_filter_matrices(obs.grid)
        oracle = solve_kkt_oracle(obs, eta)
        info = np.diag(obs.weights)
        lhs = (fm.a_bar @ info + eta * fm.b_bar) @ oracle.positions
        rhs = fm.a_bar @ info @ obs.values
        assert np.abs(lhs - rhs).max() <= 1e-8 * max(1.0, np.abs(rhs).max())


class TestSolveInvariants:
    def test_dynamics_consistency(self):
        rng = np.random.default_rng(5)
        obs = random_series(rng, n=15, noise=0.5)
        traj = solve_scalar(obs, 12.0)
        taus = obs.grid.taus
        p, v, a = traj.positions, traj.velocities, traj.accelerations
        scale = max(1.0, np.abs(p).max())
        step = p[:-1] + v[:-1] * taus + 0.5 * a * taus**2
        assert np.abs(step - p[1:]).max() <= 1e-8 * scale
        vel_step = v[:-1] + a * taus
        assert np.abs(vel_step - v[1:]).max() <= 1e-8 * max(1.0, np.abs(v).max())

    def test_extended_constraint_satisfied(self):
        rng = np.random.default_rng(6)
        for eta in (0.5, 50.0, 5e3):
            obs = random_series(rng, n=12, noise=1.0)
            traj = solve_scalar(obs, eta)
            total = float(np.sum(obs.weights * (obs.values - traj.positions)))
            bound = 1e-8 * float(np.sum(obs.weights * np.abs(obs.values)))
            assert abs(total) <= bound

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(7)
        obs = random_series(rng)
        first = solve_scalar(obs, 3.0)
        second = solve_scalar(obs, 3.0)
        assert np.array_equal(first.positions, second.positions)
        assert np.array_equal(first.velocities, second.velocities)
        assert np.array_equal(first.accelerations, second.accelerations)

    def test_zero_weight_rows_are_ignored(self):
        times = np.linspace(0.0, 20.0, 11)
        rng = np.random.default_rng(8)
        values = np.sin(times) + 0.1 * rng.standard_normal(11)
        weights = np.ones(11)
        weights[4] = 0.0
        spiked = values.copy()
        spiked[4] = 1e6
        base = solve_scalar(scalar_series(times, values, weights), 10.0)
        spik = solve_scalar(scalar_series(times, spiked, weights), 10.0)
        assert np.abs(base.positions - spik.positions).max() <= 1e-9

    @pytest.mark.parametrize("dim", [1, 2])
    def test_zero_information_values_never_reach_the_solve(self, dim):
        """A zero-information slot's value, 0 or +-1e9, leaves the solve bitwise equal."""
        rng = np.random.default_rng(20 + dim)
        n = 40
        times = np.concatenate([[0.0], np.cumsum(10.0 ** rng.uniform(-1.0, 1.0, n - 1))])
        roots = rng.standard_normal((n, dim, dim))
        infos = roots @ np.swapaxes(roots, 1, 2) + 0.1 * np.eye(dim)
        empty = rng.random(n) < 0.3
        infos[empty] = 0.0
        values = rng.standard_normal((n, dim))
        fits = []
        for filler in (0.0, 1e9, -1e9):
            values[empty] = filler
            grid = build_time_grid(times)
            if dim == 1:
                obs = ScalarObservationSeries(grid=grid, values=values[:, 0],
                                              weights=infos[:, 0, 0])
                fits.append(solve_scalar(obs, 3.0))
            else:
                obs = VectorObservationSeries(grid=grid, values=values, informations=infos)
                fits.append(solve_vector(obs, 3.0))
        for fit in fits[1:]:
            for name in ("positions", "velocities", "accelerations"):
                assert getattr(fit, name).tobytes() == getattr(fits[0], name).tobytes()
            assert fit.residual_norm == fits[0].residual_norm

    def test_monotone_weighted_error_in_eta(self):
        obs = gen_scalar_rednoise(0).observations
        prev = -1.0
        for eta in (1e-2, 1.0, 1e2, 1e4):
            traj = solve_scalar(obs, eta)
            err = float(np.sum(obs.weights * (obs.values - traj.positions) ** 2))
            assert err >= prev - 1e-12
            prev = err


class TestTimeReversal:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_reversal_equivalence_on_random_instances(self, dim):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(5, 14))
            taus = rng.uniform(0.5, 3.0, n)
            times = np.concatenate([[0.0], np.cumsum(taus)])
            flipped_times = times[-1] - times[::-1]
            if dim == 1:
                values = rng.standard_normal(n + 1) * 3.0
                weights = rng.uniform(0.5, 2.0, n + 1)
                obs = scalar_series(times, values, weights)
                flipped = scalar_series(flipped_times, values[::-1], weights[::-1])
                solve = solve_scalar
            else:
                # Varying, correlated informations with two placeholder slots.
                values = rng.standard_normal((n + 1, 2)) * 3.0
                factors = rng.standard_normal((n + 1, 2, 2))
                infos = factors @ factors.transpose(0, 2, 1) + 0.1 * np.eye(2)
                infos[rng.choice(np.arange(1, n), 2, replace=False)] = 0.0
                obs = VectorObservationSeries(
                    grid=build_time_grid(times), values=values, informations=infos
                )
                flipped = VectorObservationSeries(
                    grid=build_time_grid(flipped_times), values=values[::-1],
                    informations=infos[::-1],
                )
                solve = solve_vector
            direct = solve(obs, 4.0, time_reversed=True)
            roundabout = solve(flipped, 4.0, time_reversed=False)
            scale = max(1.0, np.abs(direct.positions).max())
            assert (
                np.abs(direct.positions - roundabout.positions[::-1]).max()
                <= 1e-10 * scale
            )

    def test_orientation_flag_recorded(self):
        obs = scalar_series([0.0, 1.0, 2.0, 4.0], [0.0, 1.0, 0.5, 2.0])
        assert solve_scalar(obs, 1.0).time_reversed is True
        assert solve_scalar(obs, 1.0, time_reversed=False).time_reversed is False


def affine_error_on_spread_grids(rng, decades):
    """Worst relative position error on affine data over three random grids.

    Each grid has 101 samples whose gaps are log-uniform over ``decades``
    decades, with 10 zero-weight slots, solved at eta 1e-3, 1, 1e3 and 1e6.
    """
    worst = 0.0
    for _ in range(3):
        times = np.concatenate([[0.0], np.cumsum(10.0 ** rng.uniform(0.0, decades, 100))])
        values = 1.5 - 0.25 * times
        weights = np.ones(101)
        weights[rng.choice(101, 10, replace=False)] = 0.0
        obs = scalar_series(times, values, weights)
        for eta in (1e-3, 1.0, 1e3, 1e6):
            positions = solve_scalar(obs, eta).positions
            worst = max(worst, np.abs(positions - values).max() / np.abs(values).max())
    return worst


class TestIrregularGrids:
    # The dense SVD solve reached only 3e-5 to 2e-4 on these grids.
    @pytest.mark.parametrize("decades", [3, 4, 5])
    def test_affine_data_reproduced_on_widely_spread_gaps(self, decades):
        assert affine_error_on_spread_grids(np.random.default_rng(decades), decades) <= 1e-9

    def test_affine_bound_holds_on_other_five_decade_grids(self):
        worst = max(affine_error_on_spread_grids(np.random.default_rng([5, s, 9]), 5)
                    for s in range(10))
        assert worst <= 1e-9


class TestAffineShift:
    """A line added to the data adds the same line to the fit, on data that is not affine.

    The bound comes from measurement: over 30 seeds of these grids the worst
    error was 3.2e-11 of the scale, at eta 1e-3 and a zero-weight sample next
    to the pinned end.
    """

    @pytest.mark.parametrize("time_reversed", [True, False])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_line_added_to_random_walk_data_shifts_the_fit(self, dim, time_reversed):
        def fit(times, values, infos, eta, time_reversed):
            grid = build_time_grid(times)
            if dim == 1:
                obs = ScalarObservationSeries(grid=grid, values=values[:, 0],
                                              weights=infos[:, 0, 0])
                return solve_scalar(obs, eta, time_reversed).positions
            obs = VectorObservationSeries(grid=grid, values=values, informations=infos)
            return solve_vector(obs, eta, time_reversed).positions

        m = 101
        for seed in range(5):
            rng = np.random.default_rng([43, dim, seed])
            for decades in (1, 2, 3):
                times = np.concatenate([[0.0], np.cumsum(10.0 ** rng.uniform(0.0, decades, m - 1))])
                values = np.cumsum(rng.standard_normal((m, dim)), axis=0)
                factors = rng.standard_normal((m, dim, dim))
                infos = factors @ factors.transpose(0, 2, 1) + 0.1 * np.eye(dim)
                infos[rng.choice(m, m // 10, replace=False)] = 0.0
                line = rng.uniform(-20.0, 20.0, dim) + np.outer(times / times[-1],
                                                                rng.uniform(-20.0, 20.0, dim))
                scale = max(np.abs(values).max(), np.abs(values + line).max())
                for eta in (1e-3, 1.0, 1e3, 1e6):
                    fits = [np.reshape(fit(times, data, infos, eta, time_reversed), (m, dim))
                            for data in (values, values + line)]
                    assert np.abs(fits[1] - fits[0] - line).max() <= 1e-10 * scale


def batch_invariance_errors(dim, time_reversed, seed):
    """Errors of four exact invariances of one batch fit, each over max|p| of the fit it expects.

    Each follows from the objective, the sum of (p - y)^T W (p - y) / 2 and
    eta tau |a|^2: time scaled by c with eta scaled by c^3 leaves the
    positions unchanged; values scaled by s scale the fit by s; values Q y with
    informations Q W Q^T, for a random orthogonal Q, give Q p; and swapping the
    axes swaps the fit. The grid has 10 to 99 samples with gaps log-uniform over
    up to three decades, correlated informations and 10% zero slots; c is drawn
    from 1e-2 to 1e2, s from 1e-3 to 1e3 and eta from 1e-3 to 1e6.
    """
    rng = np.random.default_rng([71, dim, seed])
    m = int(rng.integers(10, 100))
    times = np.concatenate([[0.0], np.cumsum(10.0 ** rng.uniform(0.0, rng.uniform(0.0, 3.0),
                                                                  m - 1))])
    values = np.cumsum(rng.standard_normal((m, dim)), axis=0)
    factors = rng.standard_normal((m, dim, dim))
    infos = factors @ factors.transpose(0, 2, 1) + 0.1 * np.eye(dim)
    infos[rng.choice(m, m // 10, replace=False)] = 0.0
    c, s, eta = 10.0 ** rng.uniform([-2.0, -3.0, -3.0], [2.0, 3.0, 6.0])
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    swap = np.arange(dim)[::-1]

    def fit(times, values, infos, eta):
        obs = VectorObservationSeries(grid=build_time_grid(times), values=values,
                                      informations=infos)
        return solve_vector(obs, eta, time_reversed).positions

    p = fit(times, values, infos, eta)
    pairs = {
        "time": (fit(c * times, values, infos, eta * c ** 3), p),
        "values": (fit(times, s * values, infos, eta), s * p),
        "rotation": (fit(times, values @ q.T, q @ infos @ q.T, eta), p @ q.T),
        "swap": (fit(times, values[:, swap], infos[:, swap][:, :, swap], eta), p[:, swap]),
    }
    return {name: np.abs(got - want).max() / np.abs(want).max()
            for name, (got, want) in pairs.items()}


class TestBatchInvariances:
    """Time, value, rotation and axis-swap invariances of batch fits.

    None holds bitwise, since the transformed data round differently. Over
    seeds 0-299 for each dimension and orientation (1,800 cases), the worst
    errors were 7.4e-11 for time, 5.3e-15 for values, 7.0e-11 for rotation
    and 9.7e-11 for the swap; the three largest all at seed 144 of the
    forward d = 2 fit, a grid of 2.4 decades. In the default orientation the
    worst were 2.3e-11, 3.3e-15, 2.6e-11 and 2.0e-11. The bounds are about
    five times the worst.
    """

    BOUNDS = {"time": 5e-10, "values": 3e-14, "rotation": 5e-10, "swap": 5e-10}

    @pytest.mark.parametrize("time_reversed", [True, False])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_fit_transforms_with_the_data(self, dim, time_reversed):
        for seed in range(8):
            errors = batch_invariance_errors(dim, time_reversed, seed)
            for name, bound in self.BOUNDS.items():
                assert errors[name] <= bound, (name, seed, errors[name])


def random_vector_series(rng, m, dim):
    """Gaps spread over one decade, correlated informations, 10% placeholders."""
    times = np.concatenate([[0.0], np.cumsum(10.0 ** rng.uniform(-0.5, 0.5, m - 1))])
    values = rng.standard_normal((m, dim)) * 3.0 + times[:, None] * rng.standard_normal(dim)
    factors = rng.standard_normal((m, dim, dim))
    infos = factors @ factors.transpose(0, 2, 1) + 0.1 * np.eye(dim)
    infos[rng.choice(m, max(1, m // 10), replace=False)] = 0.0
    return VectorObservationSeries(grid=build_time_grid(times), values=values, informations=infos)


def stationarity_rows(taus, values, infos, eta):
    """Block rows of the stationarity system pinned at the final velocity.

    Sample i owns 5d unknowns x_i = (p_i, v_i, a_i, lambda_i, mu_i), each a
    d-vector, and 5d equations: the stationarity of p_i, v_i and a_i, then
    the position and velocity updates over gap i. The final sample has no
    gap; its rows pin v_n to the right-hand side and set the padding
    unknowns a_n, lambda_n and mu_n to zero. Row block i couples x_{i-1},
    x_i and x_{i+1}, so the result has shape (m, 5d, 15d + d + 1): the three
    coefficient blocks, then d + 1 right-hand sides (the data with the pin
    at zero, and zero data with the pin at each unit vector). Each row is
    scaled to unit largest coefficient.
    """
    m, d = values.shape
    eye = np.eye(d)
    tau = taus[:, None, None] * eye
    P, V, A, LAM, MU = range(5)
    b = 5 * d
    rows = np.zeros((m, b, 3 * b + d + 1))
    # The coefficient blocks viewed as [sample, equation, coupled sample
    # (previous, own, next), unknown, row, column].
    K = rows[:, :, :3 * b].reshape(m, 5, d, 3, 5, d).transpose(0, 1, 3, 4, 2, 5)
    K[:, 0, 1, P] = infos
    K[1:, 0, 0, LAM] = eye
    K[:-1, 0, 1, LAM] = -eye
    K[1:-1, 1, 0, MU] = eye
    K[:-1, 1, 1, MU] = -eye
    K[:-1, 1, 1, LAM] = -tau
    K[:-1, 2, 1, A] = 2.0 * eta * eye
    K[:-1, 2, 1, LAM] = -0.5 * tau
    K[:-1, 2, 1, MU] = -eye
    K[:-1, 3, 2, P] = eye
    K[:-1, 3, 1, P] = -eye
    K[:-1, 3, 1, V] = -tau
    K[:-1, 3, 1, A] = -0.5 * taus[:, None, None] * tau
    K[:-1, 4, 2, V] = eye
    K[:-1, 4, 1, V] = -eye
    K[:-1, 4, 1, A] = -tau
    for eq, unknown in ((1, V), (2, A), (3, LAM), (4, MU)):
        K[-1, eq, 1, unknown] = eye
    rows[:, :d, 3 * b] = np.einsum("jab,jb->ja", infos, values)
    rows[-1, d:2 * d, 3 * b + 1:] = eye
    rows /= np.abs(rows[:, :, :3 * b]).max(axis=2)[:, :, None]
    return rows


def dense_lu_sweep(taus, values, infos, eta, slopes=False, refinements=0):
    """Positions (m, d, k) and accelerations (m - 1, d, k) of the pinned fit at eta, for
    the d + 1 right-hand sides of its stationarity rows, by a dense LU of those rows.

    With ``slopes``, their derivatives in eta follow from the same matrix: eta
    enters only the acceleration rows, as 2 eta a before the row is scaled, so
    the derivative's right-hand side there is minus the scaled coefficient of a
    over eta, times a. Each solve takes ``refinements`` steps of iterative
    refinement.
    """
    rows = stationarity_rows(taus, values, infos, eta)
    m, b, _ = rows.shape
    d = b // 5
    dense = np.zeros((m * b, (m + 2) * b))
    for i in range(m):
        dense[i * b:(i + 1) * b, i * b:(i + 3) * b] = rows[i, :, :3 * b]
    matrix = dense[:, b:-b]

    def solve(rhs):
        rhs = rhs.reshape(m * b, -1)
        solution = np.linalg.solve(matrix, rhs)
        for _ in range(refinements):
            solution += np.linalg.solve(matrix, rhs - matrix @ solution)
        return solution.reshape(m, b, -1)

    solution = solve(rows[:, :, 3 * b:])
    positions, accelerations = solution[:, :d], solution[:-1, 2 * d:3 * d]
    if not slopes:
        return positions, accelerations
    rhs = np.zeros(solution.shape)
    rhs[:-1, 2 * d:3 * d] = -(rows[:-1, 2 * d:3 * d, b + 2 * d:b + 3 * d] @ accelerations) / eta
    derivative = solve(rhs)
    return positions, accelerations, derivative[:, :d], derivative[:-1, 2 * d:3 * d]


def sweep_of(taus, values, infos, eta):
    """``solver._sweep`` on (m, d) values with (m, d, d) informations."""
    return solver._sweep(taus, values, _symmetrized(infos)[1], eta)


class TestDenseReference:
    @pytest.mark.parametrize("time_reversed", [True, False])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_dense_svd_reference(self, dim, time_reversed):
        # Windows stay short because the reference itself drifts with size
        # at small eta: at 40 samples and eta 1e-3 its positions are off by
        # up to 1.5e-8 for d = 3 (test_sweep_matches_dense_lu covers longer
        # windows). Its running-sum accelerations lose about one more digit
        # than its positions.
        rng = np.random.default_rng([23, dim])
        for eta in (1e-3, 1e-1, 1e1, 1e3, 1e6):
            for _ in range(3):
                obs = random_vector_series(rng, int(rng.integers(10, 17)), dim)
                traj = solve_vector(obs, eta, time_reversed=time_reversed)
                p, a, rank = dense_reference(obs.grid, obs.values, obs.informations,
                                             eta, time_reversed)
                assert np.abs(traj.positions - p).max() <= 1e-9 * np.abs(p).max()
                assert np.abs(traj.accelerations - a).max() <= 1e-8 * np.abs(a).max()
                assert traj.rank == rank == dim * obs.grid.n

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_sweep_matches_dense_lu(self, dim):
        """The refined least-squares sweep solves the pinned fit like a dense LU of its
        stationarity rows, positions and accelerations each on their own scale."""
        rng = np.random.default_rng([29, dim])
        for eta in (1e-3, 1.0, 1e6):
            obs = random_vector_series(rng, 60, dim)
            expected = dense_lu_sweep(obs.grid.taus, obs.values, obs.informations, eta)
            found = sweep_of(obs.grid.taus, obs.values, obs.informations, eta)[:2]
            for got, want in zip(found, expected):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_sweep_and_eta_slope_match_dense_lu_at_every_panel_remainder(self, dim):
        """Every length m = 3 ... 2S + 3 for S gaps per panel: a single panel, and each
        padding remainder.

        The slope dx/d eta is checked against a central difference of the
        dense solve, on the scale max|x| / eta of d x / d log eta: the
        difference's own errors stay below 1e-9 of that.
        """
        s = max(1, round(solver.PANEL_WIDTH / dim))  # gaps per panel
        rng = np.random.default_rng([31, dim])
        for m in range(3, 2 * s + 4):
            taus = 10.0 ** rng.uniform(-0.5, 0.5, m - 1)
            values = rng.standard_normal((m, dim)) * 3.0
            factors = rng.standard_normal((m, dim, dim))
            infos = factors @ factors.transpose(0, 2, 1) + 0.1 * np.eye(dim)
            for eta in (1e-3, 1.0, 1e6):
                expected = dense_lu_sweep(taus, values, infos, eta)
                positions, accelerations, *slopes, _ = sweep_of(taus, values, infos, eta)
                h = 1e-5 * eta
                above = dense_lu_sweep(taus, values, infos, eta + h)
                below = dense_lu_sweep(taus, values, infos, eta - h)
                for got, slope, want, up, down in zip(
                        (positions, accelerations), slopes, expected, above, below):
                    scale = np.abs(want).max()
                    assert np.abs(got - want).max() <= 1e-12 * scale
                    difference = (up - down) / (2.0 * h)
                    assert np.abs(slope - difference).max() <= 1e-8 * scale / eta

    def test_sweep_matches_dense_lu_on_spread_grids(self):
        """A hypothesis property over d = 1 ... 3 and 3 to 60 samples, so a single panel,
        every padding remainder and several panels occur; gaps log-uniform over up to
        three decades, about 10% zero-information slots, eta from 1e-3 to 1e6 and both
        orientations (the reversed one is the sweep of the reversed data).

        Positions, accelerations and their eta slopes agree with the dense LU, refined
        once and with its slopes from the same matrix, each on its own scale, slopes on
        max|x| / eta. Over 10,000 random examples the worst errors were 4.2e-13 and
        3.1e-13, and 4.3e-13 and 5.0e-13 for the slopes. Unrefined, the LU's own error
        on these grids reached 2.3e-12, where the sweep was within 1.9e-14 of a
        50-digit reference.
        """
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=40, deadline=None)
        @given(dim=st.integers(1, 3), m=st.integers(3, 60), decades=st.floats(0.0, 3.0),
               log_eta=st.floats(-3.0, 6.0), reverse=st.booleans(),
               seed=st.integers(0, 2**32 - 1))
        def check(dim, m, decades, log_eta, reverse, seed):
            rng = np.random.default_rng(seed)
            taus = 10.0 ** rng.uniform(-decades / 2, decades / 2, m - 1)
            values = (3.0 * rng.standard_normal((m, dim))
                      + np.cumsum(rng.standard_normal((m, dim)), axis=0))
            factors = rng.standard_normal((m, dim, dim))
            infos = factors @ factors.transpose(0, 2, 1) + 0.1 * np.eye(dim)
            empty = rng.random(m) < 0.1
            # Three informed samples, as a series needs: with one, the data column's
            # accelerations are zero to rounding and have no scale of their own.
            empty[rng.choice(m, 3, replace=False)] = False
            infos[empty] = 0.0
            if reverse:
                taus, values, infos = taus[::-1], values[::-1], infos[::-1]
            eta = 10.0 ** log_eta
            expected = dense_lu_sweep(taus, values, infos, eta, slopes=True, refinements=1)
            found = sweep_of(taus, values, infos, eta)[:4]
            scales = [np.abs(x).max() for x in expected[:2]]
            scales += [scale / eta for scale in scales]
            for got, want, scale in zip(found, expected, scales):
                assert np.abs(got - want).max() <= 1e-12 * scale

        check()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_residual_norm_is_master_system_residual(self, dim):
        rng = np.random.default_rng([37, dim])
        obs = random_vector_series(rng, 30, dim)
        eta = 3.0
        fm = build_filter_matrices(obs.grid)
        m = obs.grid.n + 1
        C = (fm.a_bar[:, None, :, None] * obs.informations.transpose(1, 0, 2)[None]
             + eta * fm.b_bar[:, None, :, None] * np.eye(dim)[None, :, None, :])
        weighted = np.einsum("jab,jb->ja", obs.informations, obs.values)
        rhs = (fm.a_bar @ weighted).reshape(-1)
        # Off the solution, so the residual is far above rounding.
        p = rng.standard_normal((m, dim))
        expected = np.linalg.norm(C.reshape(-1, m * dim) @ p.reshape(-1) - rhs)
        found = solver._master_residual(obs.grid.taus, obs.values, obs.informations, eta, p)
        assert found == pytest.approx(expected, rel=1e-10)
        traj = solve_vector(obs, eta, time_reversed=False)
        assert traj.residual_norm <= 1e-12 * expected

    def test_affine_error_no_worse_than_reference_on_long_spread_grid(self):
        rng = np.random.default_rng(31)
        m = 1600
        times = np.concatenate([[0.0], np.cumsum(10.0 ** rng.uniform(-1.5, 1.5, m - 1))])
        values = 50.0 + 7.5 * (times / times[-1] - 0.5)
        weights = np.ones(m)
        weights[rng.choice(np.arange(1, m - 1), m // 10, replace=False)] = 0.0
        obs = scalar_series(times, values, weights)
        positions = solve_scalar(obs, 100.0).positions
        reference = dense_reference(obs.grid, values[:, None], weights[:, None, None],
                                    100.0, True)[0][:, 0]
        scale = np.abs(values).max()
        error = np.abs(positions - values).max() / scale
        assert error <= np.abs(reference - values).max() / scale
        assert error <= 1e-12


class TestSweepResults:
    """Solves share no state: no result depends on or aliases another solve's."""

    def test_results_survive_later_solves(self):
        rng = np.random.default_rng(41)
        small, large = random_vector_series(rng, 41, 2), random_vector_series(rng, 120, 2)
        first = sweep_of(small.grid.taus, small.values, small.informations, 3.0)
        kept = [part.copy() for part in first]
        sweep_of(large.grid.taus, large.values, large.informations, 3.0)
        for before, after in zip(kept, first):
            assert before.tobytes() == after.tobytes()
        again = sweep_of(small.grid.taus, small.values, small.informations, 3.0)
        for before, repeat in zip(first, again):
            assert before.tobytes() == repeat.tobytes()
            assert not any(np.shares_memory(before, part) for part in again)

    def test_results_ignore_stale_buffer_contents(self):
        rng = np.random.default_rng(47)
        for m, dim in ((97, 1), (41, 2), (30, 3)):
            obs = random_vector_series(rng, m, dim)
            clean = sweep_of(obs.grid.taus, obs.values, obs.informations, 3.0)
            for buffer in vars(solver._BUFFERS).values():
                buffer.fill(np.nan)
            stale = sweep_of(obs.grid.taus, obs.values, obs.informations, 3.0)
            for before, after in zip(clean, stale):
                assert before.tobytes() == after.tobytes()

    def test_concurrent_solves_match_sequential_ones(self):
        rng = np.random.default_rng(43)
        series = [random_vector_series(rng, m, dim)
                  for m, dim in ((150, 2), (60, 1), (200, 1), (90, 3))]
        expected = [solve_vector(obs, 5.0) for obs in series]
        found = [[] for _ in series]
        start = threading.Barrier(len(series))

        def solve_repeatedly(i):
            start.wait(timeout=30)
            for _ in range(5):
                found[i].append(solve_vector(series[i], 5.0))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve_repeatedly, args=(i,))
                       for i in range(len(series))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for want, got in zip(expected, found):
            assert len(got) == 5
            for traj in got:
                assert traj.positions.tobytes() == want.positions.tobytes()
                assert traj.accelerations.tobytes() == want.accelerations.tobytes()
                assert traj.log_xi_slope == want.log_xi_slope


class TestWindowStartTransient:
    def test_master_deviates_from_ideal_only_near_window_start(self):
        for seed in range(3):
            obs = gen_scalar_rednoise(seed).observations
            traj = solve_scalar(obs, 100.0)
            oracle = solve_kkt_oracle(obs, 100.0)
            deviation = np.abs(traj.positions - oracle.positions)
            times = obs.grid.times
            assert int(np.argmax(deviation)) <= 2
            early = deviation[times <= 10.0].max()
            late = deviation[times > 10.0].max()
            assert late <= 0.5 * early
            assert late <= 0.75


class TestVectorAndMulti:
    def test_equal_diagonal_information_decouples(self):
        rng = np.random.default_rng(10)
        times = np.linspace(0.0, 30.0, 16)
        values = rng.standard_normal((16, 2)) * 2.0
        info = np.tile(np.diag([2.5, 2.5]), (16, 1, 1))
        vec = solve_vector(
            VectorObservationSeries(grid=build_time_grid(times), values=values, informations=info),
            7.0,
        )
        for c in range(2):
            part = solve_scalar(scalar_series(times, values[:, c], np.full(16, 2.5)), 7.0)
            assert np.abs(vec.positions[:, c] - part.positions).max() <= 1e-10
            assert np.abs(vec.velocities[:, c] - part.velocities).max() <= 1e-10

    def test_correlated_information_matches_rotated_scalar_solves(self):
        rng = np.random.default_rng(11)
        times = np.linspace(0.0, 20.0, 12)
        values = rng.standard_normal((12, 2)) * 3.0
        corr = np.array([[2.0, 0.9 * 2.0], [0.9 * 2.0, 2.0]])
        eigvals, eigvecs = np.linalg.eigh(corr)
        info = np.tile(corr, (12, 1, 1))
        vec = solve_vector(
            VectorObservationSeries(grid=build_time_grid(times), values=values, informations=info),
            3.0,
        )
        rotated = values @ eigvecs
        recovered = np.empty_like(values)
        for c in range(2):
            part = solve_scalar(
                scalar_series(times, rotated[:, c], np.full(12, eigvals[c])), 3.0
            )
            recovered[:, c] = part.positions
        back = recovered @ eigvecs.T
        assert np.abs(vec.positions - back).max() <= 1e-9 * max(1.0, np.abs(back).max())

    @pytest.mark.parametrize("time_reversed", [True, False])
    def test_matches_kronecker_reference_with_correlated_placeholders(self, time_reversed):
        rng = np.random.default_rng(17)
        m = 30
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 4.0, m - 1))])
        values = np.empty((m, 2))
        infos = np.empty((m, 2, 2))
        for j in range(m):
            fix = PolarObservation(
                distance=40.0 + 20.0 * np.sin(times[j] / 9.0),
                bearing=0.05 * times[j] + 0.1 * rng.standard_normal(),
                distance_variance=0.25,
                bearing_variance=rng.uniform(1e-3, 1e-2),
            )
            est = range_bearing_to_position([3.0, -2.0], fix, "propagate")
            values[j] = est.position
            infos[j] = est.information
        assert np.abs(infos[:, 0, 1]).max() > 0.1 * np.abs(infos[:, 0, 0]).max()
        placeholders = [4, 5, 17, 28]
        infos[placeholders] = 0.0
        values[placeholders] = 1e3
        obs = VectorObservationSeries(
            grid=build_time_grid(times), values=values, informations=infos
        )
        traj = solve_vector(obs, 0.5, time_reversed=time_reversed)
        reference = kronecker_reference_positions(obs, 0.5, time_reversed)
        scale = np.abs(reference).max()
        assert np.abs(traj.positions - reference).max() <= 1e-10 * scale

    @pytest.mark.parametrize("time_reversed", [True, False])
    def test_one_dimensional_vector_is_scalar_bitwise(self, time_reversed):
        rng = np.random.default_rng(19)
        times = np.concatenate([[0.0], np.cumsum(10.0 ** rng.uniform(-1.5, 1.5, 25))])
        values = 3.0 * np.sin(times / 4.0) + rng.standard_normal(26)
        weights = rng.uniform(0.5, 4.0, 26)
        weights[[0, 7, 8, 20]] = 0.0
        scalar = solve_scalar(scalar_series(times, values, weights), 2.0, time_reversed)
        series = VectorObservationSeries(
            grid=scalar.grid, values=values[:, None], informations=weights[:, None, None])
        assert series.dim == 1
        vector = solve_vector(series, 2.0, time_reversed)
        for name in ("positions", "velocities", "accelerations"):
            assert np.array_equal(np.squeeze(getattr(vector, name), 1), getattr(scalar, name))
        assert (vector.rank, vector.residual_norm) == (scalar.rank, scalar.residual_norm)


class TestEtaSearch:
    def test_round_trip_recovers_eta_within_one_percent(self):
        obs = gen_scalar_rednoise(4).observations
        target = rms_acceleration(solve_scalar(obs, 50.0))
        result = search_eta(obs, target, 1e-2, 1e6)
        assert abs(result.eta - 50.0) <= 0.01 * 50.0
        assert abs(result.xi - target) <= 2e-5 * target + 1e-15
        assert result.iterations <= 100

    def test_trace_monotone_non_increasing(self):
        obs = gen_scalar_rednoise(1).observations
        target = rms_acceleration(solve_scalar(obs, 25.0))
        result = search_eta(obs, target, 1e-2, 1e6)
        ordered = sorted(result.trace)
        xis = [xi for _, xi in ordered]
        assert all(xis[i] >= xis[i + 1] - 1e-12 for i in range(len(xis) - 1))

    def test_linear_data_returns_upper_endpoint(self):
        times = np.linspace(0.0, 50.0, 20)
        obs = scalar_series(times, 2.0 + 3.0 * times)
        result = search_eta(obs, 0.5, 1e-2, 1e6)
        assert result.eta == 1e6
        assert result.xi <= 1e-10

    def test_unreachable_target_raises(self):
        obs = gen_scalar_rednoise(0).observations
        with pytest.raises(BracketDoesNotStraddle):
            search_eta(obs, 1e-12, 1e-2, 1e2)

    def test_zero_target_raises(self):
        obs = gen_scalar_rednoise(0).observations
        with pytest.raises(BracketDoesNotStraddle):
            search_eta(obs, 0.0, 1e-2, 1e6)

    @pytest.mark.parametrize("eta_lo, eta_hi", [(1e3, 1e3), (1e4, 1e-2)])
    def test_bracket_must_increase(self, eta_lo, eta_hi):
        obs = gen_scalar_rednoise(0).observations
        with pytest.raises(UsageError, match="eta_lo < eta_hi"):
            search_eta(obs, 0.1, eta_lo, eta_hi)

    @pytest.mark.parametrize("end", ["eta_lo", "eta_hi"])
    def test_bracket_end_meeting_target_returns_at_once(self, end):
        obs = gen_scalar_rednoise(2).observations
        bracket = {"eta_lo": 1e-1, "eta_hi": 1e4}
        target = rms_acceleration(solve_scalar(obs, bracket[end]))
        result = search_eta(obs, target, bracket["eta_lo"], bracket["eta_hi"])
        assert (result.eta, result.xi, result.iterations) == (bracket[end], target, 0)
        assert result.trajectory.eta == bracket[end]
        assert len(result.trace) == (1 if end == "eta_hi" else 2)

    def test_unsupported_container_is_a_usage_error(self):
        with pytest.raises(UsageError, match="unsupported observation container list"):
            search_eta([0.0, 1.0, 2.0], 0.1, 1e-2, 1e6)

    def test_max_iterations(self, monkeypatch):
        monkeypatch.setattr(solver, "SEARCH_MAX_ITERATIONS", 2)
        obs = gen_scalar_rednoise(4).observations
        target = rms_acceleration(solve_scalar(obs, 50.0))
        with pytest.raises(MaxIterations, match="within 2 iterations"):
            search_eta(obs, target, 1e-2, 1e6)

    @pytest.mark.parametrize("case", ["converged", "end-meets-target", "whole-bracket"])
    def test_trajectory_is_the_fit_at_the_returned_eta(self, case):
        """The result carries the solve at its eta, bitwise; no second solve is needed."""
        obs = gen_scalar_rednoise(5).observations
        target = rms_acceleration(solve_scalar(obs, 30.0))
        if case == "end-meets-target":
            target = rms_acceleration(solve_scalar(obs, 1e6))
        elif case == "whole-bracket":
            times = np.linspace(0.0, 50.0, 20)
            obs = scalar_series(times, 2.0 + 3.0 * times)
            target = 0.5
        result = search_eta(obs, target, 1e-2, 1e6)
        again = solve_scalar(obs, result.eta)
        assert result.trajectory.eta == result.eta
        assert rms_acceleration(result.trajectory) == result.xi
        for name in ("positions", "velocities", "accelerations"):
            assert np.array_equal(getattr(result.trajectory, name), getattr(again, name))
        assert result.trajectory.residual_norm == again.residual_norm


class TestNewtonSearch:
    @pytest.mark.parametrize("time_reversed", [True, False])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_log_xi_slope_matches_central_difference(self, dim, time_reversed):
        rng = np.random.default_rng([41, dim])
        obs = random_vector_series(rng, 60, dim)
        step = 1e-5
        for eta in (1e-3, 1.0, 1e3, 1e6):
            slope = solve_vector(obs, eta, time_reversed=time_reversed).log_xi_slope
            up, down = (np.log(rms_acceleration(
                solve_vector(obs, eta * np.exp(h), time_reversed=time_reversed)))
                for h in (step, -step))
            assert slope == pytest.approx((up - down) / (2.0 * step), rel=1e-5)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_log_xi_slope_on_widely_spread_grids(self, dim):
        """Random walks of 101 samples with 10 zero-information slots, gaps spread over
        4 to 8 decades, against a central difference of log xi in log eta (h = 1e-4).

        The worst gap here is 2.0e-8; over seeds 0-5 of these grids (240 cases) it
        was 2.3e-7, the difference's own truncation and rounding. The bound is 4
        times that.
        """
        step = 1e-4
        for decades in (4, 5, 6, 7, 8):
            rng = np.random.default_rng([41, dim, decades, 0])
            m = 101
            times = np.concatenate(
                [[0.0], np.cumsum(10.0 ** rng.uniform(-decades / 2, decades / 2, m - 1))])
            values = np.cumsum(rng.standard_normal((m, dim)), axis=0)
            factors = rng.standard_normal((m, dim, dim))
            infos = factors @ factors.transpose(0, 2, 1) + 0.1 * np.eye(dim)
            infos[rng.choice(np.arange(1, m - 1), 10, replace=False)] = 0.0
            obs = VectorObservationSeries(grid=build_time_grid(times), values=values,
                                          informations=infos)
            for eta in (1e-3, 1.0, 1e3, 1e6):
                slope = solve_vector(obs, eta).log_xi_slope
                up, down = (np.log(rms_acceleration(solve_vector(obs, eta * np.exp(h))))
                            for h in (step, -step))
                assert abs(slope - (up - down) / (2.0 * step)) <= 1e-6

    def test_log_xi_slope_is_nan_without_acceleration(self):
        times = np.arange(6.0)
        traj = solve_scalar(scalar_series(times, np.zeros(6)), 3.0)
        assert rms_acceleration(traj) == 0.0
        assert np.isnan(traj.log_xi_slope)

    def test_search_solves_at_most_ten(self):
        """The most solves any of these 72 searches took, with the CLI's default bracket."""
        for gen in (gen_planar_path, gen_scalar_rednoise):
            for seed in range(12):
                obs = gen(seed).observations
                solve = solve_scalar if gen is gen_scalar_rednoise else solve_vector
                xi = rms_acceleration(solve(obs, 10.0))
                for target in (0.3 * xi, xi, 3.0 * xi):
                    result = search_eta(obs, target, 1e-4, 1e8)
                    assert abs(result.xi - target) <= solver.SEARCH_REL_TOL * target
                    assert len(result.trace) <= 10, (gen.__name__, seed, target)

    @pytest.mark.parametrize("factor", [0.5, 10.0])
    def test_search_converges_on_a_wrong_slope(self, factor, monkeypatch):
        """A slope off by ``factor`` makes Newton steps overshoot or creep; bisection takes over."""
        solve_any = solver._solve_any

        def wrong_slope(obs, eta):
            fit = solve_any(obs, eta)
            return replace(fit, log_xi_slope=factor * fit.log_xi_slope)

        monkeypatch.setattr(solver, "_solve_any", wrong_slope)
        obs = gen_planar_path(3).observations
        target = 0.3 * rms_acceleration(solve_vector(obs, 10.0))
        result = search_eta(obs, target, 1e-4, 1e8)
        assert abs(result.xi - target) <= solver.SEARCH_REL_TOL * target


class TestRmsAcceleration:
    def test_zero_accelerations_give_zero(self):
        times = np.linspace(0.0, 5.0, 6)
        traj = solve_scalar(scalar_series(times, 1.0 + 2.0 * times), 1.0)
        assert rms_acceleration(traj) <= 1e-12

    def test_constant_acceleration_definition(self):
        grid = build_time_grid([0.0, 1.0, 3.0])
        traj = ShadowingTrajectory(
            grid=grid,
            eta=1.0,
            positions=np.zeros(3),
            velocities=np.zeros(3),
            accelerations=np.full(2, 2.0),
            time_reversed=True,
            residual_norm=0.0,
        )
        assert rms_acceleration(traj) == pytest.approx(2.0, rel=1e-12)
        assert traj.rank == traj.dim * grid.n == 2

    def test_decreases_with_eta_on_noisy_data(self):
        obs = gen_scalar_rednoise(0).observations
        low = rms_acceleration(solve_scalar(obs, 1.0))
        high = rms_acceleration(solve_scalar(obs, 1e4))
        assert high < low


class TestFiniteFitsStayFinite:
    """Squares past the float range are taken again over the largest entry."""

    def test_huge_eta_gives_a_finite_residual(self):
        times = np.arange(6.0)
        traj = solve_scalar(scalar_series(times, 0.5 * times ** 2), 1e300)
        assert np.isfinite(traj.residual_norm)

    @pytest.mark.parametrize("eta", [1e-3, 1.0, 1e3])
    def test_values_near_the_float_range(self, eta):
        times = np.arange(6.0)
        shape = 0.5 * times ** 2 + np.array([0.0, 1.0, 0.0, -1.0, 0.0, 1.0])
        small = solve_scalar(scalar_series(times, shape), eta)
        huge = solve_scalar(scalar_series(times, 1e300 * shape), eta)
        assert rms_acceleration(huge) == pytest.approx(1e300 * rms_acceleration(small),
                                                       rel=1e-12)
        assert huge.log_xi_slope == pytest.approx(small.log_xi_slope, rel=1e-9)
        assert np.isfinite(huge.residual_norm)

    def test_finite_values_are_left_bit_for_bit(self):
        rng = np.random.default_rng(5)
        rows, ends = rng.standard_normal((40, 2)), rng.standard_normal(2)

        def norm(rows, ends):
            return float(np.sqrt(np.sum(rows ** 2) + np.sum(ends ** 2)))

        assert solver._rescaled(norm, 1, rows, ends) == norm(rows, ends)
        assert solver._rescaled(norm, 1, 1e300 * rows, 1e300 * ends) == pytest.approx(
            1e300 * norm(rows, ends), rel=1e-14)

    def test_acceleration_weight_past_the_float_range_is_singular(self):
        """sqrt(2 eta tau) overflows here; the solve says so rather than warn."""
        obs = scalar_series(1e10 * np.arange(6.0), [0.0, 1.0, 0.0, -1.0, 0.0, 1.0])
        with pytest.raises(SingularSystem, match="acceleration weight"):
            solve_scalar(obs, 1e300)

    @pytest.mark.parametrize("time_reversed", [True, False])
    def test_residual_past_the_float_range_is_infinite(self, time_reversed):
        """The master residual's gap products overflow on gaps of 1e150."""
        obs = scalar_series(1e150 * np.arange(6.0), [0.0, 1.0, 0.0, -1.0, 0.0, 1.0])
        traj = solve_scalar(obs, 1e10, time_reversed=time_reversed)
        assert traj.residual_norm == np.inf
        assert np.all(np.isfinite(traj.positions))

    def test_values_and_informations_of_1e200(self):
        """Alpha's square-root rows R [y - p0 | Z] stay near 1e300, where information-weighted
        sums of 1e200 squared would pass the float range."""
        times = np.arange(5.0)
        values = 1e200 * np.column_stack([times, 0.5 * times])
        obs = VectorObservationSeries(grid=build_time_grid(times), values=values,
                                      informations=np.tile(1e200 * np.eye(2), (5, 1, 1)))
        positions = solve_vector(obs, 10.0).positions
        assert np.all(np.isfinite(positions))
        assert np.abs(positions - values).max() <= 1e-12 * np.abs(values).max()

    def test_data_rows_past_the_float_range_are_singular(self):
        """R y overflows for values of 1e300 with informations of 1e300 I; the solve says so
        rather than warn."""
        times = np.arange(5.0)
        obs = VectorObservationSeries(
            grid=build_time_grid(times), values=1e300 * np.column_stack([times, 0.5 * times]),
            informations=np.tile(1e300 * np.eye(2), (5, 1, 1)))
        with pytest.raises(SingularSystem, match="data rows"):
            solve_vector(obs, 10.0)

    def test_eta_derivative_past_the_float_range_gives_a_nan_slope(self):
        """At eta 1e-299 on values near 1e300 the derivative of the fit in eta passes the
        float range: the fit stands, with no warning, and its slope is NaN."""
        times = np.arange(6.0)
        shape = 0.5 * times ** 2 + np.array([0.0, 1.0, 0.0, -1.0, 0.0, 1.0])
        traj = solve_scalar(scalar_series(times, 1e300 * shape), 1e-299)
        assert np.abs(traj.positions - 1e300 * shape).max() <= 1e-12 * 1e300 * np.abs(shape).max()
        assert np.isnan(traj.log_xi_slope)

    def test_an_information_of_1e308_is_usable(self):
        """Its trace would overflow; a positive diagonal entry marks it usable."""
        times = np.arange(5.0)
        values = np.column_stack([times, 0.5 * times])
        infos = np.tile(np.eye(2), (5, 1, 1))
        infos[0] = 1e308 * np.eye(2)
        traj = solve_vector(VectorObservationSeries(
            grid=build_time_grid(times), values=values, informations=infos), 10.0)
        assert np.abs(traj.positions - values).max() <= 1e-12 * np.abs(values).max()


class TestExtremeInformations:
    """Five samples of the line (t, t/2) at eta 10 with informations far apart in size.

    Every fit of the line is the line, so these pin the solve's own errors as
    strict xfails, at their measured values. A heavy oldest information is
    solved to rounding (``test_an_information_of_1e308_is_usable``).
    """

    @staticmethod
    def fit(infos):
        times = np.arange(5.0)
        values = np.column_stack([times, 0.5 * times])
        obs = VectorObservationSeries(grid=build_time_grid(times), values=values,
                                      informations=infos)
        return values, solve_vector(obs, 10.0)

    @pytest.mark.xfail(strict=True, reason=(
        "positions off by 1.8e-8 at 1e30 and 1.6 at 1e60; the sweep differs from the "
        "dense LU by 2.8e-3 and 0.22, as Householder QR without row ordering mixes rows "
        "of widely different size (Cox & Higham 1998)"))
    @pytest.mark.parametrize("factor", [1e30, 1e60])
    def test_a_heavy_middle_information(self, factor):
        infos = np.tile(np.eye(2), (5, 1, 1))
        infos[2] *= factor
        values, traj = self.fit(infos)
        assert np.abs(traj.positions - values).max() <= 1e-12 * np.abs(values).max()

    @pytest.mark.xfail(strict=True, reason=(
        "positions off by 3.0: the sweep matches the dense LU, but its null direction at "
        "the heavy sample is 4.9e-32 where the LU's is 2.6e-80, and the information "
        "amplifies that in the alpha fit"))
    def test_a_heavy_newest_information(self):
        infos = np.tile(np.eye(2), (5, 1, 1))
        infos[4] *= 1e80
        values, traj = self.fit(infos)
        assert np.abs(traj.positions - values).max() <= 1e-12 * np.abs(values).max()

    @pytest.mark.xfail(strict=True, reason=(
        "velocities alternate 0.5 and 1.5 for 1: with every position held by 1e100 roots "
        "the family's residual does not see alpha, which rounding then picks"))
    def test_uniform_informations_of_1e200_keep_the_velocity(self):
        values, traj = self.fit(np.tile(1e200 * np.eye(2), (5, 1, 1)))
        assert np.abs(traj.positions - values).max() <= 1e-12 * np.abs(values).max()
        assert np.abs(traj.velocities - [1.0, 0.5]).max() <= 1e-12


class TestSpline:
    def test_knots_and_dynamics(self):
        rng = np.random.default_rng(13)
        obs = random_series(rng, n=8, noise=0.5)
        traj = solve_scalar(obs, 5.0)
        knots = evaluate_spline(traj, obs.grid.times)
        assert np.abs(knots - traj.positions).max() <= 1e-12

    def test_midpoint_of_linear_segment_is_average(self):
        times = np.array([0.0, 2.0, 4.0, 6.0])
        traj = solve_scalar(scalar_series(times, 1.0 + 0.5 * times), 1.0)
        mid = evaluate_spline(traj, 1.0)
        assert mid == pytest.approx((traj.positions[0] + traj.positions[1]) / 2.0, abs=1e-10)

    def test_extrapolation_is_constant_velocity(self):
        rng = np.random.default_rng(14)
        obs = random_series(rng, n=6, noise=0.3)
        traj = solve_scalar(obs, 2.0)
        t_end = obs.grid.times[-1]
        for dt in (0.5, 2.0, 7.5):
            expected = traj.positions[-1] + traj.velocities[-1] * dt
            assert evaluate_spline(traj, t_end + dt) == pytest.approx(expected, rel=1e-12)
            assert evaluate_spline_velocity(traj, t_end + dt) == pytest.approx(
                traj.velocities[-1], rel=1e-12
            )

    def test_before_start_rejected(self):
        obs = scalar_series([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0])
        traj = solve_scalar(obs, 1.0)
        with pytest.raises(TimeOutOfRange):
            evaluate_spline(traj, -0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("evaluate", [evaluate_spline, evaluate_spline_velocity])
    def test_non_finite_time_rejected(self, evaluate, bad):
        obs = scalar_series([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0])
        traj = solve_scalar(obs, 1.0)
        with pytest.raises(TimeOutOfRange, match=repr(float(bad))):
            evaluate(traj, bad)
        with pytest.raises(TimeOutOfRange, match=repr(float(bad))):
            evaluate(traj, [0.5, bad, 2.5])

    def test_velocity_continuity_at_knots(self):
        rng = np.random.default_rng(15)
        obs = random_series(rng, n=7, noise=0.4)
        traj = solve_scalar(obs, 3.0)
        interior = obs.grid.times[1:-1]
        eps = 1e-7
        left = evaluate_spline_velocity(traj, interior - eps)
        right = evaluate_spline_velocity(traj, interior + eps)
        assert np.abs(left - right).max() <= 1e-4

    def test_vector_spline(self):
        rng = np.random.default_rng(16)
        times = np.linspace(0.0, 10.0, 8)
        values = rng.standard_normal((8, 2))
        info = np.tile(np.eye(2), (8, 1, 1))
        traj = solve_vector(
            VectorObservationSeries(grid=build_time_grid(times), values=values, informations=info),
            2.0,
        )
        knots = evaluate_spline(traj, times)
        assert np.abs(knots - traj.positions).max() <= 1e-12

    @pytest.mark.parametrize("evaluate", [evaluate_spline, evaluate_spline_velocity])
    def test_one_component_vector_fit_keeps_its_component_axis(self, evaluate):
        times = np.linspace(0.0, 6.0, 7)
        traj = solve_vector(
            VectorObservationSeries(grid=build_time_grid(times), values=np.sin(times)[:, None],
                                    informations=np.ones((7, 1, 1))),
            2.0,
        )
        scalar = solve_scalar(scalar_series(times, np.sin(times)), 2.0)
        queries = np.array([0.5, 3.0, 6.0, 8.5])
        assert evaluate(traj, queries).shape == (4, 1)
        assert evaluate(traj, 3.0).shape == (1,)
        assert evaluate(scalar, queries).shape == (4,)
        assert isinstance(evaluate(scalar, 3.0), float)
        assert np.array_equal(evaluate(traj, queries)[:, 0], evaluate(scalar, queries))


class TestValidation:
    def test_non_positive_eta(self):
        obs = scalar_series([0.0, 1.0, 2.0, 3.0], np.zeros(4))
        for eta in (0.0, -1.0, np.nan):
            with pytest.raises(NonPositiveEta):
                solve_scalar(obs, eta)

    @pytest.mark.parametrize("huge", [10 ** 400, -10 ** 400], ids=["positive", "negative"])
    def test_integers_past_the_float_range(self, huge):
        """Read as an infinity of their sign, they raise the documented errors."""
        obs = scalar_series([0.0, 1.0, 2.0, 3.0], np.zeros(4))
        planar = VectorObservationSeries(grid=obs.grid, values=np.zeros((4, 2)),
                                         informations=np.tile(np.eye(2), (4, 1, 1)))
        with pytest.raises(NonPositiveEta):
            solve_scalar(obs, huge)
        with pytest.raises(NonPositiveEta):
            solve_vector(planar, huge)
        for bracket in ((huge, 1e6), (1e-2, huge)):
            with pytest.raises(NonPositiveEta):
                search_eta(obs, 0.1, *bracket)
        with pytest.raises(UsageError, match="xi target"):
            search_eta(obs, huge, 1e-2, 1e6)

    def test_degenerate_weights(self):
        with pytest.raises(DegenerateWeights):
            scalar_series([0.0, 1.0, 2.0, 3.0], np.zeros(4), [1.0, 1.0, 0.0, 0.0])

    def test_negative_weights_rejected(self):
        with pytest.raises(DegenerateWeights):
            scalar_series([0.0, 1.0, 2.0, 3.0], np.zeros(4), [1.0, 1.0, 1.0, -0.5])

    def test_length_mismatch(self):
        grid = build_time_grid([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ShapeMismatch):
            ScalarObservationSeries(grid=grid, values=np.zeros(3), weights=np.ones(3))

    def test_too_few_points_via_grid(self):
        with pytest.raises(TooFewPoints):
            scalar_series([0.0, 1.0], [0.0, 1.0])

    def test_non_symmetric_information(self):
        times = np.linspace(0.0, 3.0, 4)
        info = np.tile(np.array([[1.0, 0.5], [0.2, 1.0]]), (4, 1, 1))
        with pytest.raises(NonSymmetricInformation):
            VectorObservationSeries(
                grid=build_time_grid(times),
                values=np.zeros((4, 2)),
                informations=info,
            )

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_information_roots_have_the_information_as_gram(self, dim):
        """The one eigendecomposition's root R satisfies R^T R = W, singular W included."""
        rng = np.random.default_rng(dim)
        factors = rng.standard_normal((8, dim, dim))
        factors[:4, :, -1] = 0.0  # rank-deficient informations
        infos = factors @ factors.transpose(0, 2, 1)
        infos[4] = 0.0
        sym, roots = _symmetrized(infos)
        assert np.array_equal(sym, infos)
        assert np.array_equal(roots[4], np.zeros((dim, dim)))
        gram = roots.transpose(0, 2, 1) @ roots
        assert np.abs(gram - infos).max() <= 1e-13 * np.abs(infos).max()

    @pytest.mark.parametrize("times", [
        np.arange(20.0),
        np.cumsum(np.r_[0.0, np.random.default_rng(1).uniform(0.3, 3.0, 19)]),
    ], ids=["uniform", "irregular"])
    def test_unobserved_direction_raises_singular_system(self, times):
        values = np.column_stack([np.sin(times), np.cos(times)])
        infos = np.tile(np.diag([1.0, 0.0]), (20, 1, 1))
        obs = VectorObservationSeries(
            grid=build_time_grid(times), values=values, informations=infos
        )
        with pytest.raises(SingularSystem):
            solve_vector(obs, 2.0)

    def test_null_directions_unseen_by_the_data_raise_singular_system(self, monkeypatch):
        """Alpha's triangle is singular when no null direction moves a position."""
        sweep = solver._sweep

        def unseen(*args):
            x, *rest = sweep(*args)
            x[:, :, 1:] = 0.0
            return (x, *rest)

        monkeypatch.setattr(solver, "_sweep", unseen)
        with pytest.raises(SingularSystem, match="singular"):
            solve_vector(random_vector_series(np.random.default_rng(3), 12, 2), 1.0)

    def test_alpha_least_squares_raises_on_a_zero_column(self):
        """The one alpha rule of batch and tracker: a QR least squares whose rows
        must keep full column rank."""
        rng = np.random.default_rng(53)
        b, A = rng.standard_normal(9), rng.standard_normal((9, 3))
        alpha, q, r = solver._least_squares(b, A)
        assert np.abs(A.T @ (A @ alpha - b)).max() <= 1e-13 * np.abs(A.T @ b).max()
        assert np.abs(q @ r - A).max() <= 1e-14 * np.abs(A).max()
        A[:, 1] = 0.0
        with pytest.raises(SingularSystem, match="singular"):
            solver._least_squares(b, A)

    @pytest.mark.parametrize("values, infos, error, match", [
        (np.zeros(4), np.tile(np.eye(2), (4, 1, 1)), ShapeMismatch, "values must have shape"),
        (np.zeros((4, 2)), np.tile(np.eye(3), (4, 1, 1)), ShapeMismatch,
         "informations must have shape"),
        (np.array([[0.0, 0.0], [1.0, np.nan], [2.0, 0.0], [3.0, 0.0]]),
         np.tile(np.eye(2), (4, 1, 1)), DataError, "observation values must be finite"),
        (np.zeros((4, 2)), np.tile(np.diag([1.0, np.inf]), (4, 1, 1)), DataError,
         "information matrices must be finite"),
        (np.zeros((4, 2)), np.stack([np.eye(2)] * 2 + [np.zeros((2, 2))] * 2),
         DegenerateWeights, "at least 3 samples"),
    ], ids=["values-shape", "informations-shape", "nan-value", "inf-information",
            "two-informed"])
    def test_vector_series_rejections(self, values, infos, error, match):
        with pytest.raises(error, match=match):
            VectorObservationSeries(
                grid=build_time_grid(np.arange(4.0)), values=values, informations=infos
            )

    @pytest.mark.parametrize("values, weights, error, match", [
        (np.zeros(4), np.ones(3), ShapeMismatch, "weights shape"),
        (np.zeros(4), np.ones((4, 1)), ShapeMismatch, "weights shape"),
        (np.array([0.0, np.nan, 0.0, 0.0]), np.ones(4), DataError, "must be finite"),
        (np.array([0.0, np.inf, 0.0, 0.0]), np.ones(4), DataError, "must be finite"),
        (np.zeros(4), np.array([1.0, np.inf, 1.0, 1.0]), DegenerateWeights, "finite"),
    ], ids=["short-weights", "column-weights", "nan-value", "inf-value", "inf-weight"])
    def test_scalar_series_rejections(self, values, weights, error, match):
        with pytest.raises(error, match=match):
            ScalarObservationSeries(
                grid=build_time_grid(np.arange(4.0)), values=values, weights=weights
            )

    def test_two_dimensional_times_rejected(self):
        with pytest.raises(ShapeMismatch, match="one-dimensional"):
            build_time_grid(np.arange(6.0).reshape(3, 2))

    def test_oracle_size_cap(self):
        times = np.arange(250.0)
        obs = scalar_series(times, np.zeros(250))
        with pytest.raises(Exception):
            solve_kkt_oracle(obs, 1.0)
