"""Batch solver behavior against closed forms and the dense stationarity oracle."""

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

    @pytest.mark.xfail(strict=True, reason=(
        "one refinement step does not hold 1e-9 on every grid spread over 5 decades: "
        "over default_rng([5, s, 9]) for s = 0 ... 9 the worst error was 6.4e-3 "
        "(s = 7), and 5 of the 10 seeds exceeded 1e-9"))
    def test_affine_bound_holds_on_other_five_decade_grids(self):
        worst = max(affine_error_on_spread_grids(np.random.default_rng([5, s, 9]), 5)
                    for s in range(10))
        assert worst <= 1e-9


def random_vector_series(rng, m, dim):
    """Gaps spread over one decade, correlated informations, 10% placeholders."""
    times = np.concatenate([[0.0], np.cumsum(10.0 ** rng.uniform(-0.5, 0.5, m - 1))])
    values = rng.standard_normal((m, dim)) * 3.0 + times[:, None] * rng.standard_normal(dim)
    factors = rng.standard_normal((m, dim, dim))
    infos = factors @ factors.transpose(0, 2, 1) + 0.1 * np.eye(dim)
    infos[rng.choice(m, max(1, m // 10), replace=False)] = 0.0
    return VectorObservationSeries(grid=build_time_grid(times), values=values, informations=infos)


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
        """The refined QR sweep solves its block-tridiagonal system like a dense LU."""
        rng = np.random.default_rng([29, dim])
        for eta in (1e-3, 1.0, 1e6):
            obs = random_vector_series(rng, 60, dim)
            rows = solver._stationarity_rows(obs.grid.taus, obs.values, obs.informations, eta)
            m, b, _ = rows.shape
            dense = np.zeros((m * b, (m + 2) * b))
            for i in range(m):
                dense[i * b:(i + 1) * b, i * b:(i + 3) * b] = rows[i, :, :3 * b]
            expected = np.linalg.solve(dense[:, b:-b], rows[:, :, 3 * b:].reshape(m * b, -1))
            found = solver._refined_sweep(rows.copy()).reshape(m * b, -1)
            assert np.abs(found - expected).max() <= 1e-12 * np.abs(expected).max()

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
        vector = solve_vector(
            VectorObservationSeries(
                grid=scalar.grid, values=values[:, None],
                informations=weights[:, None, None],
            ),
            2.0, time_reversed,
        )
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
            rank=2,
        )
        assert rms_acceleration(traj) == pytest.approx(2.0, rel=1e-12)

    def test_decreases_with_eta_on_noisy_data(self):
        obs = gen_scalar_rednoise(0).observations
        low = rms_acceleration(solve_scalar(obs, 1.0))
        high = rms_acceleration(solve_scalar(obs, 1e4))
        assert high < low


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


class TestValidation:
    def test_non_positive_eta(self):
        obs = scalar_series([0.0, 1.0, 2.0, 3.0], np.zeros(4))
        for eta in (0.0, -1.0, np.nan):
            with pytest.raises(NonPositiveEta):
                solve_scalar(obs, eta)

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

    def test_oracle_size_cap(self):
        times = np.arange(250.0)
        obs = scalar_series(times, np.zeros(250))
        with pytest.raises(Exception):
            solve_kkt_oracle(obs, 1.0)
