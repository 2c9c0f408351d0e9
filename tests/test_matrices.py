"""Structured-operator construction and identity checks."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from shadowtrack import (
    NonIncreasingTimes,
    TooFewPoints,
    build_filter_matrices,
    build_time_grid,
    verify_identities,
)
from shadowtrack.matrices import _symmetrized


def random_grid(rng, n, lo=0.5, hi=4.0):
    taus = rng.uniform(lo, hi, size=n)
    return build_time_grid(np.concatenate([[0.0], np.cumsum(taus)]))


class TestTimeGrid:
    def test_times_and_taus(self):
        grid = build_time_grid([0.0, 1.0, 3.0, 6.0, 10.0])
        assert np.array_equal(grid.times, [0.0, 1.0, 3.0, 6.0, 10.0])
        assert np.array_equal(grid.taus, [1.0, 2.0, 3.0, 4.0])

    def test_arrays_are_frozen(self):
        grid = build_time_grid([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            grid.times[0] = 5.0

    def test_non_increasing_times_rejected(self):
        with pytest.raises(NonIncreasingTimes):
            build_time_grid([0.0, 2.0, 2.0, 3.0])
        with pytest.raises(NonIncreasingTimes):
            build_time_grid([0.0, 2.0, 1.0, 3.0])

    def test_too_few_points_rejected(self):
        with pytest.raises(TooFewPoints):
            build_time_grid([0.0, 1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(NonIncreasingTimes):
            build_time_grid([0.0, np.nan, 2.0, 3.0])


class TestStructuredShapes:
    def test_shapes_follow_gap_count(self):
        grid = build_time_grid([0.0, 1.0, 3.0, 6.0, 10.0])
        fm = build_filter_matrices(grid)
        n = 4
        assert fm.D.shape == (n, n)
        assert fm.E.shape == (n + 1, n)
        assert fm.L.shape == (n, n)
        assert fm.M.shape == (n, n + 1)
        assert fm.G.shape == (n - 1, n)
        assert fm.B.shape == (n - 1, n + 1)
        assert fm.A.shape == (n - 1, n + 1)
        assert fm.a_bar.shape == (n, n + 1)
        assert fm.b_bar.shape == (n, n + 1)
        assert fm.accel_core.shape == (n, n + 1)

    def test_difference_entries(self):
        grid = build_time_grid([0.0, 1.0, 2.0, 3.0, 4.0])
        fm = build_filter_matrices(grid)
        n = 4
        assert np.array_equal(fm.D, -np.eye(n) + np.eye(n, k=-1))
        assert np.array_equal(fm.E, -np.eye(n + 1, n) + np.eye(n + 1, n, k=-1))
        assert np.array_equal(fm.L, -np.tril(np.ones((n, n))))
        assert np.array_equal(fm.M, -np.tril(np.ones((n, n + 1))))

    def test_quadrature_entries_on_nonuniform_grid(self):
        grid = build_time_grid([0.0, 1.0, 3.0, 6.0, 10.0])
        fm = build_filter_matrices(grid)
        taus = grid.taus
        for i in range(3):
            row = np.zeros(4)
            row[i] = taus[i] ** 2 * taus[i + 1]
            row[i + 1] = taus[i] * taus[i + 1] ** 2
            assert np.array_equal(fm.G[i], row)
        for i in range(3):
            row = np.zeros(5)
            row[i] = taus[i + 1]
            row[i + 1] = -(taus[i] + taus[i + 1])
            row[i + 2] = taus[i]
            assert np.array_equal(fm.B[i], row)


class TestIdentities:
    def test_worked_grid_is_exact(self):
        fm = build_filter_matrices(build_time_grid([0.0, 1.0, 3.0, 6.0, 10.0]))
        report = verify_identities(fm)
        assert report.difference_inverse == 0.0
        assert report.extended_coupling == 0.0
        assert report.ok
        assert not replace(report, extended_coupling=1.0).ok

    @pytest.mark.parametrize("n", range(3, 21))
    def test_inverse_identities_random_grids(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            fm = build_filter_matrices(random_grid(rng, n))
            assert np.array_equal(fm.D @ fm.L, np.eye(n))
            coupling = np.zeros((n + 1, n + 1))
            coupling[:n, :n] = np.eye(n)
            coupling[n, :n] = -1.0
            assert np.array_equal(fm.E @ fm.M, coupling)

    @pytest.mark.parametrize("n", range(3, 21))
    def test_affine_annihilation(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(10):
            grid = random_grid(rng, n)
            fm = build_filter_matrices(grid)
            affine = 1.7 + 0.6 * grid.times
            scale = np.abs(fm.B).max() * np.abs(affine).max()
            assert np.abs(fm.B @ affine).max() <= 1e-12 * scale
            assert np.abs(fm.b_bar @ affine).max() <= 1e-12 * scale


class TestImmutability:
    def test_matrices_are_frozen(self):
        fm = build_filter_matrices(build_time_grid([0.0, 1.0, 2.0, 3.0]))
        for name in ("D", "E", "L", "M", "G", "B", "A", "a_bar", "b_bar", "accel_core"):
            arr = getattr(fm, name)
            with pytest.raises(ValueError):
                arr[0, 0] = 99.0


class TestSymmetrized:
    def test_information_near_the_float_range_raises_no_warning(self):
        """W is halved before W^T is added, so entries past 9e307 do not overflow."""
        infos = np.diag([1e308, 1e308])[None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sym, roots = _symmetrized(infos)
        assert np.array_equal(sym, infos)
        gram = roots[0].T @ roots[0]
        assert np.abs(gram - infos[0]).max() <= 1e-15 * 1e308
