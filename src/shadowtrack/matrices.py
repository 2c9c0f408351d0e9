"""The structured matrices of the smoothing linear system, and its dense oracle.

The smoother works on a window of samples at strictly increasing times
t_0 < t_1 < ... < t_n with gaps tau_i = t_{i+1} - t_i. Positions are
modelled with a constant acceleration on each gap, and eliminating the
dual variables of the underlying constrained least-squares problem leaves
a small family of banded matrices that this module assembles:

* first-difference operators (square and extended by one row),
* running-sum operators that invert them,
* a junction operator that couples three consecutive positions through
  the two gaps that meet there,
* gap-product couplings between accelerations on adjacent intervals,
* the acceleration-recovery core mapping weighted position residuals to
  interval accelerations,
* the assembled system blocks, augmented with a weighted-mean-residual
  constraint row.

Beside them sits a dense solver for the complete stationarity system,
duals and terminal row included, assembled by blocks from the same
operators. It shares no code with the production solve and is kept as an
oracle for tests and diagnostics; no command runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystem, UsageError
from .series import ScalarObservationSeries, TimeGrid, _frozen, _require_positive_eta
# Bound for perfbench/workloads.py's ``from shadowtrack.matrices import build_time_grid``.
from .series import build_time_grid  # noqa: F401

__all__ = [
    "FilterMatrices",
    "IdentityReport",
    "OracleSolution",
    "build_filter_matrices",
    "verify_identities",
    "solve_kkt_oracle",
    "oracle_residuals",
]


def _difference(rows: int, cols: int) -> np.ndarray:
    """-1 on the main diagonal, +1 on the first subdiagonal."""
    return -np.eye(rows, cols) + np.eye(rows, cols, k=-1)


def _running_sum(rows: int, cols: int) -> np.ndarray:
    """Negated lower-triangular ones; inverts the difference operators."""
    return -np.tril(np.ones((rows, cols)))


def _coupling_reference(n: int) -> np.ndarray:
    """Product of the extended difference and running-sum operators.

    Identity on the first n rows; the last row carries -1 under each of
    the first n columns and a zero corner.
    """
    j = np.zeros((n + 1, n + 1))
    j[:n, :n] = np.eye(n)
    j[n, :n] = -1.0
    return j


def _gap_products(taus: np.ndarray) -> np.ndarray:
    """Couplings tau_i^2 tau_{i+1} and tau_i tau_{i+1}^2 on adjacent gaps."""
    n = taus.shape[0]
    g = np.zeros((n - 1, n))
    inner = taus[:-1] * taus[1:]
    idx = np.arange(n - 1)
    g[idx, idx] = inner * taus[:-1]
    g[idx, idx + 1] = inner * taus[1:]
    return g


def _junction(taus: np.ndarray) -> np.ndarray:
    """Three-point position stencil across each interior sample.

    Row i reads tau_{i+1} * p_i - (tau_i + tau_{i+1}) * p_{i+1} + tau_i * p_{i+2},
    which vanishes on any sequence affine in time.
    """
    n = taus.shape[0]
    b = np.zeros((n - 1, n + 1))
    idx = np.arange(n - 1)
    b[idx, idx] = taus[1:]
    b[idx, idx + 1] = -(taus[:-1] + taus[1:])
    b[idx, idx + 2] = taus[:-1]
    return b


def _accel_core(taus: np.ndarray) -> np.ndarray:
    """Map from weighted position residuals to twice-penalized accelerations.

    Equals (tau/2 + running_sum @ tau) @ extended_running_sum with tau as a
    diagonal scaling; lower-triangular with a zero last column.
    """
    n = taus.shape[0]
    tau = np.diag(taus)
    m = _running_sum(n, n + 1)
    el = _running_sum(n, n)
    return 0.5 * (tau @ m) + el @ (tau @ m)


@dataclass(frozen=True)
class FilterMatrices:
    """Assembled system blocks for one time grid.

    All arrays are read-only and scalar: entry (i, j) couples samples i
    and j, whatever the dimension of the positions. ``a_bar`` and
    ``b_bar`` are the augmented blocks of the master system
    (a_bar @ diag(w) + eta * b_bar) p = a_bar @ diag(w) @ obs, whose
    final row enforces a zero weighted mean residual; for d-dimensional
    positions each sample's d-by-d information matrix is scaled by the
    a_bar entry and the identity by the b_bar entry. ``accel_core``
    recovers interval accelerations from the weighted residuals of a
    solved trajectory. The solver never forms these dense blocks; it
    solves the equivalent least squares over positions, velocities and
    accelerations, and tests check it against them.
    """

    grid: TimeGrid
    D: np.ndarray           # (n, n)     first difference
    E: np.ndarray           # (n+1, n)   extended first difference
    L: np.ndarray           # (n, n)     running sum, inverse of D
    M: np.ndarray           # (n, n+1)   extended running sum
    G: np.ndarray           # (n-1, n)   adjacent-gap products
    B: np.ndarray           # (n-1, n+1) three-point junction stencil
    A: np.ndarray           # (n-1, n+1) quarter gap-product of the accel core
    a_bar: np.ndarray       # (n, n+1)   A plus a row of ones
    b_bar: np.ndarray       # (n, n+1)   B plus a row of zeros
    accel_core: np.ndarray  # (n, n+1)

    @property
    def n(self) -> int:
        return self.grid.n


def build_filter_matrices(grid: TimeGrid) -> FilterMatrices:
    """Assemble all system blocks for a grid, in forward time."""
    n = grid.n
    g = _gap_products(grid.taus)
    b = _junction(grid.taus)
    core = _accel_core(grid.taus)
    a = 0.25 * (g @ core)
    return FilterMatrices(
        grid=grid,
        D=_frozen(_difference(n, n)),
        E=_frozen(_difference(n + 1, n)),
        L=_frozen(_running_sum(n, n)),
        M=_frozen(_running_sum(n, n + 1)),
        G=_frozen(g),
        B=_frozen(b),
        A=_frozen(a),
        a_bar=_frozen(np.vstack([a, np.ones((1, n + 1))])),
        b_bar=_frozen(np.vstack([b, np.zeros((1, n + 1))])),
        accel_core=_frozen(core),
    )


@dataclass(frozen=True)
class IdentityReport:
    """Deviations of the exact operator identities, zero when healthy."""

    difference_inverse: float   # max |L @ D - I| over the square operators
    extended_coupling: float    # max |E @ M - J| with J the coupling reference

    @property
    def ok(self) -> bool:
        return self.difference_inverse == 0.0 and self.extended_coupling == 0.0


def verify_identities(fm: FilterMatrices) -> IdentityReport:
    """Check the integer operator identities of an assembled system.

    The running sums invert the difference operators exactly, and the
    extended pair reproduces the coupling reference exactly; entries are
    all 0 or +-1 so any nonzero deviation indicates a construction bug.
    """
    n = fm.n
    dl = fm.D @ fm.L - np.eye(n)
    em = fm.E @ fm.M - _coupling_reference(n)
    return IdentityReport(
        difference_inverse=float(np.max(np.abs(dl))),
        extended_coupling=float(np.max(np.abs(em))),
    )


@dataclass(frozen=True)
class OracleSolution:
    """Exact stationary point of the penalized fit, duals included.

    Solved as one dense square system, so it carries no elimination
    approximation; used to validate the production solver.
    """

    grid: TimeGrid
    eta: float
    positions: np.ndarray      # (n+1,)
    velocities: np.ndarray     # (n+1,)
    accelerations: np.ndarray  # (n,)
    lambdas: np.ndarray        # (n,)  duals of the position updates
    mus: np.ndarray            # (n,)  duals of the velocity updates


def solve_kkt_oracle(obs: ScalarObservationSeries, eta: float) -> OracleSolution:
    """Solve the full stationarity system directly, duals included.

    Unknowns are stacked as [p (n+1), v (n+1), a (n), lambda (n), mu (n)].
    The dense matrix is assembled by blocks from the first differences E
    and D of ``build_filter_matrices`` and shares no code with the
    structured solve; the result is exact up to linear-solver rounding.
    Quadratic in memory and cubic in time, hence capped at small windows;
    this is a testing oracle, not the production path.
    """
    eta = _require_positive_eta(eta)
    grid = obs.grid
    n = grid.n
    if n > 200:
        raise UsageError(f"oracle supports n <= 200 gaps, got {n}")
    fm = build_filter_matrices(grid)
    w, tau, eye = obs.weights, np.diag(grid.taus), np.eye(n)
    Z = np.zeros((5 * n + 2, 5 * n + 2))
    rhs = np.zeros(5 * n + 2)
    # The unknowns' blocks also name the row blocks: the stationarity of p, v
    # and a, then the interval dynamics that lambda and mu enforce. Each
    # statement below fills one block row.
    p, v, a = slice(0, n + 1), slice(n + 1, 2 * n + 2), slice(2 * n + 2, 3 * n + 2)
    lam, mu = slice(3 * n + 2, 4 * n + 2), slice(4 * n + 2, 5 * n + 2)
    gaps = slice(n + 1, 2 * n + 1)  # v but its last entry: one velocity per gap
    # Position stationarity: W p + E lambda = W obs.
    Z[p, p], Z[p, lam], rhs[p] = np.diag(w), fm.E, w * obs.values
    # Velocity stationarity: D mu = tau lambda on each gap, and mu_{n-1} = 0.
    Z[gaps, lam], Z[gaps, mu], Z[v.stop - 1, mu.stop - 1] = -tau, fm.D, 1.0
    # Acceleration stationarity: 2 eta a = tau lambda / 2 + mu.
    Z[a, a], Z[a, lam], Z[a, mu] = 2.0 * eta * eye, -0.5 * tau, -eye
    # Interval dynamics: E^T differences consecutive positions and velocities.
    Z[lam, p], Z[lam, gaps], Z[lam, a] = fm.E.T, -tau, np.diag(-0.5 * grid.taus ** 2)
    Z[mu, v], Z[mu, a] = fm.E.T, -tau
    try:
        sol = np.linalg.solve(Z, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(
            f"stationarity system is singular (1-norm condition estimate "
            f"{np.linalg.cond(Z, 1):.3e})"
        ) from exc
    if not np.all(np.isfinite(sol)):
        raise SingularSystem("stationarity solve produced non-finite values")
    return OracleSolution(
        grid=grid, eta=eta,
        positions=_frozen(sol[p]),
        velocities=_frozen(sol[v]),
        accelerations=_frozen(sol[a]),
        lambdas=_frozen(sol[lam]),
        mus=_frozen(sol[mu]),
    )


def oracle_residuals(sol: OracleSolution, obs: ScalarObservationSeries) -> dict[str, float]:
    """Max relative residual of each stationarity equation family.

    Each residual is normalized by one plus the largest magnitude among
    the terms entering that family, so values are comparable across
    scales; all should sit at rounding level for a healthy solve.
    """
    taus = sol.grid.taus
    w = obs.weights
    p, v, a = sol.positions, sol.velocities, sol.accelerations
    lam, mu = sol.lambdas, sol.mus

    position = w * (p - obs.values)
    position[:-1] -= lam
    position[1:] += lam
    pos_scale = max(np.abs(w * obs.values).max(), np.abs(lam).max(), 1.0)

    velocity = np.empty(sol.grid.n + 1)
    velocity[:-1] = (np.concatenate([[0.0], mu[:-1]]) - mu) - taus * lam
    velocity[-1] = mu[-1]
    vel_scale = max(np.abs(mu).max(), np.abs(taus * lam).max(), 1.0)

    accel = 2.0 * sol.eta * a - 0.5 * taus * lam - mu
    acc_scale = max(np.abs(2.0 * sol.eta * a).max(), np.abs(mu).max(), 1.0)

    dyn_p = p[1:] - p[:-1] - v[:-1] * taus - 0.5 * a * taus ** 2
    dyn_p_scale = max(np.abs(p).max(), 1.0)
    dyn_v = v[1:] - v[:-1] - a * taus
    dyn_v_scale = max(np.abs(v).max(), 1.0)

    return {
        "position": float(np.abs(position).max() / pos_scale),
        "velocity": float(np.abs(velocity).max() / vel_scale),
        "acceleration": float(np.abs(accel).max() / acc_scale),
        "dynamics_position": float(np.abs(dyn_p).max() / dyn_p_scale),
        "dynamics_velocity": float(np.abs(dyn_v).max() / dyn_v_scale),
    }
