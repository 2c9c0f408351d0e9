"""Trajectory smoothing by penalized piecewise-constant-acceleration fits.

Given timestamped d-dimensional observations with per-sample information
matrices W_j (inverse error covariances; scalar weights are the d = 1
case), the smoother finds positions p, velocities v and per-interval
accelerations a that trade weighted fidelity to the observations against
the summed squared acceleration, with trade-off weight eta. Eliminating
the dual variables of the stationarity conditions leaves one linear
system in the positions alone, with d-by-d blocks:

    sum_j (a_bar[i, j] W_j + eta * b_bar[i, j] I_d) p_j = sum_j a_bar[i, j] W_j obs_j

with the scalar blocks from the matrices module. The system has d more
unknowns than equations; the missing degrees of freedom are the initial
velocity, which long windows render unimportant. Of the solution family
we return the member minimizing the information-weighted squared
residual to the observations, which keeps noiseless affine data exact,
reproduces the weighted line fit as eta grows, and ignores values carried
by zero-information placeholder slots.

The solve never forms that dense system. Its solution family is exactly
the position part of the complete stationarity system (positions,
velocities, accelerations and both dual sequences) without its terminal
row mu_{n-1} = 0, the stationarity of the final velocity. With that row
replaced by a pin on the final velocity and each sample's unknowns
(p, v, a, lambda, mu) interleaved, the matrix is block tridiagonal with
blocks of 5d unknowns. One sweep of small Householder QR factorizations
solves it for d + 1 right-hand sides at once: the data with the pin at
zero gives a particular solution, and zero data with the pin at each unit
vector gives the d null directions. A second sweep on the residual (one
step of iterative refinement) recovers the digits that badly spread gaps
cost the first. Time and memory grow linearly in the number of samples,
and the accelerations come out of the same solve.

Eliminating the duals is causal, so the scheme's approximation error
gathers at the start of the window the system is built on. A tracker
emits the newest sample, so the default orientation is the forward solve
on mirrored time: the samples are reversed, the forward system is solved
on the reversed gaps, and the solution is reversed back, which leaves the
error at the oldest samples. Both orientations thus share one assembly.

A dense solver for the complete stationarity system, terminal row
included, is kept as an oracle for tests and diagnostics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BracketDoesNotStraddle,
    DataError,
    DegenerateWeights,
    IndefiniteInformation,
    MaxIterations,
    NonPositiveEta,
    NonSymmetricInformation,
    ShapeMismatch,
    SingularSystem,
    TimeOutOfRange,
    UsageError,
)
# build_filter_matrices stays importable from here: it is the operator
# layer of the master system, which the structured solve no longer forms.
from .matrices import TimeGrid, _frozen, build_filter_matrices  # noqa: F401

__all__ = [
    "ScalarObservationSeries",
    "VectorObservationSeries",
    "ShadowingTrajectory",
    "OracleSolution",
    "EtaSearchResult",
    "solve_scalar",
    "solve_vector",
    "rms_acceleration",
    "search_eta",
    "evaluate_spline",
    "evaluate_spline_velocity",
    "solve_kkt_oracle",
    "oracle_residuals",
]

# Sweep panels hold about this many rows, so that each QR call eliminates
# several samples when the blocks are small (5d rows per sample).
PANEL_ROWS = 25

_EPS = float(np.finfo(float).eps)

MIN_EFFECTIVE_SAMPLES = 3

# search_eta stops once xi is within this fraction of its target, and
# gives up after this many steps inside the bracket.
SEARCH_REL_TOL = 2e-5
SEARCH_MAX_ITERATIONS = 100


def _require_positive_eta(eta: float) -> float:
    eta = float(eta)
    if not np.isfinite(eta) or eta <= 0.0:
        raise NonPositiveEta(f"eta must be a positive finite number, got {eta!r}")
    return eta


@dataclass(frozen=True)
class ScalarObservationSeries:
    """One-dimensional observations with per-sample weights.

    Weights are inverse error variances; a weight of zero marks a
    placeholder slot whose value is ignored by the fit but whose time
    stays in the grid.
    """

    grid: TimeGrid
    values: np.ndarray   # (n+1,)
    weights: np.ndarray  # (n+1,), >= 0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        m = self.grid.times.shape[0]
        if values.shape != (m,):
            raise ShapeMismatch(f"values shape {values.shape} does not match grid of {m} samples")
        if weights.shape != (m,):
            raise ShapeMismatch(f"weights shape {weights.shape} does not match grid of {m} samples")
        if not np.all(np.isfinite(values)):
            raise DataError("observation values must be finite")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
            raise DegenerateWeights("weights must be finite and non-negative")
        if int(np.count_nonzero(weights > 0.0)) < MIN_EFFECTIVE_SAMPLES:
            raise DegenerateWeights(
                f"need at least {MIN_EFFECTIVE_SAMPLES} positive weights, "
                f"got {int(np.count_nonzero(weights > 0.0))}"
            )
        object.__setattr__(self, "values", _frozen(values))
        object.__setattr__(self, "weights", _frozen(weights))


@dataclass(frozen=True)
class VectorObservationSeries:
    """d-dimensional observations with per-sample information matrices.

    Information matrices are inverses of the observation error
    covariances; they must be symmetric and positive semidefinite. A zero
    matrix marks a placeholder slot.
    """

    grid: TimeGrid
    values: np.ndarray        # (n+1, d)
    informations: np.ndarray  # (n+1, d, d)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        infos = np.asarray(self.informations, dtype=float)
        m = self.grid.times.shape[0]
        if values.ndim != 2 or values.shape[0] != m or values.shape[1] < 1:
            raise ShapeMismatch(
                f"values must have shape ({m}, d), got {values.shape}"
            )
        d = values.shape[1]
        if infos.shape != (m, d, d):
            raise ShapeMismatch(
                f"informations must have shape ({m}, {d}, {d}), got {infos.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise DataError("observation values must be finite")
        if not np.all(np.isfinite(infos)):
            raise DataError("information matrices must be finite")
        sym = _symmetrized(infos)
        usable = int(np.count_nonzero(np.trace(sym, axis1=1, axis2=2) > 0.0))
        if usable < MIN_EFFECTIVE_SAMPLES:
            raise DegenerateWeights(
                f"need at least {MIN_EFFECTIVE_SAMPLES} samples with nonzero "
                f"information, got {usable}"
            )
        object.__setattr__(self, "values", _frozen(values))
        object.__setattr__(self, "informations", _frozen(sym))

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def _symmetrized(infos: np.ndarray, where: str = "at sample {}") -> np.ndarray:
    """Symmetric parts of finite (m, d, d) information matrices.

    Raises NonSymmetricInformation or IndefiniteInformation for the first
    matrix that is not symmetric, or not positive semidefinite, to within
    1e-12 of one plus its largest entry; ``where`` names it in the message,
    formatted with its index.
    """
    scale = np.abs(infos).max(axis=(1, 2))
    skew = np.abs(infos - np.transpose(infos, (0, 2, 1))).max(axis=(1, 2))
    bad = np.nonzero(skew > 1e-12 * (1.0 + scale))[0]
    if bad.size:
        raise NonSymmetricInformation(
            f"information matrix {where.format(int(bad[0]))} is not symmetric "
            f"(max asymmetry {skew[bad[0]]:.3e})"
        )
    sym = 0.5 * (infos + np.transpose(infos, (0, 2, 1)))
    low = np.linalg.eigvalsh(sym).min(axis=1)
    bad = np.nonzero(low < -1e-12 * (1.0 + scale))[0]
    if bad.size:
        raise IndefiniteInformation(
            f"information matrix {where.format(int(bad[0]))} has eigenvalue "
            f"{low[bad[0]]:.3e}"
        )
    return sym


@dataclass(frozen=True)
class ShadowingTrajectory:
    """Solved trajectory: positions at the samples, one acceleration per gap.

    Velocities satisfy the interval dynamics exactly by construction:
    p_{i+1} = p_i + v_i tau_i + a_i tau_i^2 / 2. Scalar fits store
    one-dimensional arrays, planar fits store (n+1, d) and (n, d).
    """

    grid: TimeGrid
    eta: float
    positions: np.ndarray      # (n+1,) or (n+1, d)
    velocities: np.ndarray     # (n+1,) or (n+1, d)
    accelerations: np.ndarray  # (n,) or (n, d)
    time_reversed: bool
    # 2-norm of the master-system residual (a_bar W + eta b_bar) p - a_bar W obs
    # of the returned positions, in the solved orientation, summed in O(n).
    residual_norm: float
    # Rank of the master system, d n for n + 1 samples: the solve raises
    # SingularSystem rather than return a rank-deficient fit.
    rank: int

    @property
    def dim(self) -> int:
        return 1 if self.positions.ndim == 1 else self.positions.shape[1]


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


@dataclass(frozen=True)
class EtaSearchResult:
    """Outcome of searching eta for a target RMS acceleration."""

    eta: float
    xi: float
    iterations: int
    trace: tuple[tuple[float, float], ...]  # (eta, xi) in evaluation order
    trajectory: ShadowingTrajectory  # the fit at ``eta``, whose RMS acceleration is xi


def _stationarity_rows(taus: np.ndarray, values: np.ndarray, infos: np.ndarray,
                       eta: float) -> np.ndarray:
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
    # [sample, equation, coupled sample (previous, own, next), unknown, row, column]
    K = np.zeros((m, 5, 3, 5, d, d))
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
    b = 5 * d
    rows = np.zeros((m, b, 3 * b + d + 1))
    rows[:, :, :3 * b] = K.transpose(0, 1, 4, 2, 3, 5).reshape(m, b, 3 * b)
    rows[:, :d, 3 * b] = np.einsum("jab,jb->ja", infos, values)
    rows[-1, d:2 * d, 3 * b + 1:] = eye
    rows /= np.abs(rows[:, :, :3 * b]).max(axis=2)[:, :, None]
    return rows


def _sweep(rows: np.ndarray) -> np.ndarray:
    """Solve block-tridiagonal rows from ``_stationarity_rows`` by QR.

    Each panel stacks the carried, triangularized rows of the previous
    panel on the next few row blocks; one Householder QR eliminates their
    leading samples, keeps the final rows of R and carries the rest. Back
    substitution then runs over the panels in reverse. Returns the
    (m, b, k) solution for every right-hand side.
    """
    m, b, width = rows.shape
    k = width - 3 * b
    s = max(1, round(PANEL_ROWS / b))  # row blocks per panel
    panels = -(-(m - 1) // s)
    padded = 1 + panels * s
    if padded > m:
        # Decoupled identity blocks with zero right-hand side.
        pad = np.zeros((padded - m, b, width))
        pad[:, :, b:2 * b] = np.eye(b)
        rows = np.concatenate([rows, pad])
    sb, cols = s * b, (s + 2) * b
    # Panel g holds b carried rows over row blocks g s + 1 ... g s + s, in
    # the columns of samples g s ... g s + s + 1 and the right-hand sides.
    work = np.zeros((panels + 1, sb + b, cols + k))
    for t in range(s):
        block = work[:-1, (t + 1) * b:(t + 2) * b]
        block[:, :, t * b:(t + 3) * b] = rows[1 + t::s, :, :3 * b]
        block[:, :, cols:] = rows[1 + t::s, :, 3 * b:]
    work[0, :b, :2 * b] = rows[0, :, b:3 * b]
    work[0, :b, cols:] = rows[0, :, 3 * b:]
    upper = np.triu(np.ones((b, b)))
    done = np.empty((panels, sb, cols + k))
    for g in range(panels):
        # LAPACK's raw layout holds R transposed; entries below its
        # diagonal are reflectors, masked off in the carried rows.
        r = np.linalg.qr(work[g], mode="raw")[0].T
        done[g] = r[:sb]
        carry = work[g + 1, :b]
        np.multiply(r[sb:, sb:sb + b], upper, out=carry[:, :b])
        carry[:, b:2 * b] = r[sb:, sb + b:cols]
        carry[:, cols:] = r[sb:, cols:]
    last = work[panels, :b]
    pivots = np.abs(np.concatenate([np.diagonal(done[:, :, :sb], axis1=1, axis2=2).ravel(),
                                    np.diagonal(last)]))
    _require_nonsingular(pivots.min(), pivots.max())
    # x_panel = c - H [x_next; x_after] for each panel's leading samples.
    solved = _back_substitute(done[:, :, :sb], done[:, :, sb:])
    H, c = solved[:, :, :2 * b], solved[:, :, 2 * b:]
    x = np.zeros((padded + 1, b, k))
    x[padded - 1] = np.linalg.solve(last[:, :b], last[:, cols:])
    for g in range(panels - 1, -1, -1):
        j = g * s
        after = x[j + s:j + s + 2].reshape(2 * b, k)
        x[j:j + s] = (c[g] - H[g] @ after).reshape(s, b, k)
    return x[:m]


def _back_substitute(tri: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a stack of upper-triangular systems, row by row."""
    out = np.empty_like(rhs)
    for r in range(tri.shape[1] - 1, -1, -1):
        dot = (tri[:, r:r + 1, r + 1:] @ out[:, r + 1:])[:, 0]
        out[:, r] = (rhs[:, r] - dot) / tri[:, r, r, None]
    return out


def _block_product(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The coefficient blocks of ``rows`` applied to x, (m, b, k)."""
    b = rows.shape[1]
    edge = np.zeros((1,) + x.shape[1:])
    padded = np.concatenate([edge, x, edge])
    return (rows[:, :, :b] @ padded[:-2] + rows[:, :, b:2 * b] @ padded[1:-1]
            + rows[:, :, 2 * b:3 * b] @ padded[2:])


def _refined_sweep(rows: np.ndarray) -> np.ndarray:
    """``_sweep`` followed by one step of iterative refinement.

    The first solution's residual replaces the right-hand sides of
    ``rows`` (which are overwritten) and is swept again. On affine data
    over gaps spread across 3 to 5 decades the first sweep keeps only 7
    to 2 digits; the correction restores 10 or more.
    """
    b = rows.shape[1]
    x = _sweep(rows)
    rows[:, :, 3 * b:] -= _block_product(rows, x)
    x += _sweep(rows)
    if not np.all(np.isfinite(x)):
        raise SingularSystem("stationarity solve produced non-finite values")
    return x


def _master_residual(taus, values, infos, eta, p) -> float:
    """2-norm of (a_bar W + eta b_bar) p - a_bar W obs, in O(n).

    a_bar W (p - obs) stacks 0.25 G core u on the sum of u = W (p - obs),
    and the core's running sums are cumulative sums; b_bar p is the
    three-point junction stencil.
    """
    u = np.einsum("jab,jb->ja", infos, p - values)
    t = taus[:, None]
    run = -np.cumsum(u, axis=0)[:-1]
    core = 0.5 * t * run - np.cumsum(t * run, axis=0)
    gap = t[:-1] * t[1:] * (t[:-1] * core[:-1] + t[1:] * core[1:])
    junction = t[1:] * p[:-2] - (t[:-1] + t[1:]) * p[1:-1] + t[:-1] * p[2:]
    rows = 0.25 * gap + eta * junction
    return float(np.sqrt(np.sum(rows ** 2) + np.sum(u.sum(axis=0) ** 2)))


def _solve(grid: TimeGrid, values: np.ndarray, infos: np.ndarray, eta: float,
           time_reversed: bool) -> ShadowingTrajectory:
    """Solve the master system for (m, d) values with (m, d, d) informations.

    The structured sweep gives the particular solution x0 and null
    directions Z of the pinned stationarity system; the coefficients alpha
    of x0 + Z alpha minimize the information-weighted squared residual of
    the positions to the observations. Velocities are recovered in the
    original frame.
    """
    m, d = values.shape
    taus = grid.taus
    if time_reversed:
        # Mirrored time has the same gaps in reverse order.
        taus, values, infos = taus[::-1], values[::-1], infos[::-1]
    x = _refined_sweep(_stationarity_rows(taus, values, infos, eta))
    p0, z = x[:, :d, 0], x[:, :d, 1:]
    wz = np.einsum("jab,jbc->jac", infos, z)
    gram = np.einsum("jac,jad->cd", z, wz)
    beta = np.einsum("jac,ja->c", wz, values - p0)
    alpha = np.linalg.lstsq(gram, beta, rcond=None)[0]
    p = p0 + z @ alpha
    a = x[:-1, 2 * d:3 * d, 0] + x[:-1, 2 * d:3 * d, 1:] @ alpha
    resid = _master_residual(taus, values, infos, eta, p)
    if time_reversed:
        p, a = p[::-1], a[::-1]
    # Velocities making each interval's quadratic hit both endpoints.
    taus = grid.taus[:, None]
    head = np.diff(p, axis=0) / taus - 0.5 * a * taus
    v = np.concatenate([head, head[-1:] + a[-1:] * taus[-1:]], axis=0)
    return ShadowingTrajectory(
        grid=grid, eta=eta, positions=_frozen(p), velocities=_frozen(v),
        accelerations=_frozen(a), time_reversed=time_reversed,
        residual_norm=resid, rank=d * (m - 1),
    )


class _IncrementalSolve:
    """The default (time-reversed) solve of a growing series, one sample at a time.

    Number the samples 0 (oldest) to N (newest). The pinned system of
    ``_solve`` is eliminated from its pin at sample 0 toward the newest
    sample, the square-root information form of the smoother: the rows
    left over after eliminating samples 0 ... N-2 (the carry) are b = 5d
    triangularized equations in the unknowns of samples N-1 and N. Row
    block N-1 is final once sample N has arrived, because only then does
    it couple to sample N's lambda and mu; one QR of it stacked under the
    carry eliminates sample N-2 and leaves the next carry. Each row block
    comes from ``_stationarity_rows`` on a three-sample slice, so the
    equations are the batch solve's.

    The eliminated unknowns are affine in the newest pair S = (x_{N-1},
    x_N), each with the d + 1 right-hand sides of ``_solve`` as columns.
    So Gram = sum z^T W z and beta = sum z^T W (y - p0), which choose
    alpha, are read off quadratic forms in S, and the forms follow each
    elimination by congruence. Every sample costs constant work, so the
    newest state never re-solves the history. There is no refinement
    step. On streams with gaps spread over four decades the newest state
    agreed with ``_solve`` to 1e-9 of its scale, except noise-dominated
    streams at eta 1e-3, where the two differed by up to 2e-8 and
    either could be the one off. That needs the carried rows rescaled to
    unit largest coefficient after each step, like the batch rows: left
    as QR returns them, the error reached 2e-6.
    """

    def __init__(self, dim: int, eta: float):
        self.dim, self.eta = dim, eta
        self.count = 0
        self._recent: deque = deque(maxlen=3)  # (time, value, info), oldest first
        b, k = 5 * dim, dim + 1
        self._carry = np.zeros((b, 2 * b + k))
        self._newest_rows = np.zeros((b, 3 * b + k))
        # (Q, L, C) with sum_j M_j^T W_j M_j = S^T Q S + S^T L + L^T S + C over
        # samples 0 ... N-2, where M_j = [p0_j - y_j | z_j] is affine in S.
        self._forms = (np.zeros((2 * b, 2 * b)), np.zeros((2 * b, k)), np.zeros((k, k)))
        self._pivots = (np.inf, 0.0)  # smallest and largest eliminated pivot

    def append(self, time: float, value: np.ndarray, info: np.ndarray) -> None:
        """Add the newest sample; ``info`` must be symmetric and semidefinite."""
        self._recent.append((time, value, info))
        self.count += 1
        if self.count < 3:
            return
        d, b = self.dim, 5 * self.dim
        (t0, y0, w0), (t1, y1, w1), (t2, y2, w2) = self._recent
        rows = _stationarity_rows(np.array([t2 - t1, t1 - t0]), np.stack([y2, y1, y0]),
                                  np.stack([w2, w1, w0]), self.eta)
        # Newest sample first; coupled blocks in the order (older, own, newer).
        blocks = rows[:, :, :3 * b].reshape(3, b, 3, b)[:, :, ::-1].reshape(3, b, 3 * b)
        rows = np.concatenate([blocks, rows[:, :, 3 * b:]], axis=2)
        if self.count == 3:
            self._carry = rows[2, :, b:]  # the pin block in (x_0, x_1)
        work = np.zeros((2 * b, rows.shape[2]))
        work[:b, :2 * b] = self._carry[:, :2 * b]
        work[:b, 3 * b:] = self._carry[:, 2 * b:]
        work[b:] = rows[1]
        r = np.linalg.qr(work, mode="r")
        self._pivots = _pivot_range(self._pivots, np.diagonal(r[:b, :b]))
        # The pivot rows give x_{N-2} = solved[:, 2b:] - solved[:, :2b] @ S in
        # the new pair S = (x_{N-1}, x_N), so the old pair is to_old @ S + shift.
        solved = np.linalg.solve(r[:b, :b], r[:b, b:])
        to_old = np.zeros((2 * b, 2 * b))
        to_old[:b] = -solved[:, :2 * b]
        to_old[b:, :b] = np.eye(b)
        shift = np.zeros((2 * b, d + 1))
        shift[:b] = solved[:, 2 * b:]
        Q, L, C = _with_sample(self._forms, 0, y0, w0)
        Qs = Q @ shift
        self._forms = (to_old.T @ Q @ to_old, to_old.T @ (L + Qs),
                       C + shift.T @ L + L.T @ shift + shift.T @ Qs)
        carry = r[b:, b:]
        self._carry = carry / np.abs(carry[:, :2 * b]).max(axis=1)[:, None]
        self._newest_rows = rows[0]

    def newest(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Position, velocity and last-gap acceleration at the newest sample."""
        d, b = self.dim, 5 * self.dim
        _, (t1, y1, w1), (t2, y2, w2) = self._recent
        pair = np.concatenate([self._carry, np.concatenate(
            [self._newest_rows[:, :2 * b], self._newest_rows[:, 3 * b:]], axis=1)])
        r = np.linalg.qr(pair, mode="r")
        _require_nonsingular(*_pivot_range(self._pivots, np.diagonal(r[:, :2 * b])))
        S = np.linalg.solve(r[:, :2 * b], r[:, 2 * b:])
        Q, L, C = _with_sample(_with_sample(self._forms, 0, y1, w1), b, y2, w2)
        F = S.T @ Q @ S + S.T @ L + L.T @ S + C
        alpha = np.linalg.lstsq(F[1:, 1:], -F[1:, 0], rcond=None)[0]
        x = S[:, 0] + S[:, 1:] @ alpha
        if not np.all(np.isfinite(x)):
            raise SingularSystem("stationarity solve produced non-finite values")
        p_prev, p, a = x[:d], x[b:b + d], x[b + 2 * d:b + 3 * d]
        # The velocity making the last interval's quadratic hit both ends.
        tau = t2 - t1
        v = (p - p_prev) / tau - 0.5 * a * tau + a * tau
        return p, v, a


def _pivot_range(extremes: tuple[float, float], pivots: np.ndarray) -> tuple[float, float]:
    """Smallest and largest magnitude over ``extremes`` and ``pivots``; NaN propagates."""
    pivots = np.abs(pivots)
    return (float(np.minimum(extremes[0], pivots.min())),
            float(np.maximum(extremes[1], pivots.max())))


def _require_nonsingular(smallest: float, largest: float) -> None:
    """Raise SingularSystem unless the pivots are finite and nonzero to working precision.

    A NaN or infinite pivot must make ``largest`` non-finite. Solvable
    systems kept their smallest pivot above 1e-13 of the largest on grids
    spread over 7 decades.
    """
    if not np.isfinite(largest):
        raise SingularSystem("stationarity system has a non-finite pivot")
    if not smallest > _EPS * largest:
        raise SingularSystem(
            "stationarity system is singular to working precision (smallest "
            f"pivot {smallest / largest:.3e} of the largest)"
        )


def _with_sample(forms, offset: int, value: np.ndarray, info: np.ndarray):
    """``forms`` plus the term of the sample whose unknowns start at ``offset`` of S."""
    Q, L, C = (form.copy() for form in forms)
    d = value.shape[0]
    Q[offset:offset + d, offset:offset + d] += info
    wy = info @ value
    L[offset:offset + d, 0] -= wy
    C[0, 0] += value @ wy
    return Q, L, C


def solve_scalar(obs: ScalarObservationSeries, eta: float,
                 time_reversed: bool = True) -> ShadowingTrajectory:
    """Fit a scalar trajectory to weighted observations at one eta.

    This is the d = 1 case of ``solve_vector``, with each weight as a
    1-by-1 information matrix. The default time-reversed solve
    concentrates the scheme's approximation error at the oldest samples,
    so the newest positions and velocities are the most trustworthy.
    """
    eta = _require_positive_eta(eta)
    traj = _solve(obs.grid, obs.values[:, None], obs.weights[:, None, None],
                  eta, time_reversed)
    return replace(traj, positions=traj.positions[:, 0],
                   velocities=traj.velocities[:, 0],
                   accelerations=traj.accelerations[:, 0])


def solve_vector(obs: VectorObservationSeries, eta: float,
                 time_reversed: bool = True) -> ShadowingTrajectory:
    """Fit a d-dimensional trajectory with general information matrices.

    Each scalar coupling of the master system scales sample j's
    information block W_j or the identity; the appended constraint rows
    enforce a zero information-weighted residual sum per component. With
    diagonal informations the problem decouples into per-component
    scalar fits, and with d = 1 it is exactly ``solve_scalar``.
    """
    eta = _require_positive_eta(eta)
    return _solve(obs.grid, obs.values, obs.informations, eta, time_reversed)


def rms_acceleration(traj: ShadowingTrajectory) -> float:
    """Gap-weighted RMS acceleration magnitude over the window."""
    a = traj.accelerations
    sq = a ** 2 if a.ndim == 1 else np.sum(a ** 2, axis=1)
    return float(np.sqrt(np.sum(traj.grid.taus * sq) / traj.grid.span))


def _solve_any(obs, eta: float) -> ShadowingTrajectory:
    if isinstance(obs, ScalarObservationSeries):
        return solve_scalar(obs, eta)
    if isinstance(obs, VectorObservationSeries):
        return solve_vector(obs, eta)
    raise UsageError(f"unsupported observation container {type(obs).__name__}")


def search_eta(obs, xi_target: float, eta_lo: float, eta_hi: float) -> EtaSearchResult:
    """Find eta whose fit has RMS acceleration matching ``xi_target``.

    RMS acceleration decreases as eta grows, so the bracket must satisfy
    xi(eta_lo) >= xi_target >= xi(eta_hi). The search runs in log(eta):
    odd iterations take a false-position step, even iterations bisect. It
    stops once xi is within ``SEARCH_REL_TOL`` of the target and raises
    MaxIterations after ``SEARCH_MAX_ITERATIONS`` steps. When even eta_lo
    already meets the bound (xi(eta_lo) < target, e.g. affine data), the
    smoothest end eta_hi is returned by convention. The result carries
    the fit at the returned eta, so no caller need solve it again.
    """
    xi_target = float(xi_target)
    if not (np.isfinite(xi_target) and xi_target >= 0.0):
        raise UsageError(f"xi target must be a finite non-negative number, got {xi_target!r}")
    eta_lo = _require_positive_eta(eta_lo)
    eta_hi = _require_positive_eta(eta_hi)
    if eta_lo >= eta_hi:
        raise UsageError(f"bracket must satisfy eta_lo < eta_hi, got [{eta_lo}, {eta_hi}]")
    tol = SEARCH_REL_TOL * xi_target
    trace: list[tuple[float, float]] = []

    def fit_at(eta: float) -> tuple[ShadowingTrajectory, float]:
        fit = _solve_any(obs, eta)
        xi = rms_acceleration(fit)
        trace.append((eta, xi))
        return fit, xi

    def result(fit: ShadowingTrajectory, xi: float, iters: int) -> EtaSearchResult:
        return EtaSearchResult(fit.eta, xi, iters, tuple(trace), fit)

    fit_hi, xi_hi = fit_at(eta_hi)
    if abs(xi_hi - xi_target) <= tol:
        return result(fit_hi, xi_hi, 0)
    if xi_hi > xi_target:
        raise BracketDoesNotStraddle(
            f"xi({eta_hi:g}) = {xi_hi:g} still exceeds target {xi_target:g}; "
            f"raise eta_hi"
        )
    fit_lo, xi_lo = fit_at(eta_lo)
    if abs(xi_lo - xi_target) <= tol:
        return result(fit_lo, xi_lo, 0)
    if xi_lo < xi_target:
        # The whole bracket already satisfies the bound; prefer smoothest.
        return result(fit_hi, xi_hi, 0)

    # Work in log space: eta ranges over decades and xi(log eta) is gentler.
    # Bisecting every other step halves the bracket at least every two
    # steps, so false position (f_lo > 0 > f_hi) cannot stall at one end;
    # its points within 2% of the span of either end are bisected too.
    x_lo, f_lo = np.log(eta_lo), xi_lo - xi_target
    x_hi, f_hi = np.log(eta_hi), xi_hi - xi_target
    for iteration in range(1, SEARCH_MAX_ITERATIONS + 1):
        span = x_hi - x_lo
        x_new = 0.5 * (x_lo + x_hi)
        if iteration % 2 == 1:
            secant = x_hi - f_hi * span / (f_hi - f_lo)
            if x_lo + 0.02 * span < secant < x_hi - 0.02 * span:
                x_new = secant
        eta_new = float(np.exp(x_new))
        fit_new, xi_new = fit_at(eta_new)
        if abs(xi_new - xi_target) <= tol:
            return result(fit_new, xi_new, iteration)
        if xi_new > xi_target:
            x_lo, f_lo = x_new, xi_new - xi_target
        else:
            x_hi, f_hi = x_new, xi_new - xi_target
    raise MaxIterations(
        f"eta search did not reach |xi - {xi_target:g}| <= {tol:g} within "
        f"{SEARCH_MAX_ITERATIONS} iterations (bracket [{np.exp(x_lo):g}, {np.exp(x_hi):g}])"
    )


def _spline_eval(traj: ShadowingTrajectory, t, *, derivative: bool):
    times = traj.grid.times
    tq = np.asarray(t, dtype=float)
    scalar_input = tq.ndim == 0
    tq = np.atleast_1d(tq)
    if not np.all(np.isfinite(tq)):
        bad = float(tq[np.argmax(~np.isfinite(tq))])
        raise TimeOutOfRange(f"time {bad!r} is not finite")
    if np.any(tq < times[0]):
        bad = float(tq[np.argmax(tq < times[0])])
        raise TimeOutOfRange(
            f"time {bad!r} precedes the fitted window starting at {float(times[0])!r}"
        )
    idx = np.searchsorted(times, tq, side="right") - 1
    beyond = idx >= times.shape[0] - 1
    idx = np.minimum(idx, times.shape[0] - 2)
    dt = tq - times[idx]
    p, v, a = traj.positions, traj.velocities, traj.accelerations
    if p.ndim == 2:
        dt = dt[:, None]
        beyond_b = beyond[:, None]
    else:
        beyond_b = beyond
    if derivative:
        inside = v[idx] + a[idx] * dt
        past_end = np.broadcast_to(v[-1], inside.shape)
    else:
        inside = p[idx] + v[idx] * dt + 0.5 * a[idx] * dt ** 2
        # Beyond the window: constant velocity from the last state.
        dt_end = (tq - times[-1])[:, None] if p.ndim == 2 else tq - times[-1]
        past_end = p[-1] + v[-1] * dt_end
    out = np.where(beyond_b, past_end, inside)
    if scalar_input:
        return out[0] if p.ndim == 2 else float(out[0])
    return out


def evaluate_spline(traj: ShadowingTrajectory, t):
    """Evaluate the fitted quadratic spline at times ``t``.

    Inside the window each interval uses its own constant acceleration;
    past the final sample the trajectory continues at constant velocity
    from the last state (no acceleration is defined there). Times before
    the window and non-finite times raise TimeOutOfRange.
    """
    return _spline_eval(traj, t, derivative=False)


def evaluate_spline_velocity(traj: ShadowingTrajectory, t):
    """Velocity of the fitted spline at times ``t`` (constant past the end).

    Times before the window and non-finite times raise TimeOutOfRange.
    """
    return _spline_eval(traj, t, derivative=True)


def solve_kkt_oracle(obs: ScalarObservationSeries, eta: float) -> OracleSolution:
    """Solve the full stationarity system directly, duals included.

    Unknowns are stacked as [p (n+1), v (n+1), a (n), lambda (n), mu (n)]
    and every stationarity and dynamics equation is a dense row, so the
    result is exact up to linear-solver rounding. Quadratic in memory and
    cubic in time, hence capped at small windows; this is a testing
    oracle, not the production path.
    """
    eta = _require_positive_eta(eta)
    grid = obs.grid
    n = grid.n
    if n > 200:
        raise UsageError(f"oracle supports n <= 200 gaps, got {n}")
    taus = grid.taus
    w = obs.weights
    values = obs.values
    size = 5 * n + 2
    Z = np.zeros((size, size))
    rhs = np.zeros(size)
    P0, V0, A0, L0, M0 = 0, n + 1, 2 * n + 2, 3 * n + 2, 4 * n + 2
    row = 0
    # Position stationarity: w_i p_i + (extended difference @ lambda)_i = w_i obs_i.
    for i in range(n + 1):
        Z[row, P0 + i] = w[i]
        if i < n:
            Z[row, L0 + i] -= 1.0
        if i >= 1:
            Z[row, L0 + i - 1] += 1.0
        rhs[row] = w[i] * values[i]
        row += 1
    # Velocity stationarity: (difference @ mu)_i = tau_i lambda_i, and mu_{n-1} = 0.
    for i in range(n):
        Z[row, M0 + i] -= 1.0
        if i >= 1:
            Z[row, M0 + i - 1] += 1.0
        Z[row, L0 + i] -= taus[i]
        row += 1
    Z[row, M0 + n - 1] = 1.0
    row += 1
    # Acceleration stationarity: 2 eta a_i = tau_i lambda_i / 2 + mu_i.
    for i in range(n):
        Z[row, A0 + i] = 2.0 * eta
        Z[row, L0 + i] = -0.5 * taus[i]
        Z[row, M0 + i] = -1.0
        row += 1
    # Interval dynamics as hard constraints.
    for i in range(n):
        Z[row, P0 + i + 1] = 1.0
        Z[row, P0 + i] = -1.0
        Z[row, V0 + i] = -taus[i]
        Z[row, A0 + i] = -0.5 * taus[i] ** 2
        row += 1
    for i in range(n):
        Z[row, V0 + i + 1] = 1.0
        Z[row, V0 + i] = -1.0
        Z[row, A0 + i] = -taus[i]
        row += 1
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
        positions=_frozen(sol[P0:P0 + n + 1]),
        velocities=_frozen(sol[V0:V0 + n + 1]),
        accelerations=_frozen(sol[A0:A0 + n]),
        lambdas=_frozen(sol[L0:L0 + n]),
        mus=_frozen(sol[M0:M0 + n]),
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
