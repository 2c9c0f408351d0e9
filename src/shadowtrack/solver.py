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
the position part of the complete stationarity system without its
terminal row, the stationarity of the final velocity: the fit with that
velocity pinned. The pinned fit is a linear least-squares problem with no
dual variables (the square-root information smoother of Paige & Saunders,
1977): rows R_j (p_j - y_j) for roots R_j^T R_j = W_j of the
informations, and rows sqrt(2 eta tau_i) a_i for the gaps, with the
positions following the exact interval dynamics of the accelerations.
One sweep of Householder QR factorizations over panels of gaps solves it
for d + 1 right-hand sides at once: the data with the pin at zero gives a
particular solution, and zero data with the pin at each unit vector
gives the d null directions. A second pass repeats the panels' QR calls
on new right-hand sides only: the first solution's least-squares residual
(one step of iterative refinement, which recovers the digits that badly
spread gaps cost the first pass) and the derivative of the solution with
respect to eta, from which each fit reports d log xi / d log eta for the
eta search's Newton steps. The first pass walks back over the panels one
gap at a time, last panel first, which keeps the positions' digits. The
second pass walks all panels at once: each panel's start state, as a map
of its end state, chains the panels' end states back from the pin, and
every panel then walks back from its own. Composed maps lose digits that
the first pass cannot spare, but the second pass carries a correction and
a derivative, so their rounding is relative to those columns and reaches
the positions only as eps |dp| (iterative refinement needs only modest
accuracy in its correction; Higham 2002, ch. 12). Time and memory grow
linearly in the number of samples, and the accelerations come out of the
same solve.

Eliminating the duals is causal, so the scheme's approximation error
gathers at the start of the window the system is built on. A tracker
emits the newest sample, so the default orientation is the forward solve
on mirrored time: the samples are reversed, the forward system is solved
on the reversed gaps, and the solution is reversed back, which leaves the
error at the oldest samples. Both orientations thus share one assembly.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BracketDoesNotStraddle,
    MaxIterations,
    SingularSystem,
    TimeOutOfRange,
    UsageError,
)
# Bound for perfbench/tracing.py's ``matrices.build`` span, which wraps this name.
from .matrices import build_filter_matrices  # noqa: F401
# The series classes live in ``series``, which holds no solver code, and stay
# importable from here, though only ``series`` lists them.
from .series import (
    ScalarObservationSeries,
    TimeGrid,
    VectorObservationSeries,
    _frozen,
    _real,
    _require_positive_eta,
)

__all__ = [
    "ShadowingTrajectory",
    "EtaSearchResult",
    "solve_scalar",
    "solve_vector",
    "rms_acceleration",
    "search_eta",
    "evaluate_spline",
    "evaluate_spline_velocity",
]

# Acceleration unknowns per sweep panel, S d for S gaps of d-vectors.
PANEL_WIDTH = 24

_EPS = float(np.finfo(float).eps)

# search_eta stops once xi is within this fraction of its target, and
# gives up after this many steps inside the bracket.
SEARCH_REL_TOL = 2e-5
SEARCH_MAX_ITERATIONS = 100


def _require_bracket(eta_lo: float, eta_hi: float) -> tuple[float, float]:
    """An eta search bracket as floats; it must satisfy 0 < eta_lo < eta_hi < inf."""
    eta_lo, eta_hi = _require_positive_eta(eta_lo), _require_positive_eta(eta_hi)
    if eta_lo >= eta_hi:
        raise UsageError(f"bracket must satisfy eta_lo < eta_hi, got [{eta_lo}, {eta_hi}]")
    return eta_lo, eta_hi


@dataclass(frozen=True)
class ShadowingTrajectory:
    """Solved trajectory: positions at the samples, one acceleration per gap.

    Velocities satisfy the interval dynamics exactly by construction:
    p_{i+1} = p_i + v_i tau_i + a_i tau_i^2 / 2. Scalar fits store
    one-dimensional arrays, planar fits store (n+1, d) and (n, d). The
    rank of the master system is derived from the shape, as ``rank``.
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
    # d log xi / d log eta at ``eta``, where xi is ``rms_acceleration`` of
    # this fit; NaN when xi is zero or its derivative in eta passes the float range.
    log_xi_slope: float = np.nan

    @property
    def dim(self) -> int:
        return 1 if self.positions.ndim == 1 else self.positions.shape[1]

    @property
    def rank(self) -> int:
        """Rank of the master system, d n for n + 1 samples: the solve raises
        SingularSystem rather than return a rank-deficient fit."""
        return self.dim * self.grid.n


@dataclass(frozen=True)
class EtaSearchResult:
    """Outcome of searching eta for a target RMS acceleration."""

    eta: float
    xi: float
    iterations: int
    trace: tuple[tuple[float, float], ...]  # (eta, xi) in evaluation order
    trajectory: ShadowingTrajectory  # the fit at ``eta``, whose RMS acceleration is xi


_BUFFERS = threading.local()


def _buffer(name: str, shape: tuple[int, ...]) -> np.ndarray:
    """This thread's grow-only scratch array ``name`` as ``shape``, uninitialized. Kept between
    solves: made afresh, a solve's megabytes of panel stacks fault their pages in again
    whenever the allocator has returned them to the system, which depends on earlier work."""
    size = math.prod(shape)
    if getattr(_BUFFERS, name, np.empty(0)).size < size:
        setattr(_BUFFERS, name, np.empty(size))
    return getattr(_BUFFERS, name)[:size].reshape(shape)


def _require_finite(*arrays: np.ndarray,
                    message: str = "stationarity solve produced non-finite values") -> None:
    """Raise SingularSystem with ``message`` unless every entry of ``arrays`` is finite."""
    for x in arrays:
        if not np.isfinite(x).all():
            raise SingularSystem(message)


def _acceleration_weights(eta: float, taus: np.ndarray) -> np.ndarray:
    """sqrt(2 eta tau) for each gap, the weight of its acceleration rows; SingularSystem
    where one is past the float range."""
    weights = np.sqrt(2.0 * eta * taus)
    _require_finite(weights,
                    message=f"acceleration weight sqrt(2 eta tau) overflows at eta {eta:g}")
    return weights


def _data_rows(rows: np.ndarray) -> np.ndarray:
    """The data rows R y of a solve as given; SingularSystem where one is past the float range."""
    _require_finite(rows, message="data rows R y pass the float range")
    return rows


def _panel_maps(tau: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The exact dynamics of panels of gaps tau (panels, s) of d-vectors.

    A panel's unknowns are its accelerations and end state, (a_0 ... a_{s-1}, p_e, v_e).
    With T_j the time from its start to its sample j, p_j = p_e - (T_S - T_j) v_e +
    sum_{l >= j} (tau_l (T_l - T_j) + tau_l^2 / 2) a_l, and its start velocity is
    v_e - sum_l tau_l a_l. Returns ``coef`` (panels, s + 1, s + 2), the scalar
    coefficients of p_0 ... p_{s-1} and v_0 on the unknowns, which is this thread's
    scratch until the next call, and ``start`` (panels, 2d, (s + 2) d), the start state
    (p_0, v_0) on the unknowns as d-vectors.
    """
    panels, s = tau.shape
    # tau_l for l >= j, and their sums T_{l+1} - T_j from j.
    ahead = np.multiply(tau[:, None, :], np.tri(s).T, out=_buffer("ahead", (panels, s, s)))
    span = np.cumsum(ahead, axis=2, out=_buffer("span", (panels, s, s)))
    coef = _buffer("coef", (panels, s + 1, s + 2))
    coef[:, s, s] = 0.0  # v_0 does not depend on p_e; the rest is written below
    coef[:, :s, s + 1] = -span[:, :, -1]
    np.subtract(span, np.multiply(ahead, 0.5, out=coef[:, :s, :s]), out=span)
    np.multiply(ahead, span, out=coef[:, :s, :s])
    coef[:, :s, s] = coef[:, s, s + 1] = 1.0
    coef[:, s, :s] = -tau
    start = (coef[:, [0, s], None, :, None] * np.eye(d)[:, None, :]).reshape(panels, 2 * d, -1)
    return coef, start


def _sweep(taus: np.ndarray, values: np.ndarray, roots: np.ndarray, eta: float):
    """Solve the pinned least-squares fit by Householder QR over panels of gaps, refined once.

    The fit minimizes sum_j |R_j (p_j - y_j)|^2 + sum_i 2 eta tau_i |a_i|^2, with
    R_j^T R_j = W_j and v_n pinned, for d + 1 right-hand sides: the data with
    v_n = 0, and zero data with v_n at each unit vector. A panel's unknowns are
    its S accelerations and end state (p_e, v_e), as in ``_panel_maps``. One QR of
    a panel's data and acceleration rows under the 2d rows carried on its start
    state keeps S d rows for back substitution and carries 2d rows on (p_e, v_e);
    sample n's data rows and the pin close the sweep. Back substitution walks each
    panel, last first, back from its end one gap at a time to its positions and its
    start state, the previous panel's end, so the positions follow the dynamics.

    The second pass repeats the QR calls on 2k new right-hand sides: the first
    solution's least-squares residual (one refinement step) and the rows
    -sqrt(2 tau / eta) a, whose solution is the derivative in eta. Its back
    substitution is batched over the panels. A panel's accelerations are
    c - H x_e on its end state x_e, so its start-state map takes the columns
    [c | -H] to its start state as an affine map of x_e. One small product per
    panel chains the x_e back from the pin, and every panel is then walked back
    from its own at once. Composed maps like these cost the first pass digits;
    here their rounding is relative to the correction and the derivative. The
    positions come from walking the accelerations, not from composed per-sample
    maps of x_e, whose terms cancel where H is large.

    Returns the (m, d, k) positions, the (m - 1, d, k) accelerations, their
    derivatives in eta (NaN past the float range), and the data column's misfit
    y - p, summed from the refinement's parts so it keeps the digits that p loses
    to rounding at its own scale. It runs under ``_solve``'s float-range guard: data
    rows R y past the float range raise SingularSystem here, and other products past
    it reach the pivot checks or ``_solve``'s finite check as infinities or NaN.
    """
    m, d = values.shape
    n, k = m - 1, d + 1
    s = max(1, round(PANEL_WIDTH / d))  # gaps per panel
    panels = -(-n // s)
    sd, cols = s * d, (s + 2) * d

    def padded(x: np.ndarray) -> np.ndarray:  # rows 0 ... n-1 of x as (panels, s, ...)
        out = np.zeros((panels * s,) + x.shape[1:])
        out[:n] = x[:n]
        return out.reshape((panels, s) + x.shape[1:])

    # The last panel is padded with gaps of zero length and zero information.
    tau = padded(taus)
    coef, start = _panel_maps(tau, d)
    weight = padded(np.repeat(_acceleration_weights(eta, taus)[:, None], d, axis=1))
    weight.reshape(-1, d)[n:] = 1.0  # unit rows on the padding gaps, so a = 0 there
    root = padded(roots)
    # Panel g: 2d carried rows, then per gap j the data rows of sample j and
    # the acceleration rows of gap j, so each reflector ends at its own gap.
    work = _buffer("work", (panels, 2 * d + 2 * sd, cols + 2 * k))
    work.fill(0.0)
    rows = work[:, 2 * d:].reshape(panels, s, 2, d, cols + 2 * k)
    data, accel = rows[:, :, 0], rows[:, :, 1]
    np.multiply(coef[:, :s, None, :, None], root[..., None, :],
                out=data[..., :cols].reshape(panels, s, d, s + 2, d))
    np.multiply(weight[..., None], np.eye(sd).reshape(s, d, sd), out=accel[..., :sd])
    data[..., cols] = _data_rows((root @ padded(values)[..., None])[..., 0])
    last = _data_rows(roots[n] @ values[n, :, None])

    # LAPACK's raw layout holds R transposed; entries below its diagonal are
    # reflectors, masked off in the carried rows.
    upper = np.triu(np.ones((2 * d, 2 * d + k)))
    kept = _buffer("kept", (panels, sd, cols + k))
    carry = np.zeros((2 * d, 2 * d + k))
    for g in range(panels):
        panel = work[g, :, :cols + k]
        np.matmul(carry[:, :2 * d], start[g], out=panel[:2 * d, :cols])
        panel[:2 * d, cols:] = carry[:, 2 * d:]
        r = np.linalg.qr(panel, mode="raw")[0].T
        kept[g] = r[:sd]
        carry = r[sd:sd + 2 * d, sd:] * upper
    state = carry[:, :2 * d]

    def close(rhs: np.ndarray, data_rhs: np.ndarray) -> np.ndarray:
        """p_n from the carried rows, with v_n substituted, over sample n's data rows."""
        stack = np.concatenate([np.concatenate([state[:, :d], rhs], axis=1),
                                np.concatenate([roots[n], data_rhs], axis=1)])
        r = np.linalg.qr(stack, mode="r")
        _require_nonsingular(np.diagonal(r[:, :d]))
        return np.linalg.solve(r[:d, :d], r[:d, d:])

    tri = kept[:, :, :sd]
    solved = _back_substitute(tri, kept[:, :, sd:])
    H = solved[:, :, :2 * d]
    t = tau[..., None, None]

    def samples(pos: np.ndarray, a: np.ndarray, p_n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample positions and accelerations from panel stacks (panels, S (+ 1), d, q)."""
        q = a.shape[-1]
        return (np.concatenate([pos[:, :s].reshape(panels * s, d, q)[:n], p_n[None]]),
                a.reshape(panels * s, d, q)[:n])

    # Pass one walks back one gap at a time, panel by panel, to keep the positions' digits.
    pin = np.concatenate([np.zeros((d, 1)), np.eye(d)], axis=1)  # v_n of each right-hand side
    p_n = close(carry[:, 2 * d:] - state[:, d:] @ pin,
                np.concatenate([last, np.zeros((d, d))], axis=1))
    a = np.empty((panels, s, d, k))
    vel, pos = np.empty((2, panels, s + 1, d, k))
    pv = np.concatenate([p_n, pin])  # (p_e, v_e) of panel g
    for g in range(panels - 1, -1, -1):
        np.subtract(solved[g, :, 2 * d:], H[g] @ pv, out=a[g].reshape(sd, k))
        pos[g, s], vel[g, s] = pv[:d], pv[d:]
        _walk_back(t[g], a[g], vel[g], pos[g])
        pv = np.concatenate([pos[g, 0], vel[g, 0]])
    p, a = samples(pos, a, p_n)
    misfit = -p
    misfit[:, :, 0] += values
    residual = roots @ misfit
    data[..., cols:cols + k] = padded(residual)
    data[..., cols + k:] = 0.0
    accel[..., cols:cols + k] = -padded(a) * weight[..., None]
    np.divide(accel[..., cols:cols + k], eta, out=accel[..., cols + k:])
    if not np.all(np.isfinite(accel[..., cols + k:])):  # the derivative passes the float range
        accel[..., cols + k:] = np.nan
    kept = np.empty((panels, sd, 2 * k))
    carry = np.zeros((2 * d, 2 * k))
    for g in range(panels):
        panel = work[g]
        panel[:2 * d, cols:] = carry
        r = np.linalg.qr(panel, mode="raw")[0].T
        kept[g] = r[:sd, cols:]
        carry = r[sd:sd + 2 * d, cols:]
    p_n = close(carry, np.concatenate([residual[n], np.zeros((d, k))], axis=1))

    # Pass two walks every panel at once. Put through a panel's start-state map, the
    # columns [c | -H] of its accelerations a = c - H x_e give its start state as an
    # affine map of its end state x_e; the x_e are chained back from the pin, where v_n
    # has no correction, and each panel is walked back from its own.
    q = 2 * k
    c = _back_substitute(tri, kept)
    begin = start[:, :, :sd] @ np.concatenate([c, -H], axis=2)
    begin[:, :, q:] += start[:, :, sd:]
    x_e = np.empty((panels, 2 * d, q))
    x_e[-1] = np.concatenate([p_n, np.zeros((d, q))])
    for g in range(panels - 1, 0, -1):
        x_e[g - 1] = begin[g, :, :q] + begin[g, :, q:] @ x_e[g]
    da = (c - H @ x_e).reshape(panels, s, d, q)
    vel, pos = np.empty((2, panels, s + 1, d, q))
    pos[:, s], vel[:, s] = x_e[:, :d], x_e[:, d:]
    _walk_back(t, da, vel, pos)
    dp, da = samples(pos, da, p_n)
    p, a = p + dp[:, :, :k], a + da[:, :, :k]
    return p, a, dp[:, :, k:], da[:, :, k:], misfit[:, :, 0] - dp[:, :, 0]


def _walk_back(tau: np.ndarray, a: np.ndarray, vel: np.ndarray, pos: np.ndarray) -> None:
    """Velocities and positions at the samples of panels of gaps tau (..., S, 1, 1) with
    accelerations a (..., S, d, q), into vel and pos (..., S + 1, d, q), whose entries S
    hold the panels' end states on entry: v_j = v_{j+1} - tau_j a_j and p_j = p_{j+1} -
    tau_j v_{j+1} + tau_j^2 a_j / 2, summed back from the end one gap at a time."""
    s = a.shape[-3]
    np.multiply(-tau, a, out=vel[..., :s, :, :])
    back = vel[..., ::-1, :, :]
    np.add.accumulate(back, axis=-3, out=back)
    np.multiply(0.5 * tau * tau, a, out=pos[..., :s, :, :])
    pos[..., :s, :, :] -= tau * vel[..., 1:, :, :]
    back = pos[..., ::-1, :, :]
    np.add.accumulate(back, axis=-3, out=back)


def _back_substitute(tri: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a stack of upper-triangular systems, row by row."""
    out = np.empty(rhs.shape)
    for r in range(tri.shape[1] - 1, -1, -1):
        dot = (tri[:, r:r + 1, r + 1:] @ out[:, r + 1:])[:, 0]
        out[:, r] = (rhs[:, r] - dot) / tri[:, r, r, None]
    return out


def _master_residual(taus, values, infos, eta, p) -> float:
    """2-norm of (a_bar W + eta b_bar) p - a_bar W obs, in O(n).

    a_bar W (p - obs) stacks 0.25 G core u on the sum of u = W (p - obs),
    and the core's running sums are cumulative sums; b_bar p is the
    three-point junction stencil. Where a product passes the float range, the
    positions and data are rescaled; a norm past it still is inf.
    """
    t = taus[:, None]

    def norm(p: np.ndarray, values: np.ndarray) -> float:
        u = np.einsum("jab,jb->ja", infos, p - values)
        run = -np.cumsum(u, axis=0)[:-1]
        core = 0.5 * t * run - np.cumsum(t * run, axis=0)
        gap = t[:-1] * t[1:] * (t[:-1] * core[:-1] + t[1:] * core[1:])
        junction = t[1:] * p[:-2] - (t[:-1] + t[1:]) * p[1:-1] + t[:-1] * p[2:]
        return _rescaled(lambda rows, ends: float(np.sqrt(np.sum(rows ** 2) + np.sum(ends ** 2))),
                         1, 0.25 * gap + eta * junction, u.sum(axis=0))

    value = _rescaled(norm, 1, p, values)
    return math.inf if math.isnan(value) else value


def _rescaled(f, degree: int, *arrays: np.ndarray):
    """f(*arrays), homogeneous of ``degree`` in the arrays, as s^degree f(arrays / s)
    where the plain value is not finite (squares past the float range, say), with s
    the arrays' largest magnitude; a finite value is left as it is, bit for bit."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value = f(*arrays)
        if not np.all(np.isfinite(value)):
            scale = max(float(np.abs(x).max()) for x in arrays)
            if 0.0 < scale < math.inf:
                value = scale ** degree * f(*(x / scale for x in arrays))
    return value


def _solve(grid: TimeGrid, values: np.ndarray, infos: np.ndarray, roots: np.ndarray,
           eta: float, time_reversed: bool) -> ShadowingTrajectory:
    """Solve the master system for (m, d) values with (m, d, d) informations and their roots.

    The sweep gives the particular solution p0 and null directions Z of the
    pinned fit. The coefficients alpha of p0 + Z alpha, which minimize the
    information-weighted squared residual to the observations, solve the least
    squares of the square-root rows R_j [y_j - p0_j | Z_j] (y - p0 is the sweep's
    misfit), and the rows' derivatives in eta give d alpha / d eta through the
    same triangle. Velocities are recovered in the original frame.
    """
    # One float-range guard per solve: products past it end in the pivot and finite checks.
    with np.errstate(over="ignore", invalid="ignore"):
        taus = grid.taus
        if time_reversed:
            # Mirrored time has the same gaps in reverse order.
            taus, values, infos, roots = taus[::-1], values[::-1], infos[::-1], roots[::-1]
        x, acc, dx, dacc, misfit = _sweep(taus, values, roots, eta)
        # The rows [b | A] = R [y - p0 | Z] and their derivatives [db | dA] in eta.
        b, db = (roots @ misfit[:, :, None]).ravel(), -(roots @ dx[:, :, :1]).ravel()
        A, dA = ((roots @ z).reshape(b.size, -1) for z in (x[:, :, 1:], dx[:, :, 1:]))
        alpha, q, r = _least_squares(b, A)
        # A^T A d alpha = dA^T (b - A alpha) + A^T (db - dA alpha), with A = q r.
        dalpha = np.linalg.solve(r, q.T @ (db - dA @ alpha)
                                 + np.linalg.solve(r.T, dA.T @ (b - A @ alpha)))
        p = x[:, :, 0] + x[:, :, 1:] @ alpha
        a = acc[:, :, 0] + acc[:, :, 1:] @ alpha
        da = dacc[:, :, 0] + dacc[:, :, 1:] @ alpha + acc[:, :, 1:] @ dalpha
        t = taus[:, None]
        slope = _rescaled(lambda a, da: float(eta * np.sum(t * a * da) / np.sum(t * a * a)),
                          0, a, da)
        resid = _master_residual(taus, values, infos, eta, p)
        if time_reversed:
            p, a = p[::-1], a[::-1]
        # Velocities making each interval's quadratic hit both endpoints.
        taus = grid.taus[:, None]
        head = np.diff(p, axis=0) / taus - 0.5 * a * taus
        v = np.concatenate([head, head[-1:] + a[-1:] * taus[-1:]], axis=0)
    _require_finite(p, v, a)
    return ShadowingTrajectory(
        grid=grid, eta=eta, positions=_frozen(p), velocities=_frozen(v),
        accelerations=_frozen(a), time_reversed=time_reversed,
        residual_norm=resid, log_xi_slope=slope,
    )


class _IncrementalSolve:
    """The default (time-reversed) solve of a growing or sliding series, one sample at a time.

    Number the samples 0 (oldest) to N (newest). A chain solves the pinned
    least squares of ``_sweep`` over samples j ... N with v_j pinned, in the
    square-root information form of the smoother (Paige & Saunders, 1977;
    Bierman, 1977). Its carry is 2d triangular rows on the newest state x_N
    = (p_N, v_N), with the d + 1 right-hand sides of ``_sweep`` as columns.
    Sample N + 1 puts the carry on the gap's acceleration and the new state
    through the start-state map of ``_panel_maps``, and one QR of it over
    the gap's acceleration rows sqrt(2 eta tau) a and the new sample's data
    rows R p = R y eliminates the acceleration and leaves the next carry.
    A chain pinned at sample N starts there: the pin v_N = [0 | I] is its
    first gap's rows for the acceleration, and its other rows are cleared
    of the acceleration by them, so the QR keeps the pin exact. All chains
    advance with one stacked QR per sample. Full history keeps one chain,
    pinned at sample 0. A sliding solve pins one at every sample as the
    next arrives, ``retire`` drops those pinned before the window, and the
    window's state comes from the oldest chain left.

    Every sample's position is affine in x_N, so the residuals
    R [p0 - y | z] that choose alpha are rows on [x_N; I], carried onto the
    new state after each elimination. Alpha solves their least squares by QR,
    as in ``_solve``, and rows that lose rank raise SingularSystem: a window's
    null directions can be 1e-7 of its positions, and normal equations lost
    1e-3 of alpha. With no refinement step, the newest state agreed with
    ``_solve`` to 4e-10 of its scale over gaps spread on four decades, and
    to 5.2e-9 for noise at eta 1e-3 in a window of 25. There the fit's
    velocity near the pin reaches 1e4 times its scale, and the rows of the
    samples beside the pin keep only the digits that leaves.

    Its rules are the batch solve's: a tracker step runs ``append`` and ``newest`` under
    one float-range guard, data rows R y past it raise SingularSystem as each sample
    arrives, and other products past it end there through the pivot and finite checks.
    """

    def __init__(self, dim: int, eta: float, sliding: bool):
        self.dim, self.eta, self.sliding = dim, eta, sliding
        self._latest: tuple | None = None  # (time, value, R, R value) of sample N
        s, k = 2 * dim, dim + 1
        # Per chain, oldest pin first: the pin's time, the carry, the residual
        # rows of samples up to N-1, and the last gap's acceleration as
        # a = gap[:, s:] - gap[:, :s] x_N.
        self._pins = np.zeros(0)
        self._carry = np.zeros((0, s, s + k))
        self._residual = np.zeros((0, 0, s + k))
        self._gap = np.zeros((0, dim, s + k))

    def append(self, time: float, value: np.ndarray, root: np.ndarray) -> None:
        """Add the newest sample with a root R of its information W, R^T R = W.

        A ``RawPositionEstimate`` carries its root, checked; a zero W has a zero root.
        Data rows R y past the float range raise SingularSystem, as in ``_sweep``.
        """
        rows = _data_rows(root @ value)
        if self._latest is None:
            self._latest = (time, value, root, rows)
            return
        d, k = self.dim, self.dim + 1
        s = 2 * d
        t0, _, root0, rows0 = self._latest
        weight = _acceleration_weights(self.eta, np.array([time - t0]))[0]
        start = _panel_maps(np.array([[time - t0]]), d)[1][0]  # x_{N} on (a, x_{N+1})
        self._latest = (time, value, root, rows)
        old = self._pins.size
        if self.sliding or not old:
            self._pins = np.append(self._pins, t0)
        chains = self._pins.size
        # Per chain: 2d rows on (a, p, v) of sample N + 1 and the right-hand
        # sides, then the gap's acceleration rows and the sample's data rows.
        work = np.zeros((chains, 4 * d, 3 * d + k))
        np.matmul(self._carry[:, :, :s], start, out=work[:old, :s, :3 * d])
        work[:old, :s, 3 * d:] = self._carry[:, :, s:]
        work[:, s:3 * d, :d] = weight * np.eye(d)
        work[:, 3 * d:, d:s] = root
        work[:, 3 * d:, 3 * d] = rows
        if chains > old:
            first = work[-1, :3 * d]
            first[:d] = np.concatenate([start[d:], np.eye(d, k, 1)], axis=1)
            first[d:s, :3 * d] = root0 @ start[:d]
            first[d:s, 3 * d] = rows0
            first[d:] -= first[d:, :d] @ np.linalg.solve(first[:d, :d], first[:d])
        r = np.linalg.qr(work, mode="r")
        gap = np.linalg.solve(r[:, :d, :d], r[:, :d, d:])
        # Sample N's residual rows on x_N (a new chain's first), then every
        # row on [x_{N+1}; I]: x_N = start (a; x_{N+1}), a substituted.
        residual = np.zeros((chains, self._residual.shape[1] + d, s + k))
        residual[:old, :-d] = self._residual
        residual[:, -d:, :d], residual[:, -d:, s] = root0, -rows0
        prior = np.concatenate([start[:, d:] - start[:, :d] @ gap[:, :, :s],
                                start[:, :d] @ gap[:, :, s:]], axis=2)
        substituted = residual[:, :, :s] @ prior
        substituted[:, :, s:] += residual[:, :, s:]
        if substituted.shape[1] > 2 * substituted.shape[2]:  # a QR per chain, so not every step
            substituted = np.linalg.qr(substituted, mode="r")
        self._carry, self._residual, self._gap = r[:, d:3 * d, d:], substituted, gap

    def retire(self, before: float) -> None:
        """Drop the chains pinned at samples older than ``before``."""
        kept = slice(int(np.searchsorted(self._pins, before)), None)
        self._pins, self._carry, self._residual, self._gap = (
            self._pins[kept], self._carry[kept], self._residual[kept], self._gap[kept])

    def newest(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Position, velocity and last-gap acceleration at the newest sample, from the
        oldest chain, whose position pivots must show a nonsingular fit."""
        d, k = self.dim, self.dim + 1
        s = 2 * d
        carry = self._carry[0]
        _require_nonsingular(np.diagonal(carry)[:d])
        x = np.linalg.solve(carry[:, :s], carry[:, s:])
        _, value, root, _ = self._latest
        misfit = x[:d].copy()  # p0 - y | z of sample N
        misfit[:, 0] -= value
        residuals = np.concatenate([self._residual[0] @ np.concatenate([x, np.eye(k)]),
                                    root @ misfit])
        _require_finite(residuals)
        alpha = _least_squares(-residuals[:, 0], residuals[:, 1:])[0]
        state = x[:, 0] + x[:, 1:] @ alpha
        gap = self._gap[0]
        a = gap[:, s] + gap[:, s + 1:] @ alpha - gap[:, :s] @ state
        _require_finite(state, a)
        return state[:d], state[d:], a


def _least_squares(b: np.ndarray, A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alpha, q, r) with alpha minimizing |A alpha - b|, A = q r; SingularSystem on rank loss."""
    q, r = np.linalg.qr(A)
    _require_nonsingular(np.diagonal(r))
    return np.linalg.solve(r, q.T @ b), q, r


def _require_nonsingular(pivots: np.ndarray) -> None:
    """Raise SingularSystem unless the pivots are finite and nonzero to working precision.

    A NaN or infinite pivot must make the largest non-finite.
    """
    pivots = np.abs(pivots)
    smallest, largest = pivots.min(), pivots.max()
    if not np.isfinite(largest):
        raise SingularSystem("stationarity system has a non-finite pivot")
    if not smallest > _EPS * largest:
        raise SingularSystem(
            "stationarity system is singular to working precision (smallest "
            f"pivot {smallest:.3e}, largest {largest:.3e})"
        )


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
                  np.sqrt(obs.weights)[:, None, None], eta, time_reversed)
    return replace(traj, positions=traj.positions[:, 0],
                   velocities=traj.velocities[:, 0],
                   accelerations=traj.accelerations[:, 0])


def solve_vector(obs: VectorObservationSeries, eta: float,
                 time_reversed: bool = True) -> ShadowingTrajectory:
    """Fit a d-dimensional trajectory with general information matrices.

    Sample j enters the fit through the root R_j of its information,
    R_j^T R_j = W_j, as the rows R_j (p_j - y_j), so a correlated error
    weighs each direction by its own information. Of the master system's
    solution family the fit is the member with the least
    information-weighted residual to the observations. With diagonal
    informations the problem decouples into per-component scalar fits,
    and with d = 1 it is exactly ``solve_scalar``.
    """
    eta = _require_positive_eta(eta)
    return _solve(obs.grid, obs.values, obs.informations, obs.roots, eta, time_reversed)


def rms_acceleration(traj: ShadowingTrajectory) -> float:
    """Gap-weighted RMS acceleration magnitude over the window; finite for a finite fit."""
    taus, span = traj.grid.taus, traj.grid.span
    a = np.reshape(traj.accelerations, (taus.shape[0], -1))
    return _rescaled(lambda a: float(np.sqrt(np.sum(taus * np.sum(a ** 2, axis=1)) / span)), 1, a)


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
    each step is a Newton step on log xi from the latest fit, using its
    ``log_xi_slope``, and bisects the bracket instead when that step would
    leave it, would be longer than half the step before last, or the
    slope is not negative. The first step starts from the bracket end
    nearer the target in log xi. The search stops once xi is
    within ``SEARCH_REL_TOL`` of the target and raises MaxIterations after
    ``SEARCH_MAX_ITERATIONS`` steps. When even eta_lo already meets the
    bound (xi(eta_lo) < target, e.g. affine data), the smoothest end
    eta_hi is returned by convention. The result carries the fit at the
    returned eta, so no caller need solve it again.
    """
    xi_target = _real(xi_target)
    if not (np.isfinite(xi_target) and xi_target >= 0.0):
        raise UsageError(f"xi target must be a finite non-negative number, got {xi_target!r}")
    eta_lo, eta_hi = _require_bracket(eta_lo, eta_hi)
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

    # log xi is close to linear in log eta over decades, so Newton steps
    # in log space converge in few solves. Every fit narrows the bracket.
    # As in rtsafe (Numerical Recipes, sec. 9.4), a Newton step longer than
    # half the step before last is replaced by a bisection, so a poor slope
    # cannot stall the search.
    x_lo, x_hi = np.log(eta_lo), np.log(eta_hi)
    nearer_lo = xi_lo * (xi_hi / xi_target) < xi_target
    fit, xi = (fit_lo, xi_lo) if nearer_lo else (fit_hi, xi_hi)
    step_before = step = x_hi - x_lo
    for iteration in range(1, SEARCH_MAX_ITERATIONS + 1):
        x = np.log(fit.eta)
        x_new = 0.5 * (x_lo + x_hi)
        if xi > 0.0 and fit.log_xi_slope < 0.0:
            newton = x - np.log(xi / xi_target) / fit.log_xi_slope
            if x_lo < newton < x_hi and abs(newton - x) <= 0.5 * abs(step_before):
                x_new = newton
        step_before, step = step, x_new - x
        fit, xi = fit_at(float(np.exp(x_new)))
        if abs(xi - xi_target) <= tol:
            return result(fit, xi, iteration)
        if xi > xi_target:
            x_lo = x_new
        else:
            x_hi = x_new
    raise MaxIterations(
        f"eta search did not reach |xi - {xi_target:g}| <= {tol:g} within "
        f"{SEARCH_MAX_ITERATIONS} iterations (bracket [{np.exp(x_lo):g}, {np.exp(x_hi):g}])"
    )


def _spline_eval(traj: ShadowingTrajectory, t, *, derivative: bool):
    times = traj.grid.times
    tq = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(tq)):
        bad = float(tq.flat[np.argmax(~np.isfinite(tq))])
        raise TimeOutOfRange(f"time {bad!r} is not finite")
    if np.any(tq < times[0]):
        bad = float(tq.flat[np.argmax(tq < times[0])])
        raise TimeOutOfRange(
            f"time {bad!r} precedes the fitted window starting at {float(times[0])!r}"
        )
    # Every fit is evaluated as (m, d); the result takes the query's shape
    # followed by the shape of one stored position.
    m = times.shape[0]
    p = np.reshape(traj.positions, (m, -1))
    v = np.reshape(traj.velocities, (m, -1))
    a = np.reshape(traj.accelerations, (m - 1, -1))
    idx = np.searchsorted(times, tq, side="right") - 1
    beyond = (idx >= m - 1)[..., None]
    idx = np.minimum(idx, m - 2)
    dt = (tq - times[idx])[..., None]
    if derivative:
        inside = v[idx] + a[idx] * dt
        past_end = np.broadcast_to(v[-1], inside.shape)
    else:
        inside = p[idx] + v[idx] * dt + 0.5 * a[idx] * dt ** 2
        # Beyond the window: constant velocity from the last state.
        past_end = p[-1] + v[-1] * (tq - times[-1])[..., None]
    out = np.reshape(np.where(beyond, past_end, inside), tq.shape + traj.positions.shape[1:])
    return float(out) if out.ndim == 0 else out


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
