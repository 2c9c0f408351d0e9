"""Time grids and the structured matrices of the smoothing linear system.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IndefiniteInformation,
    NonIncreasingTimes,
    NonSymmetricInformation,
    ShapeMismatch,
    TooFewPoints,
)

__all__ = [
    "TimeGrid",
    "FilterMatrices",
    "IdentityReport",
    "build_time_grid",
    "build_filter_matrices",
    "verify_identities",
]


def _frozen(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _symmetrized(infos: np.ndarray, where: str = "at sample {}") -> tuple[np.ndarray, np.ndarray]:
    """Symmetric parts W of finite (m, d, d) information matrices, and their roots.

    One eigendecomposition W = V diag(lambda) V^T per matrix checks that W
    is positive semidefinite and gives the root sqrt(max(lambda, 0)) V^T,
    whose Gram matrix is W even when W is singular, unlike a Cholesky
    factor. Raises NonSymmetricInformation or IndefiniteInformation for the
    first matrix that is not symmetric, or not positive semidefinite, to
    within 1e-12 of one plus its largest entry; ``where`` names it in the
    message, formatted with its index.
    """
    scale = np.abs(infos).max(axis=(1, 2))
    skew = np.abs(infos - np.transpose(infos, (0, 2, 1))).max(axis=(1, 2))
    bad = np.nonzero(skew > 1e-12 * (1.0 + scale))[0]
    if bad.size:
        raise NonSymmetricInformation(
            f"information matrix {where.format(int(bad[0]))} is not symmetric "
            f"(max asymmetry {skew[bad[0]]:.3e})"
        )
    sym = 0.5 * infos + 0.5 * np.transpose(infos, (0, 2, 1))  # halved first: no overflow
    eigenvalues, vectors = np.linalg.eigh(sym)
    low = eigenvalues.min(axis=1)
    bad = np.nonzero(low < -1e-12 * (1.0 + scale))[0]
    if bad.size:
        raise IndefiniteInformation(
            f"information matrix {where.format(int(bad[0]))} has eigenvalue "
            f"{low[bad[0]]:.3e}"
        )
    return sym, np.sqrt(np.maximum(eigenvalues, 0.0))[:, :, None] * np.swapaxes(vectors, 1, 2)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing sample times and their gaps.

    Arrays are read-only so a grid can be shared between solves and
    threads without defensive copies.
    """

    times: np.ndarray  # shape (n+1,)
    taus: np.ndarray   # shape (n,), all positive

    @property
    def n(self) -> int:
        """Number of gaps (one less than the number of samples)."""
        return self.taus.shape[0]

    @property
    def span(self) -> float:
        """Total window length t_n - t_0."""
        return float(self.times[-1] - self.times[0])


def build_time_grid(times) -> TimeGrid:
    """Validate sample times and derive the gap sequence.

    Raises TooFewPoints for fewer than three samples, NonIncreasingTimes
    when times are not strictly increasing or not finite.
    """
    arr = np.asarray(times, dtype=float)
    if arr.ndim != 1:
        raise ShapeMismatch(f"times must be one-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 3:
        raise TooFewPoints(
            f"need at least 3 samples to constrain an acceleration, got {arr.shape[0]}"
        )
    if not np.all(np.isfinite(arr)):
        raise NonIncreasingTimes("times contain non-finite values")
    taus = np.diff(arr)
    if np.any(taus <= 0.0):
        bad = int(np.argmax(taus <= 0.0))
        raise NonIncreasingTimes(
            f"times must be strictly increasing; violation between samples "
            f"{bad} and {bad + 1} ({float(arr[bad])!r} -> {float(arr[bad + 1])!r})"
        )
    return TimeGrid(times=_frozen(arr), taus=_frozen(taus))


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
