"""Observation series, the batch solve's input, checked when they are made.

The module needs numpy alone and holds no solver code, so reading and
writing observation files, or generating scenarios, never loads the
solver. ``solver`` keeps both as attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DegenerateWeights, ShapeMismatch
from .matrices import TimeGrid, _frozen, _symmetrized

__all__ = ["ScalarObservationSeries", "VectorObservationSeries"]

MIN_EFFECTIVE_SAMPLES = 3


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
    roots: np.ndarray = field(init=False, repr=False, compare=False)  # R^T R = information

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
        sym, roots = _symmetrized(infos)
        # A positive semidefinite matrix is nonzero iff a diagonal entry is positive.
        usable = int(np.count_nonzero(np.any(np.diagonal(sym, axis1=1, axis2=2) > 0.0, axis=1)))
        if usable < MIN_EFFECTIVE_SAMPLES:
            raise DegenerateWeights(
                f"need at least {MIN_EFFECTIVE_SAMPLES} samples with nonzero "
                f"information, got {usable}"
            )
        object.__setattr__(self, "values", _frozen(values))
        object.__setattr__(self, "informations", _frozen(sym))
        object.__setattr__(self, "roots", _frozen(roots))

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @classmethod
    def _decomposed(cls, grid: TimeGrid, values: np.ndarray, informations: np.ndarray,
                    roots: np.ndarray) -> VectorObservationSeries:
        """The series of informations already checked by ``_symmetrized``, with their roots.

        Nothing is checked or decomposed again: the caller vouches for the
        shapes, for symmetric positive semidefinite informations with
        R^T R = information, and for at least ``MIN_EFFECTIVE_SAMPLES``
        nonzero ones, as the tracker's slots hold them.
        """
        series = cls.__new__(cls)
        object.__setattr__(series, "grid", grid)
        object.__setattr__(series, "values", _frozen(values))
        object.__setattr__(series, "informations", _frozen(informations))
        # Laid out as ``_symmetrized`` lays out its roots, each transposed in
        # memory: the solve's products then round as for a fresh series.
        roots = np.ascontiguousarray(np.swapaxes(roots, 1, 2)).swapaxes(1, 2)
        object.__setattr__(series, "roots", _frozen(roots))
        return series
