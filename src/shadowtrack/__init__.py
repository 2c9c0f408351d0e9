"""Trajectory smoothing and sequential tracking for maneuvering objects.

The package estimates smooth position, velocity, and piecewise constant
acceleration histories from noisy, irregularly sampled, possibly gappy
observations. Observations may arrive directly in track coordinates or
as sensor readings (range and bearing from one site, bearings from two
sites, ranges from two sites) that are first converted into weighted
Cartesian position estimates.

Public layers:

* :mod:`shadowtrack.matrices` builds the structured banded operators for
  a given time grid.
* :mod:`shadowtrack.solver` solves the batch smoothing system, recovers
  velocities and accelerations, searches the smoothing strength for a
  target RMS acceleration, and exposes a dense reference solver.
* :mod:`shadowtrack.geometry` converts sensor readings into position
  estimates with information matrices and condition weights.
* :mod:`shadowtrack.tracker` runs a sequential tracker with configurable
  gap policies. Over the full history or a sliding window it eliminates
  one sample per fix and never re-solves.
* :mod:`shadowtrack.scenarios` generates seeded synthetic data sets.
* :mod:`shadowtrack.fileio` reads and writes the CSV/JSON interchange
  formats used by the ``shadow-track`` command line tool.
"""

from . import errors, geometry, matrices, scenarios, solver, tracker
from .errors import *  # noqa: F401,F403
from .matrices import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .tracker import *  # noqa: F401,F403
from .scenarios import *  # noqa: F401,F403

__version__ = "0.1.0"

# Each module declares its public names once, in its own __all__.
__all__ = [
    "__version__",
    *errors.__all__,
    *matrices.__all__,
    *solver.__all__,
    *geometry.__all__,
    *tracker.__all__,
    *scenarios.__all__,
]
