"""Numerical laboratory for a one-dimensional fractional Neumann problem.

Computes least-energy solutions of  d*(-Lap)^s u + u = u^p  on a bounded
interval with a nonlocal Neumann condition, plus the whole-space ground
state the small-diffusion regime concentrates on, and ships the
diagnostics (scaling fits, boundary migration, profile comparison,
iteration bookkeeping) used to check the expected asymptotic laws.

The public names are those each library module lists in its ``__all__``.
"""

from __future__ import annotations

from . import energy, grids, harness, kernel, moser, neumann, solvers
from .energy import *  # noqa: F403
from .grids import *  # noqa: F403
from .harness import *  # noqa: F403
from .kernel import *  # noqa: F403
from .moser import *  # noqa: F403
from .neumann import *  # noqa: F403
from .solvers import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *(name for m in (grids, kernel, neumann, energy, solvers, moser, harness)
      for name in m.__all__),
    "__version__",
]
