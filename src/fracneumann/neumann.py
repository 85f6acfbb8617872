"""Nonlocal Neumann derivative and the exterior extension that annuls it.

Setting the Neumann derivative to zero and solving for the exterior
value turns the boundary condition into an explicit formula: every
exterior node carries the kernel-weighted average of the interior
values.  Solvers therefore treat interior values as the only unknowns
and rebuild the collar through ``extend`` whenever they need a full
field.

The average is taken of the data minus its interior mean m, then m is
added back, so a constant interior field extends to exactly the same
constant (bitwise) at every grid size, and re-extending an extended
field is a no-op.  The numerator is one Toeplitz product
W[:, I](u_I - m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid
from .kernel import KernelTable, _exact_mean, _nodal

__all__ = ["ExtendedField", "neumann_derivative", "extend"]


@dataclass(frozen=True, eq=False)
class ExtendedField:
    """Full-grid values on a bounded-domain grid.

    Fields built by ``extend`` satisfy N_s u = 0 on the collar; a
    hand-assembled field (a perturbation, a scaled copy) makes no claim
    about the Neumann derivative.
    """

    values: np.ndarray
    grid: Grid

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _nodal(self.values, self.grid.n_nodes))

    @property
    def interior_values(self) -> np.ndarray:
        lo, hi = self.grid.interior_range
        return self.values[lo:hi]


def _check_same_grid(grid: Grid, other) -> None:
    """Raise unless ``other`` is ``grid`` or a grid of equal (a, b) and nodes."""
    if grid is not other and not (
        isinstance(other, Grid)
        and (grid.a, grid.b) == (other.a, other.b)
        and np.array_equal(grid.nodes, other.nodes)
    ):
        raise ValueError("field and table grids do not match")


def neumann_derivative(u: ExtendedField | np.ndarray, table: KernelTable, x: int) -> float:
    """Discrete Neumann derivative N_s u at the exterior node ``x``.

    The defining integral runs over the domain only, so the value is
    c_ns * sum over interior j of W[x][j] * (u(x) - u(x_j)); neither the
    kernel tail nor other exterior nodes enter.  A bare array must hold
    one finite value per node, a field must live on the table's grid,
    and ``x`` must be an ``int`` or numpy integer (not a ``bool``).
    """
    grid = table.grid
    if not isinstance(grid, Grid):
        raise ValueError("Neumann derivative needs a bounded-domain grid")
    if isinstance(u, ExtendedField):
        _check_same_grid(u.grid, grid)
        v = u.values
    else:
        v = _nodal(u, grid.n_nodes)
    n = grid.n_nodes
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not 0 <= x < n:
        raise ValueError(f"node index must be an integer in [0, {n}), got {x!r}")
    lo, hi = grid.interior_range
    if lo <= x < hi:
        raise ValueError(f"node {x} is interior; N_s is defined on the collar")
    row = table.omega[np.abs(np.arange(lo, hi) - x)]
    return float(table.c_ns * (row @ (v[x] - v[lo:hi])))


def _extension(v: np.ndarray, table: KernelTable) -> np.ndarray:
    """Full values of the extension of interior data ``v``, which they hold.

    One product, whose fresh result becomes the returned array in
    place; ``v`` is taken as checked.
    """
    grid = table.grid
    lo, hi = grid.interior_range
    n = grid.n_nodes
    m = _exact_mean(v)
    full = table.matvec(v - m, 0, n, lo, hi)
    den = table.row_sums(0, n, lo, hi)
    for r0, r1 in ((0, lo), (hi, n)):
        side = full[r0:r1]
        side /= den[r0:r1]
        side += m
    full[lo:hi] = v
    return full


def extend(u_int: np.ndarray, table: KernelTable) -> ExtendedField:
    """Extend interior data to the collar so that N_s u = 0 exactly.

    Each exterior value is the kernel-weighted average of the interior
    values; weights are positive, so the exterior range is contained in
    [min u_int, max u_int] and nonnegative data stays nonnegative.  The
    returned values are read-only.
    """
    grid = table.grid
    if not isinstance(grid, Grid):
        raise ValueError("extension needs a bounded-domain grid")
    v = np.asarray(u_int, dtype=np.float64)
    lo, hi = grid.interior_range
    if v.shape != (hi - lo,):
        raise ValueError(
            f"interior field has {v.shape} values for {hi - lo} interior nodes"
        )
    if not np.all(np.isfinite(v)):
        raise ValueError("interior values must be finite")

    full = _extension(v, table)
    full.flags.writeable = False
    return ExtendedField(full, grid)
