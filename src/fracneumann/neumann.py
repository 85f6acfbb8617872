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
field is a no-op.

The numerator is one Toeplitz product W[:, I](u_I - m).  The seminorm
of the extended field needs exactly that product, so ``extend`` leaves
it on the field it returns and ``seminorm_T`` takes it over instead of
making it again; the hand-over happens once, after which the field no
longer holds the array.  Extended values are read-only, so the product
cannot go stale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import Grid
from .kernel import KernelTable, _exact_mean, _nodal

__all__ = ["ExtendedField", "neumann_derivative", "extend"]


@dataclass(frozen=True)
class ExtendedField:
    """Full-grid values on a bounded-domain grid.

    Fields built by ``extend`` satisfy N_s u = 0 on the collar; a
    hand-assembled field (a perturbation, a scaled copy) makes no claim
    about the Neumann derivative.
    """

    values: np.ndarray
    grid: Grid
    # (table, W[:, I](u_I - m)) as made by ``extend``, for one hand-over;
    # not an init field, so ``dataclasses.replace`` never carries it over
    _product: tuple[KernelTable, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _nodal(self.values, self.grid.n_nodes))

    @property
    def interior_values(self) -> np.ndarray:
        lo, hi = self.grid.interior_range
        return self.values[lo:hi]

    def _take_product(self, table: KernelTable) -> np.ndarray | None:
        """W[:, I](u_I - m) if ``extend`` made it with ``table``; once only."""
        held = self._product
        if held is None:
            return None
        object.__setattr__(self, "_product", None)
        return held[1] if held[0] is table else None


def neumann_derivative(u: ExtendedField | np.ndarray, table: KernelTable, x: int) -> float:
    """Discrete Neumann derivative N_s u at the exterior node ``x``.

    The defining integral runs over the domain only, so the value is
    c_ns * sum over interior j of W[x][j] * (u(x) - u(x_j)); neither the
    kernel tail nor other exterior nodes enter.  A bare array must hold
    one finite value per node.
    """
    grid = table.grid
    if not isinstance(grid, Grid):
        raise ValueError("Neumann derivative needs a bounded-domain grid")
    v = u.values if isinstance(u, ExtendedField) else _nodal(u, grid.n_nodes)
    if not 0 <= x < grid.n_nodes:
        raise ValueError(f"node index {x} outside the grid")
    if grid.interior[x]:
        raise ValueError(f"node {x} is interior; N_s is defined on the collar")
    lo, hi = grid.interior_range
    row = table.omega[np.abs(np.arange(lo, hi) - x)]
    return float(table.c_ns * (row @ (v[x] - v[lo:hi])))


def extend(u_int: np.ndarray, table: KernelTable) -> ExtendedField:
    """Extend interior data to the collar so that N_s u = 0 exactly.

    Each exterior value is the kernel-weighted average of the interior
    values; weights are positive, so the exterior range is contained in
    [min u_int, max u_int] and nonnegative data stays nonnegative.  The
    returned values are read-only and carry the numerator product for
    the first ``seminorm_T`` of the field.
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

    n = grid.n_nodes
    m = _exact_mean(v)
    num = table.matvec(v - m, 0, n, lo, hi)
    den = table.row_sums(0, n, lo, hi)
    full = np.empty(n, dtype=np.float64)
    full[lo:hi] = v
    for r0, r1 in ((0, lo), (hi, n)):
        full[r0:r1] = m + num[r0:r1] / den[r0:r1]
    full.flags.writeable = False
    ext = ExtendedField(full, grid)
    object.__setattr__(ext, "_product", (table, num))
    return ext
