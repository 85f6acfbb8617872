"""Energy functionals, identities and Nehari scaling.

Two quadratic forms live here and they are deliberately not the same
quadrature:

* the Neumann seminorm over the cross set (everything except pairs of
  exterior points) uses pure pair terms plus an analytic tail, with no
  diagonal-cell rule, so its exterior stationarity point is exactly the
  kernel-weighted average that ``extend`` produces;
* the whole-space form pairs the operator's second-difference diagonal
  rule with the same tail, so its gradient is exactly
  h * (c * frac_laplacian_apply(u) + u - |u|^(p-1) u) and Euler-Lagrange
  residuals of ground states can be driven to round-off.

Each double sum costs at most one Toeplitz product through the table's
FFT engine.  The Neumann form gets its interior and cross pairs from
the one product W[:, I] v_I, using the symmetry of the weights, with v
the field minus its interior mean.  In the interior values alone the
form is reduced: with A = d c ``_neumann_operator`` applied to the
Neumann extension, the quadratic part of J_d is h (u.Au + u.u), and
the gradient ``_neumann_residual`` is h times Au + u - u^p.

Each form is assembled in one place.  ``_neumann`` returns
(J_d, Q, int |u|^(p+1)) for ``J_d``, ``nehari_scale``, ``peak_energy``
and the least-energy solver, beside its gradient ``_neumann_residual``.
On the line, ``_line_integrals`` returns ([v]^2, int v^2,
int |v|^(p+1)) from one product, and ``_whole_space`` forms F, the
Pohozaev value and the scale of its terms from that triple for
``F_energy``, ``pohozaev`` and the ground-state report.
"""

from __future__ import annotations

import numpy as np

from .grids import Grid, LineGrid, Params
from .kernel import KernelTable, _exact_mean, _nodal
from .neumann import ExtendedField

__all__ = [
    "seminorm_T",
    "J_d",
    "nehari_scale",
    "peak_energy",
    "F_energy",
    "pohozaev",
]


def seminorm_T(u: ExtendedField, table: KernelTable) -> float:
    """Double integral of |u(x)-u(y)|^2 over the cross set, unscaled.

    Decomposed as (domain x domain) + 2 (domain x collar) pair sums plus
    the analytic tail for exterior mass beyond the represented window,
    where the field is modelled by its interior mean.  The value is
    translation invariant and vanishes exactly for constants; exterior
    values enter only through the pair terms, so minimizing over them
    reproduces the Neumann extension.  One product, W[:, I] v_I.
    """
    grid = u.grid
    if not isinstance(table.grid, Grid) or table.grid.n_nodes != grid.n_nodes:
        raise ValueError("field and table grids do not match")
    lo, hi = grid.interior_range
    n = grid.n_nodes
    v = u.values - _exact_mean(u.values[lo:hi])
    vi = v[lo:hi]
    vi2 = vi * vi

    # rows I of W[:, I] v_I pair the domain with itself, and by symmetry
    # v_E . W_EI v_I on the collar rows equals v_I . W_IE v_E
    conv = table.matvec(vi, 0, n, lo, hi)
    rs = table.row_sums(0, n, lo, hi)

    # domain x domain: sum_{i,j in I, i != j} W (v_i - v_j)^2
    part_ii = 2.0 * (float(vi2 @ rs[lo:hi]) - float(vi @ conv[lo:hi]))

    # domain x collar, both orders
    part_ie = 0.0
    for c0, c1 in ((0, lo), (hi, n)):
        if c0 == c1:
            continue
        ve = v[c0:c1]
        part_ie += (
            float(vi2 @ table.row_sums(lo, hi, c0, c1))
            + float((ve * ve) @ rs[c0:c1])
            - 2.0 * float(ve @ conv[c0:c1])
        )

    tail_part = float(vi2 @ table.tail[lo:hi])
    return max(grid.h * (part_ii + 2.0 * part_ie + 2.0 * tail_part), 0.0)


def _neumann(
    u: ExtendedField, params: Params, table: KernelTable
) -> tuple[float, float, float]:
    """(J_d(u), Q(u), int |u|^(p+1)) of a full-grid field.

    Q = d c/2 seminorm_T + int u^2 is the quadratic part and J_d =
    Q/2 - int |u|^(p+1) / (p+1); mass and potential are the grid's
    midpoint rule over the domain.  One product.
    """
    grid = u.grid
    ui = u.interior_values
    quad = params.d * table.c_ns / 2.0 * seminorm_T(u, table) + grid.integrate(ui * ui)
    pot = grid.integrate(np.abs(ui) ** (params.p + 1.0))
    return quad / 2.0 - pot / (params.p + 1.0), quad, pot


def J_d(u: ExtendedField, params: Params, table: KernelTable) -> float:
    """Neumann energy (d c/2 [u]_T^2 + int u^2)/2 - int |u|^(p+1) / (p+1)."""
    return _neumann(u, params, table)[0]


def _neumann_operator(
    u_int: np.ndarray, full: np.ndarray, table: KernelTable
) -> np.ndarray:
    """Reduced Neumann operator at u_int, given the full values of its extension.

    sum_j W_kj (u_k - u_j) + T_k v_k - mean_I(T v) over every node j,
    with v the field centred at its interior mean; d c times it is the
    operator A of the reduced form, so seminorm_T = 2h u.op(u) on the
    extension.  One product, W[I, :] full.
    """
    grid = table.grid
    lo, hi = grid.interior_range
    n = grid.n_nodes
    conv = table.matvec(full, lo, hi, 0, n)
    rs = table.row_sums(lo, hi, 0, n)
    pair = u_int * rs - conv

    mean = float(u_int.sum()) / u_int.size
    tv = table.tail[lo:hi] * (u_int - mean)
    return pair + (tv - float(tv.sum()) / tv.size)


def _neumann_residual(
    u_int: np.ndarray, ext: ExtendedField, params: Params, table: KernelTable
) -> np.ndarray:
    """Pointwise Euler-Lagrange residual d c op(u) + u - u^p at u_int.

    ``ext`` is the extension of u_int; the gradient of J_d in the
    interior unknowns is h times this vector.
    """
    dc = params.d * table.c_ns
    return dc * _neumann_operator(u_int, ext.values, table) + u_int - u_int**params.p


def _nehari_ray(quad: float, pot: float, p: float) -> tuple[float, float]:
    """Maximizer t0 and peak of t -> (t^2/2) quad - (t^(p+1)/(p+1)) pot.

    t0 = (quad/pot)^(1/(p-1)) and the peak is (1/2 - 1/(p+1)) t0^(p+1) pot;
    callers check that the direction is not degenerate (pot > 0).
    """
    t0 = (quad / pot) ** (1.0 / (p - 1.0))
    return t0, (0.5 - 1.0 / (p + 1.0)) * t0 ** (p + 1.0) * pot


def nehari_scale(u: ExtendedField, params: Params, table: KernelTable) -> float:
    """Unique maximizer t0 of t -> J_d(t u) along the ray through u.

    Closed form t0 = (Q / int |u|^(p+1))^(1/(p-1)) with Q the quadratic
    part; no line search is involved.
    """
    _, quad, pot = _neumann(u, params, table)
    if pot <= 0.0:
        raise ValueError("degenerate direction: field vanishes on the domain")
    return float(_nehari_ray(quad, pot, params.p)[0])


def peak_energy(u: ExtendedField, params: Params, table: KernelTable) -> float:
    """sup over t >= 0 of J_d(t u), evaluated at the closed-form t0.

    Checks the Nehari algebra (1/2 - 1/(p+1)) t0^(p+1) int |u|^(p+1)
    against the direct evaluation and refuses to return silently
    inconsistent numbers.
    """
    _, quad, pot = _neumann(u, params, table)
    if pot <= 0.0:
        raise ValueError("degenerate direction: field vanishes on the domain")
    t0, algebra = _nehari_ray(quad, pot, params.p)
    direct = J_d(ExtendedField(t0 * u.values, u.grid), params, table)
    if abs(direct - algebra) > 1e-12 * max(1.0, abs(direct)):
        raise ValueError(
            f"peak-energy evaluations disagree: direct {direct!r}, "
            f"Nehari algebra {algebra!r}"
        )
    return direct


def _line_integrals(
    v: np.ndarray, p: float, table: KernelTable
) -> tuple[float, float, float]:
    """([v]^2, int v^2, int |v|^(p+1)) of a whole-space field.

    [v]^2 is the double integral of |v(x)-v(y)|^2 |x-y|^(-1-2s) with the
    operator's second-difference rule and analytic tails, so
    h * v . frac_laplacian_apply(v) = c/2 [v]^2.  One product.
    """
    grid = table.grid
    n = v.shape[0]
    v2 = v * v
    # sum_{i != j} W (v_i - v_j)^2 from one product, and the edge sums
    # (v_{i+1} - v_i)^2 of the operator's second-difference rule
    conv = table.matvec(v, 0, n, 0, n)
    pair = 2.0 * (float(v2 @ table.row_sums(0, n, 0, n)) - float(v @ conv))
    dv = np.diff(v)
    tail = float(v2 @ table.tail)
    gag = grid.h * (pair + 2.0 * table.pv_coeff * float(dv @ dv) + 2.0 * tail)
    return gag, grid.integrate(v2), grid.integrate(np.abs(v) ** (p + 1.0))


def _whole_space(u: np.ndarray, p: float, table: KernelTable) -> tuple[float, ...]:
    """F(u), the Pohozaev value P(u) and the largest of P's three terms."""
    if not isinstance(table.grid, LineGrid):
        raise ValueError("whole-space energies need a symmetric line grid")
    gag, mass, pot = _line_integrals(_nodal(u, table.n_nodes), p, table)
    mass, pot = 0.5 * mass, pot / (p + 1.0)
    semi = (1.0 - 2.0 * table.s) * table.c_ns / 4.0 * gag
    f_val = table.c_ns / 4.0 * gag + mass - pot
    return f_val, semi + mass - pot, max(abs(semi), abs(mass), abs(pot))


def F_energy(u: np.ndarray, p: float, table: KernelTable) -> float:
    """Whole-space energy 1/2 [c [u]^2 + int u^2] - int |u|^(p+1) / (p+1).

    The fractional order is the table's; ``u`` holds one finite value
    per node of a line grid.
    """
    return _whole_space(u, p, table)[0]


def pohozaev(u: np.ndarray, p: float, table: KernelTable) -> float:
    """Pohozaev functional of a whole-space field (n = 1).

    P(u) = ((1-2s) c / 4) [u]^2 + 1/2 int u^2 - 1/(p+1) int |u|^(p+1),
    with s the table's order; vanishes on exact ground states, so its
    size is a discretization diagnostic.
    """
    return _whole_space(u, p, table)[1]
