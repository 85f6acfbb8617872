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
its gradient is h times Au + u - u^p.  Every exterior value being a
kernel-weighted average of interior values, the reduced operator is
one symmetric matrix on the interior, R = diag(rs_I) - W_II -
W_IE D_E^-1 W_EI + C diag(T_I) C (``_neumann_matrix``).  A solve
applies this matrix, the operator of the extension, or R with its
collar terms as the factors of ``lowrank``; ``solvers._reduced_operator``
chooses which, in one place.

Each form is assembled in one place.  ``_neumann`` returns
(J_d, Q, int |u|^(p+1)) for ``J_d``, ``nehari_scale``, ``peak_energy``
and the least-energy solver.  On the line the form is
integrate(u Lu) with L the operator ``_frac_laplacian`` itself, which
by summation by parts is c/2 times the pair sums with the
second-difference rule; ``_whole_space`` forms F, the Pohozaev value
and the scale of its terms from it for ``F_energy``, ``pohozaev`` and
the ground-state report.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import LineGrid, Params
from .kernel import KernelTable, _exact_mean, _frac_laplacian, _nodal
from .neumann import ExtendedField, _check_same_grid

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
    _check_same_grid(grid, table.grid)
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


def _neumann_operator(full: np.ndarray, table: KernelTable) -> np.ndarray:
    """Reduced Neumann operator at the interior values of an extension.

    ``full`` holds every node's value of the extension of its interior
    values u_int = full[lo:hi].  Returns sum_j W_kj (u_k - u_j) + T_k
    v_k - mean_I(T v) over every node j, with v the field centred at
    its interior mean; d c times it is the operator A of the reduced
    form, so seminorm_T = 2h u.op(u) on the extension.  One product,
    W[I, :] full.
    """
    grid = table.grid
    lo, hi = grid.interior_range
    n = grid.n_nodes
    u_int = full[lo:hi]
    pair = u_int * table.row_sums(lo, hi, 0, n)
    pair -= table.matvec(full, lo, hi, 0, n)
    pair += _tail_term(u_int, table.tail[lo:hi])
    return pair


def _tail_term(u_int: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """C diag(T_I) C u_int, C = I - 11^T / n_I: the reduced operator's tail."""
    tv = u_int - float(u_int.sum()) / u_int.size
    tv *= tail
    tv -= float(tv.sum()) / tv.size
    return tv


def _neumann_matrix(table: KernelTable) -> np.ndarray:
    """Matrix R of ``_neumann_operator`` on the interior, exactly symmetric.

    R = diag(rs_I) - W_II - W_IE D_E^-1 W_EI + C diag(T_I) C, with rs_I
    the interior rows' sums over every node, D_E the collar rows' sums
    over the interior and C = I - 11^T / n_I.  The extension's mean
    terms cancel because W_EI 1 = D_E, so R v is
    ``_neumann_operator(_extension(v, table), table)`` to round-off,
    and R 1 = 0.  Assembled from ``omega`` by indexing and one product
    M M^T with M = W_IE D_E^(-1/2) of the left collar.  When the two
    collars are equally wide, as on every ``build_grid`` grid, the
    right collar's block is the left one's with rows and columns
    reversed; otherwise each collar side makes its own product.  Meant
    for small interiors, where its n_I^2 n_E multiply-adds cost less
    than the products it saves.
    """
    grid = table.grid
    lo, hi = grid.interior_range
    n = grid.n_nodes
    k = hi - lo
    inner = np.arange(lo, hi)
    den = table.row_sums(0, n, lo, hi)
    mirrored = lo == n - hi
    # every term is symmetric entry by entry, M M^T too (numpy's syrk)
    r = -table.omega[np.abs(inner[:, None] - inner)]
    for c0, c1 in ((0, lo),) if mirrored else ((0, lo), (hi, n)):
        if c0 < c1:
            m = table.omega[np.abs(inner[:, None] - np.arange(c0, c1))]
            m /= np.sqrt(den[c0:c1])
            block = m @ m.T
            r -= block
            if mirrored:
                r -= block[::-1, ::-1]
    tail = table.tail[lo:hi]
    r -= np.add.outer(tail, tail) / k
    r += float(tail.sum()) / (k * k)
    r[np.diag_indices(k)] += table.row_sums(lo, hi, 0, n) + tail
    return r


def _nehari_ray(quad: float, pot: float, p: float) -> tuple[float, float]:
    """Maximizer t0 and peak of t -> (t^2/2) quad - (t^(p+1)/(p+1)) pot.

    t0 = (quad/pot)^(1/(p-1)) and the peak is (1/2 - 1/(p+1)) t0^(p+1) pot;
    callers check that the direction is not degenerate (pot > 0).
    """
    t0 = (quad / pot) ** (1.0 / (p - 1.0))
    return t0, (0.5 - 1.0 / (p + 1.0)) * t0 ** (p + 1.0) * pot


def _ray_through(
    u: ExtendedField, params: Params, table: KernelTable
) -> tuple[float, float]:
    """(t0, peak) of ``_nehari_ray`` along the ray through ``u``.

    Raises ValueError when ``u`` vanishes on the domain, and, naming p,
    when t0 or the peak lies past the float range (p near 1, or a tiny
    domain): the power raises OverflowError there, or the peak is inf.
    """
    _, quad, pot = _neumann(u, params, table)
    if pot <= 0.0:
        raise ValueError("degenerate direction: field vanishes on the domain")
    try:
        t0, peak = _nehari_ray(quad, pot, params.p)
    except OverflowError:
        t0 = peak = math.inf
    if not (math.isfinite(t0) and math.isfinite(peak)):
        raise ValueError(
            f"the Nehari scale (Q/P)^(1/(p-1)) or its peak energy leaves the "
            f"float range at p = {params.p}"
        )
    return t0, peak


def nehari_scale(u: ExtendedField, params: Params, table: KernelTable) -> float:
    """Unique maximizer t0 of t -> J_d(t u) along the ray through u.

    Closed form t0 = (Q / int |u|^(p+1))^(1/(p-1)) with Q the quadratic
    part; no line search is involved.  A ray whose t0 or peak is not a
    finite float raises ValueError naming p.
    """
    return float(_ray_through(u, params, table)[0])


def peak_energy(u: ExtendedField, params: Params, table: KernelTable) -> float:
    """sup over t >= 0 of J_d(t u), evaluated at the closed-form t0.

    Checks the Nehari algebra (1/2 - 1/(p+1)) t0^(p+1) int |u|^(p+1)
    against the direct evaluation and refuses to return silently
    inconsistent numbers.  A ray whose t0 or peak is not a finite float
    raises ValueError naming p.
    """
    t0, algebra = _ray_through(u, params, table)
    direct = J_d(ExtendedField(t0 * u.values, u.grid), params, table)
    if abs(direct - algebra) > 1e-12 * max(1.0, abs(direct)):
        raise ValueError(
            f"peak-energy evaluations disagree: direct {direct!r}, "
            f"Nehari algebra {algebra!r}"
        )
    return direct


def _whole_space(u: np.ndarray, p: float, table: KernelTable) -> tuple[float, ...]:
    """F(u), the Pohozaev value P(u) and the largest of P's three terms.

    The seminorm term c/2 [u]^2 is integrate(u Lu), one product.
    """
    grid = table.grid
    if not isinstance(grid, LineGrid):
        raise ValueError("whole-space energies need a symmetric line grid")
    v = _nodal(u, table.n_nodes)
    form = grid.integrate(v * _frac_laplacian(v, table))
    mass = 0.5 * grid.integrate(v * v)
    pot = grid.integrate(np.abs(v) ** (p + 1.0)) / (p + 1.0)
    semi = (0.5 - table.s) * form
    f_val = 0.5 * form + mass - pot
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
