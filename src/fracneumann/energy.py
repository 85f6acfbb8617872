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
the field minus its interior mean.  That is the numerator product of
the Neumann extension, so a field fresh from ``extend`` hands it over
and its seminorm costs no product at all: one Nehari projection, the
extension plus its seminorm, makes a single product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid, LineGrid, Params
from .kernel import Field, KernelTable, _exact_mean
from .neumann import ExtendedField

__all__ = [
    "EnergyBreakdown",
    "seminorm_T",
    "J_d",
    "nehari_scale",
    "peak_energy",
    "F_energy",
    "pohozaev",
]


@dataclass(frozen=True)
class EnergyBreakdown:
    """J_d split into its three ingredients.

    ``seminorm_term`` carries the full d*c/2 double integral; the total
    halves it together with the mass term, so
    total = (seminorm_term + mass_term)/2 - potential_term holds by
    construction (it is how total is assembled).
    """

    seminorm_term: float
    mass_term: float
    potential_term: float
    total: float


def seminorm_T(u: ExtendedField, table: KernelTable) -> float:
    """Double integral of |u(x)-u(y)|^2 over the cross set, unscaled.

    Decomposed as (domain x domain) + 2 (domain x collar) pair sums plus
    the analytic tail for exterior mass beyond the represented window,
    where the field is modelled by its interior mean.  The value is
    translation invariant and vanishes exactly for constants; exterior
    values enter only through the pair terms, so minimizing over them
    reproduces the Neumann extension.  On a field fresh from ``extend``
    the product W[:, I] v_I is the one the extension made, taken over
    bit for bit instead of recomputed.
    """
    grid = u.grid
    if not isinstance(table.grid, Grid) or table.grid.n_nodes != grid.n_nodes:
        raise ValueError("field and table grids do not match")
    lo, hi = grid.interior_range
    n = grid.n_nodes
    v = u.values - _exact_mean(u.values[lo:hi])
    vi = v[lo:hi]
    vi2 = vi * vi

    # one product (none on a fresh extension): rows I of W[:, I] v_I pair
    # the domain with itself, and by symmetry v_E . W_EI v_I on the
    # collar rows equals v_I . W_IE v_E
    conv = u._take_product(table)
    if conv is None:
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
    total = grid.h * (part_ii + 2.0 * part_ie + 2.0 * tail_part)
    return max(total, 0.0)


def J_d(u: ExtendedField, params: Params, table: KernelTable) -> EnergyBreakdown:
    """Neumann energy of a full-grid field.

    Mass and potential are midpoint cell sums over the domain; the
    seminorm term carries the factor d*c/2 so the reported total is
    (seminorm + mass)/2 - potential.
    """
    grid = u.grid
    h = grid.h
    lo, hi = grid.interior_range
    ui = u.values[lo:hi]
    semi = params.d * table.c_ns / 2.0 * seminorm_T(u, table)
    mass = h * float(np.sum(ui * ui))
    pot = h * float(np.sum(np.abs(ui) ** (params.p + 1.0))) / (params.p + 1.0)
    return EnergyBreakdown(
        seminorm_term=semi,
        mass_term=mass,
        potential_term=pot,
        total=(semi + mass) / 2.0 - pot,
    )


def _quadratic_and_potential(
    u: ExtendedField, params: Params, table: KernelTable
) -> tuple[float, float]:
    """Q(u) = d c seminorm_T + int u^2 and the raw int |u|^(p+1)."""
    lo, hi = u.grid.interior_range
    ui = u.values[lo:hi]
    h = u.grid.h
    quad = params.d * table.c_ns / 2.0 * seminorm_T(u, table) + h * float(
        np.sum(ui * ui)
    )
    pot = h * float(np.sum(np.abs(ui) ** (params.p + 1.0)))
    return quad, pot


def nehari_scale(u: ExtendedField, params: Params, table: KernelTable) -> float:
    """Unique maximizer t0 of t -> J_d(t u) along the ray through u.

    Closed form t0 = (Q / int |u|^(p+1))^(1/(p-1)) with Q the quadratic
    part; no line search is involved.
    """
    quad, pot = _quadratic_and_potential(u, params, table)
    if pot <= 0.0:
        raise ValueError("degenerate direction: field vanishes on the domain")
    return float((quad / pot) ** (1.0 / (params.p - 1.0)))


def peak_energy(u: ExtendedField, params: Params, table: KernelTable) -> float:
    """sup over t >= 0 of J_d(t u), evaluated at the closed-form t0.

    Checks the Nehari algebra (1/2 - 1/(p+1)) t0^(p+1) int |u|^(p+1)
    against the direct evaluation and refuses to return silently
    inconsistent numbers.
    """
    quad, pot = _quadratic_and_potential(u, params, table)
    if pot <= 0.0:
        raise ValueError("degenerate direction: field vanishes on the domain")
    t0 = (quad / pot) ** (1.0 / (params.p - 1.0))
    scaled = ExtendedField(t0 * u.values, u.grid, from_extension=u.from_extension)
    direct = J_d(scaled, params, table).total
    algebra = (0.5 - 1.0 / (params.p + 1.0)) * t0 ** (params.p + 1.0) * pot
    if abs(direct - algebra) > 1e-12 * max(1.0, abs(direct)):
        raise ValueError(
            f"peak-energy evaluations disagree: direct {direct!r}, "
            f"Nehari algebra {algebra!r}"
        )
    return direct


def _line_pieces(v: np.ndarray, table: KernelTable) -> tuple[float, float, float]:
    """(pair sum, second-difference sum, tail sum) of the line form.

    pair = sum_{i != j} W (v_i - v_j)^2, diag = sum over edges of
    (v_{i+1} - v_i)^2 (the quadratic form of the operator's one-sided
    second difference), tail = sum_i tail_i v_i^2.
    """
    n = v.shape[0]
    conv = table.matvec(v, 0, n, 0, n)
    rs = table.row_sums(0, n, 0, n)
    pair = 2.0 * (float((v * v) @ rs) - float(v @ conv))
    dv = np.diff(v)
    diag = float(dv @ dv)
    tail = float((v * v) @ table.tail)
    return pair, diag, tail


def _gagliardo_line(v: np.ndarray, table: KernelTable) -> float:
    """Whole-space double integral of |v(x)-v(y)|^2 |x-y|^(-1-2s).

    Quadrature-consistent with ``frac_laplacian_apply``: the same
    second-difference diagonal rule and analytic tails, so
    h * v . (operator v) = c/2 * (this value).
    """
    pair, diag, tail = _line_pieces(v, table)
    return table.h * (pair + 2.0 * table.pv_coeff * diag + 2.0 * tail)


def _line_field(u: Field | np.ndarray, table: KernelTable) -> np.ndarray:
    v = u.values if isinstance(u, Field) else np.asarray(u, dtype=np.float64)
    if not isinstance(table.grid, LineGrid):
        raise ValueError("whole-space energies need a symmetric line grid")
    if v.shape != (table.n_nodes,):
        raise ValueError("field length does not match the grid")
    return v


def F_energy(
    u: Field | np.ndarray,
    p: float,
    s: float,
    table: KernelTable,
) -> float:
    """Whole-space energy 1/2 [c [u]^2 + int u^2] - int |u|^(p+1) / (p+1)."""
    v = _line_field(u, table)
    if s != table.s:
        raise ValueError(f"table was built for s = {table.s}, not {s}")
    h = table.h
    quad = table.c_ns / 2.0 * _gagliardo_line(v, table) + h * float(
        np.sum(v * v)
    )
    pot = h * float(np.sum(np.abs(v) ** (p + 1.0)))
    return 0.5 * quad - pot / (p + 1.0)


def pohozaev(
    u: Field | np.ndarray,
    p: float,
    s: float,
    table: KernelTable,
) -> float:
    """Pohozaev functional of a whole-space field (n = 1).

    P(u) = ((1-2s) c / 4) [u]^2 + 1/2 int u^2 - 1/(p+1) int |u|^(p+1);
    vanishes on exact ground states, so its size is a discretization
    diagnostic.
    """
    v = _line_field(u, table)
    if s != table.s:
        raise ValueError(f"table was built for s = {table.s}, not {s}")
    h = table.h
    semi = _gagliardo_line(v, table)
    mass = h * float(np.sum(v * v))
    pot = h * float(np.sum(np.abs(v) ** (p + 1.0)))
    return (1.0 - 2.0 * s) * table.c_ns / 4.0 * semi + 0.5 * mass - pot / (p + 1.0)
