"""Scaling-law harness: log-log fits, migration report, profile match.

The solvers produce one :class:`~fracneumann.solvers.SweepRecord` per
diffusion value; this module turns a stack of them into the quantities
the asymptotic theory predicts: power-law slopes of the integral norms
and the least energy, the boundary-migration constant K*, and the
sup-distance between the rescaled solution profile and the whole-space
ground state.  It also hosts the self-verification suite and the CSV
round trip used by the command line.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .energy import peak_energy
from .grids import Grid, Params, build_line_grid
from .kernel import KernelTable, frac_laplacian_apply, kernel_weights
from .moser import (
    L_closed_form,
    M_sequence,
    MoserParams,
    elementary_inequality_margin,
    gamma_majorant,
)
from .neumann import extend, neumann_derivative
from .solvers import (
    GroundStateResult,
    J_d_constant,
    LeastEnergyResult,
    SweepRecord,
    _LR_COLUMNS,
    _atomic_write,
    _finite,
    _fmt,
    default_grid_policy,
    solve_ground_state,
    solve_least_energy,
    transplant_ground_state,
)

__all__ = [
    "FitResult",
    "MigrationResult",
    "VerifyItem",
    "scaling_fit",
    "boundary_migration",
    "profile_compare",
    "verify_suite",
    "write_sweep_csv",
    "read_sweep_csv",
]

_LR_LABELS = tuple(label for label, _ in _LR_COLUMNS)

# Quantity selectors accepted by scaling_fit: energy, sup, or one of the
# stored integrals.
_QUANTITIES = ("cd", "sup", *_LR_LABELS)

# Sweep CSV columns, each named as its SweepRecord field or integral label.
_CSV_HEAD = ("d", "c_d", "sup_u", "argmax_x", "dist_boundary")
_CSV_TAIL = ("nehari_res", "flux_res")
_CSV_COLUMNS = (*_CSV_HEAD, *_LR_LABELS, *_CSV_TAIL, "constant_branch")

# Discretisation of the self-verification suite: (half-width, spacing) of
# its line window and the d of its Neumann solve.  The suite guards
# wiring, not accuracy, so its grids are small.
_VERIFY_LINE = (40.0, 0.08)
_VERIFY_D = 0.2
_VERIFY_SEED = 0

# Largest relative error of the discrete symbol against |k|^2s that the
# suite's coarse line window passes.
_SYMBOL_TOL = 2e-2

# Half-width (in intrinsic units) of the window on which rescaled
# profiles are compared.
_PROFILE_WINDOW = 5.0


@dataclass(frozen=True)
class FitResult:
    """Least-squares power law q = C d^slope on a log-log window."""

    slope: float
    intercept: float
    r_squared: float
    window: tuple[float, float]


@dataclass(frozen=True)
class MigrationResult:
    """Peak-location summary of a sweep.

    ``k_star`` is the largest observed ratio between the peak's distance
    to the boundary and the intrinsic scale d^(1/2s); ``verdict`` is
    "boundary" when the two smallest-d peaks sit within one cell of the
    boundary and "interior" otherwise.
    """

    k_star: float
    verdict: str
    window: tuple[float, float]


@dataclass(frozen=True)
class VerifyItem:
    """One self-check outcome; failures are reported, never raised."""

    name: str
    passed: bool
    detail: str


def _nonconstant(records: list[SweepRecord]) -> list[SweepRecord]:
    return [r for r in records if not r.constant_branch]


def _quantity_values(records: list[SweepRecord], quantity: str) -> np.ndarray:
    if quantity == "cd":
        return np.array([r.c_d for r in records])
    if quantity == "sup":
        return np.array([r.sup_u for r in records])
    return np.array([r.lr_norms[quantity] for r in records])


def scaling_fit(records: list[SweepRecord], quantity: str) -> FitResult:
    """Power-law fit of a sweep quantity against d.

    Constant-branch records and the largest nonconstant d are excluded
    (the latter sits next to the transition and pollutes the asymptotic
    window).  Requires at least four nonconstant records, all with a
    positive d, spanning at least one decade of d.

    An integral int u^r scales like d^(n/2s) only above the tail
    threshold r > n/(n+2s) (2/3 at n = 1, s = 1/4).  Below it the tail
    u ~ (eps/x)^(n+2s), eps = d^(1/2s), dominates and the exponent is
    (n+2s) r/2s, which is 1.5 for ``L0.5`` at s = 1/4.  At the threshold
    itself a log enters.
    """
    if quantity not in _QUANTITIES:
        raise ValueError(
            f"unknown quantity {quantity!r}; expected one of {_QUANTITIES}"
        )
    alive = _nonconstant(records)
    if len(alive) < 4:
        raise ValueError(
            f"need at least 4 nonconstant records to fit, got {len(alive)}"
        )
    ds = np.array([r.d for r in alive])
    if np.any(ds <= 0.0):
        raise ValueError(
            f"d must be positive to fit a power law, got {float(np.min(ds))!r}"
        )
    if np.max(ds) / np.min(ds) < 10.0 * (1.0 - 1e-12):
        raise ValueError(
            "nonconstant records must span at least one decade of d, got "
            f"[{np.min(ds):.6g}, {np.max(ds):.6g}]"
        )
    alive = sorted(alive, key=lambda r: r.d)[:-1]
    ds = np.array([r.d for r in alive])
    qs = _quantity_values(alive, quantity)
    if np.any(qs <= 0.0):
        raise ValueError(f"quantity {quantity!r} must be positive to fit a power law")
    lx = np.log(ds)
    ly = np.log(qs)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(r_squared),
        window=(float(np.min(ds)), float(np.max(ds))),
    )


def boundary_migration(
    records: list[SweepRecord],
    params: Params,
    grid_policy=default_grid_policy,
) -> MigrationResult:
    """Peak migration constant and boundary verdict for a sweep.

    K* is the maximum over nonconstant records of
    dist_boundary / d^(1/2s); the verdict compares the two smallest-d
    peak distances against the cell width the grid policy assigns to
    each d ("within one cell" counts as a boundary peak).
    """
    alive = sorted(_nonconstant(records), key=lambda r: r.d)
    if len(alive) < 2:
        raise ValueError(
            f"need at least 2 nonconstant records, got {len(alive)}"
        )
    ratios = [
        r.dist_boundary / replace(params, d=r.d).intrinsic_scale for r in alive
    ]
    at_boundary = []
    for r in alive[:2]:
        h = grid_policy(replace(params, d=r.d)).h
        at_boundary.append(r.dist_boundary <= h * (1.0 + 1e-12))
    verdict = "boundary" if all(at_boundary) else "interior"
    return MigrationResult(
        k_star=float(max(ratios)),
        verdict=verdict,
        window=(alive[0].d, alive[-1].d),
    )


def profile_compare(
    result: LeastEnergyResult,
    ground: GroundStateResult,
    params: Params,
) -> float:
    """Sup distance between the rescaled peak profile and the ground state.

    The solution is sampled at y -> u(z + y d^(1/2s)) around its peak z,
    both profiles are normalised by their value at y = 0, and the sup of
    the difference over |y| <= 5 is returned.  When the peak sits within
    one cell of the boundary only the inward half-line is compared.
    """
    if result.constant_branch:
        raise ValueError("constant-branch solutions have no peak profile")
    grid = result.grid
    values = extend(result.u, kernel_weights(grid, params)).values
    delta = params.intrinsic_scale
    z = result.argmax_x
    ys = ground.grid.nodes
    ys = ys[np.abs(ys) <= _PROFILE_WINDOW]
    near_left = (z - grid.a) <= grid.h * (1.0 + 1e-12)
    near_right = (grid.b - z) <= grid.h * (1.0 + 1e-12)
    if near_left:
        ys = ys[ys >= 0.0]
    elif near_right:
        ys = ys[ys <= 0.0]
    phi = np.interp(z + ys * delta, grid.nodes, values)
    phi0 = float(np.interp(z, grid.nodes, values))
    w = np.interp(ys, ground.grid.nodes, ground.w)
    w0 = float(np.interp(0.0, ground.grid.nodes, ground.w))
    return float(np.max(np.abs(phi / phi0 - w / w0)))


# ---------------------------------------------------------------------------
# self-verification suite


def _attempt(step):
    """``step()``, or the ValueError or RuntimeError it raised."""
    try:
        return step()
    except (ValueError, RuntimeError) as exc:
        return exc


def _solved(outcome):
    """A solve's result; a failed solve raises as ``solve failed: <error>``."""
    if isinstance(outcome, Exception):
        raise RuntimeError(f"solve failed: {outcome}")
    return outcome


def _check_symbol(table: KernelTable, grid) -> tuple[bool, str]:
    """Fourier symbol check: the operator's action on cos(kx) vs |k|^2s."""
    xs = grid.nodes
    inner = np.abs(xs) <= grid.half_width / 2.0
    worst = 0.0
    for k in (0.5, 1.0):
        got = frac_laplacian_apply(np.cos(k * xs), table)[inner]
        want = abs(k) ** (2.0 * table.s) * np.cos(k * xs[inner])
        err = float(np.max(np.abs(got - want))) / abs(k) ** (2.0 * table.s)
        worst = max(worst, err)
    return worst <= _SYMBOL_TOL, (
        f"max relative symbol error {worst:.3e} (tol {_SYMBOL_TOL:g})"
    )


def _check_extension(table: KernelTable, grid: Grid) -> tuple[bool, str]:
    rng = np.random.default_rng(_VERIFY_SEED)
    u_int = 1.0 + rng.uniform(0.0, 1.0, grid.n_interior)
    ext = extend(u_int, table)
    lo, hi = grid.interior_range
    collar = [*range(lo), *range(hi, grid.n_nodes)]
    worst = max(abs(neumann_derivative(ext, table, x)) for x in collar)
    worst /= table.c_ns * float(np.max(np.abs(ext.values)))
    return worst <= 1e-10, f"max relative Neumann derivative {worst:.3e} (tol 1e-10)"


def _check_identities(solved) -> tuple[bool, str]:
    result = _solved(solved)
    neh, flux = result.nehari_residual, result.flux_residual
    if neh <= 1e-6 and flux <= 1e-6:
        # a pass prints the bound alone: the residuals' round-off digits
        # move with every change of the descent path
        return True, "nehari, flux <= 1e-6"
    return False, f"nehari {neh:.3e}, flux {flux:.3e} (tol 1e-6)"


def _check_pohozaev(ground) -> tuple[bool, str]:
    residual = _solved(ground).pohozaev_residual
    return residual <= 1e-3, f"relative Pohozaev residual {residual:.3e} (tol 1e-3)"


def _check_iteration(params: Params) -> tuple[bool, str]:
    mp = MoserParams(s=params.s, p=params.p)
    ts = mp.two_star
    worst = 0.0
    level = L_closed_form(0, mp)
    for j in range(50):
        level = (ts * level - (mp.p - 1.0)) / 2.0
        worst = max(worst, abs(level - L_closed_form(j + 1, mp)) / level)
    majorised = all(
        M_sequence(j, mp) <= gamma_majorant(j, mp) + 1e-12 for j in range(31)
    )
    return worst <= 1e-12 and majorised, (
        f"recurrence vs closed form {worst:.3e} (tol 1e-12), "
        f"majorant holds: {majorised}"
    )


def _check_fuzz() -> tuple[bool, str]:
    rng = np.random.default_rng(_VERIFY_SEED)
    x = rng.uniform(0.0, 100.0, 10_000)
    y = rng.uniform(0.0, 100.0, 10_000)
    k = rng.uniform(1.0, 20.0, 10_000)
    min_margin = float(np.min(elementary_inequality_margin(x, y, k)))
    return min_margin >= -1e-12, (
        f"min margin {min_margin:.3e} over 10000 samples (tol -1e-12)"
    )


def _check_below_constant(solved, params: Params) -> tuple[bool, str]:
    result = _solved(solved)
    const = J_d_constant(result.grid, params)
    return (not result.constant_branch) and result.c_d < const, (
        f"c_d {result.c_d:.6g} vs constant energy {const:.6g}"
    )


def _check_transplant(
    solved, ground, table: KernelTable, params: Params
) -> tuple[bool, str]:
    # the Neumann solve is read too: outside its exponent range the item fails
    _solved(solved)
    ground = _solved(ground)
    grid = table.grid
    prof = transplant_ground_state(ground, grid.interior_nodes, params)
    peak = peak_energy(extend(prof, table), params, table)
    bound = params.intrinsic_scale / 2.0 * ground.F_value
    return peak < bound, (
        f"ray-sup energy {peak:.6g} vs d^(n/2s)/2 F = "
        f"{bound:.6g} (ratio {peak / bound:.3f})"
    )


def verify_suite(params: Params) -> list[VerifyItem]:
    """Run the eight wiring checks and report pass/fail per item.

    Items never raise.  The Neumann solve at d = 0.2 and the line ground
    state run once each, before the first check.  A check that raises
    ValueError or RuntimeError, itself or by reading a failed solve,
    becomes a failed item whose detail quotes the error (``solve
    failed: <error>`` for a solve), and the remaining items still run.
    """
    line = build_line_grid(*_VERIFY_LINE)
    line_params = replace(params, d=1.0)
    line_table = kernel_weights(line, line_params)
    domain_params = replace(params, d=_VERIFY_D)
    domain = default_grid_policy(domain_params)
    domain_table = kernel_weights(domain, domain_params)

    solved = _attempt(lambda: solve_least_energy(domain_params, domain))
    ground = _attempt(lambda: solve_ground_state(line_params, line))

    checks = (
        ("kernel-symbol", lambda: _check_symbol(line_table, line)),
        ("extension-stationarity", lambda: _check_extension(domain_table, domain)),
        ("nehari-flux-identities", lambda: _check_identities(solved)),
        ("pohozaev-identity", lambda: _check_pohozaev(ground)),
        ("iteration-arithmetic", lambda: _check_iteration(params)),
        ("pointwise-inequality-fuzz", _check_fuzz),
        ("below-constant-branch", lambda: _check_below_constant(solved, domain_params)),
        (
            "transplant-energy-bound",
            lambda: _check_transplant(solved, ground, domain_table, domain_params),
        ),
    )
    items = []
    for name, check in checks:
        outcome = _attempt(check)
        if isinstance(outcome, Exception):
            outcome = (False, str(outcome))
        items.append(VerifyItem(name, *outcome))
    return items


# ---------------------------------------------------------------------------
# CSV round trip


def write_sweep_csv(path: str, records: list[SweepRecord]) -> None:
    """Write sweep records with a fixed column order and 17 significant
    digits, atomically (write to a temporary file, then rename)."""
    lines = [",".join(_CSV_COLUMNS)]
    for r in records:
        values = [getattr(r, c) for c in _CSV_HEAD]
        values += [r.lr_norms[c] for c in _LR_LABELS]
        values += [getattr(r, c) for c in _CSV_TAIL]
        lines.append(",".join([*map(_fmt, values), str(int(r.constant_branch))]))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_sweep_csv(path: str) -> list[SweepRecord]:
    """Read records written by :func:`write_sweep_csv`.

    Raises ValueError, naming the path and line, unless the first line
    is the expected header and every later row holds one finite number
    per column, a positive d that no earlier row holds and a
    constant_branch flag of 0 or 1.
    """
    with open(path) as fh:
        rows = [(f"{path}:{n}", t.strip()) for n, t in enumerate(fh, 1) if t.strip()]
    if not rows or rows[0][1] != ",".join(_CSV_COLUMNS):
        where = rows[0][0] if rows else path
        raise ValueError(f"{where}: expected the sweep header {','.join(_CSV_COLUMNS)}")
    records = []
    seen: dict[float, str] = {}
    for where, row in rows[1:]:
        parts = row.split(",")
        if len(parts) != len(_CSV_COLUMNS):
            raise ValueError(
                f"{where}: malformed sweep row, expected {len(_CSV_COLUMNS)} "
                f"fields, got {len(parts)}"
            )
        vals = {c: _finite(where, t) for c, t in zip(_CSV_COLUMNS, parts[:-1])}
        d = vals["d"]
        if d <= 0.0:
            raise ValueError(f"{where}: d must be positive, got {d!r}")
        if d in seen:
            raise ValueError(f"{where}: d = {d!r} repeats the row at {seen[d]}")
        seen[d] = where
        flag = parts[-1].strip()
        if flag not in ("0", "1"):
            raise ValueError(f"{where}: constant_branch must be 0 or 1, got {flag!r}")
        lr_norms = {label: vals.pop(label) for label in _LR_LABELS}
        records.append(
            SweepRecord(**vals, lr_norms=lr_norms, constant_branch=flag == "1")
        )
    return records
