"""Numerical laboratory for a one-dimensional fractional Neumann problem.

Computes least-energy solutions of  d*(-Lap)^s u + u = u^p  on a bounded
interval with a nonlocal Neumann condition, plus the whole-space ground
state the small-diffusion regime concentrates on, and ships the
diagnostics (scaling fits, boundary migration, profile comparison,
iteration bookkeeping) used to check the expected asymptotic laws.
"""

from __future__ import annotations

from .grids import Grid, LineGrid, Params, build_grid, build_line_grid
from .kernel import (
    KernelTable,
    frac_laplacian_apply,
    kernel_weights,
    normalizing_constant,
)
from .neumann import ExtendedField, extend, neumann_derivative
from .energy import (
    EnergyBreakdown,
    F_energy,
    J_d,
    nehari_scale,
    peak_energy,
    pohozaev,
    seminorm_T,
)
from .solvers import (
    ConvergenceError,
    GroundStateResult,
    J_d_constant,
    LeastEnergyResult,
    SolverConfig,
    SweepAborted,
    SweepRecord,
    default_grid_policy,
    load_snapshot,
    record_from_result,
    save_snapshot,
    solve_ground_state,
    solve_least_energy,
    sweep,
    transplant_ground_state,
)
from .moser import (
    L_closed_form,
    M_sequence,
    MoserBound,
    MoserParams,
    c_star,
    elementary_inequality_margin,
    gamma_majorant,
    lambda_term,
    moser_bound_constant,
    sobolev_constant_estimate,
)
from .harness import (
    FitResult,
    MigrationResult,
    VerifyItem,
    boundary_migration,
    profile_compare,
    read_sweep_csv,
    scaling_fit,
    verify_suite,
    write_sweep_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Params",
    "Grid",
    "LineGrid",
    "build_grid",
    "build_line_grid",
    "KernelTable",
    "kernel_weights",
    "normalizing_constant",
    "frac_laplacian_apply",
    "ExtendedField",
    "neumann_derivative",
    "extend",
    "EnergyBreakdown",
    "seminorm_T",
    "J_d",
    "nehari_scale",
    "peak_energy",
    "F_energy",
    "pohozaev",
    "SolverConfig",
    "GroundStateResult",
    "LeastEnergyResult",
    "SweepRecord",
    "ConvergenceError",
    "SweepAborted",
    "solve_ground_state",
    "solve_least_energy",
    "sweep",
    "default_grid_policy",
    "transplant_ground_state",
    "record_from_result",
    "J_d_constant",
    "save_snapshot",
    "load_snapshot",
    "MoserParams",
    "MoserBound",
    "L_closed_form",
    "lambda_term",
    "M_sequence",
    "gamma_majorant",
    "c_star",
    "moser_bound_constant",
    "elementary_inequality_margin",
    "sobolev_constant_estimate",
    "FitResult",
    "MigrationResult",
    "VerifyItem",
    "scaling_fit",
    "boundary_migration",
    "profile_compare",
    "verify_suite",
    "write_sweep_csv",
    "read_sweep_csv",
    "__version__",
]
