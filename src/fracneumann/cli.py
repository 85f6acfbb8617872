"""Command-line front end for the laboratory.

Subcommands mirror the workflow: ``ground`` solves the whole-space
profile, ``solve`` one Neumann problem, ``sweep`` a diffusion
continuation written as CSV, ``moser`` prints the iteration ladder,
``verify`` runs the self-checks and ``fit`` extracts power laws from a
sweep CSV.  Each subparser states every setting its subcommand reads:
its flags, plus the config-only settings it declares with a default of
None.  A plain ``key = value`` config file fills the settings no flag
set, and a key whose setting the subcommand lacks is an error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .grids import Params, build_grid, build_line_grid
from .harness import (
    _QUANTITIES,
    read_sweep_csv,
    scaling_fit,
    verify_suite,
    write_sweep_csv,
)
from .moser import (
    L_closed_form,
    M_sequence,
    MoserParams,
    gamma_majorant,
    lambda_term,
    moser_bound_constant,
)
from .solvers import (
    ConvergenceError,
    SolverConfig,
    SweepAborted,
    _fmt,
    _write_profile,
    default_grid_policy,
    save_snapshot,
    solve_ground_state,
    solve_least_energy,
    sweep,
)

__all__ = ["main"]

# Recognised config keys: each key's value parser and the argument it
# fills.  A subcommand reads a key exactly when its parser has that
# argument, as a flag or as a config-only setting (a default of None);
# any other key would be ignored, so it is rejected.
_CONFIG_KEYS = {
    "s": (float, "s"),
    "p": (float, "p"),
    "n": (int, "n"),
    "domain.a": (float, "a"),
    "domain.b": (float, "b"),
    "grid.h": (float, "h"),
    "grid.Rext": (float, "Rext"),
    "solver.tol": (float, "tol_residual"),
    "solver.max_iters": (int, "max_iters"),
    "sweep.d_max": (float, "d_max"),
    "sweep.d_min": (float, "d_min"),
    "sweep.points": (int, "points"),
}

# SolverConfig fields; only the config file sets them, on the subcommands
# that solve.
_SOLVER_FIELDS = ("tol_residual", "max_iters")

# ``fit --quantity`` names: cd and sup as they are, integral "L<r>" as "r:<r>".
_QUANTITY_FLAGS = {("r:" + q[1:] if q[0] == "L" else q): q for q in _QUANTITIES}

# Half-width and spacing of the window of the whole-space ground state
# that ``ground`` solves by default and ``sweep`` starts from.
_GROUND_WINDOW = (60.0, 0.05)


def load_config(path: str) -> dict:
    """Parse a ``key = value`` config file with the fixed key set.

    Raises ValueError, naming the path and line, on a malformed line, an
    unknown or repeated key, or a value its key's parser rejects.
    """
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
            try:
                values[key] = _CONFIG_KEYS[key][0](text.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return values


def _given(args, *names: str) -> dict:
    """Keyword arguments that a flag or the config file set.

    Unset arguments are left out, so the dataclass defaults are the only
    defaults.
    """
    given = {name: getattr(args, name) for name in names}
    return {name: value for name, value in given.items() if value is not None}


def _solver_config(args) -> SolverConfig:
    return SolverConfig(**_given(args, *_SOLVER_FIELDS))


def _params(args, **fixed) -> Params:
    return Params(**_given(args, "s", "p"), **fixed)


def _cmd_ground(args) -> int:
    params = _params(args)
    half_width = _GROUND_WINDOW[0] if args.L is None else args.L
    h = _GROUND_WINDOW[1] if args.h is None else args.h
    grid = build_line_grid(half_width, h)
    result = solve_ground_state(params, grid, _solver_config(args))
    print(
        f"F = {result.F_value:.10g}  pohozaev = {result.pohozaev_residual:.3e}  "
        f"decay = {result.decay_exponent_fit:.4f}  "
        f"iterations = {result.iterations}"
    )
    if args.out:
        header = (
            ("s", params.s),
            ("p", params.p),
            ("L", half_width),
            ("h", grid.h),
            ("F", result.F_value),
            ("pohozaev", result.pohozaev_residual),
            ("decay_exponent", result.decay_exponent_fit),
        )
        _write_profile(args.out, header, grid.nodes, result.w)
    return 0


def _domain(args) -> tuple[float, float]:
    return (0.0 if args.a is None else args.a, 1.0 if args.b is None else args.b)


def _cmd_solve(args) -> int:
    params = _params(args, d=args.d)
    a, b = _domain(args)
    h = default_grid_policy(params, a, b).h if args.h is None else args.h
    grid = build_grid(a, b, h, args.Rext)
    result = solve_least_energy(params, grid, config=_solver_config(args))
    branch = "constant" if result.constant_branch else "nonconstant"
    print(
        f"c_d = {result.c_d:.10g}  sup = {result.M_d:.10g}  "
        f"argmax = {result.argmax_x:.6g}  branch = {branch}  "
        f"iterations = {result.iterations}"
    )
    if args.out:
        save_snapshot(args.out, result, params)
    return 0


def _cmd_sweep(args) -> int:
    d_max = 2.0 if args.d_max is None else args.d_max
    d_min = 0.02 if args.d_min is None else args.d_min
    points = 13 if args.points is None else args.points
    if not 0.0 < d_min < d_max:
        raise ValueError(f"need 0 < d_min < d_max, got [{d_min}, {d_max}]")
    if points < 2:
        raise ValueError(f"need at least 2 sweep points, got {points}")
    params = _params(args)
    a, b = _domain(args)
    solver_config = _solver_config(args)
    try:
        ground = solve_ground_state(
            params, build_line_grid(*_GROUND_WINDOW), solver_config
        )
    except ConvergenceError as exc:
        # the ground state only seeds the first start; the sweep can go
        # on from the solver's boundary bump
        print(
            f"warning: ground state failed: {exc}; starting the sweep from "
            "the boundary bump",
            file=sys.stderr,
        )
        ground = None
    d_values = list(np.geomspace(d_max, d_min, points))

    def policy(p: Params) -> object:
        return default_grid_policy(p, a, b)

    try:
        records = sweep(
            d_values,
            params,
            grid_policy=policy,
            config=solver_config,
            ground=ground,
        )
    except SweepAborted as exc:
        if exc.records and args.out:
            write_sweep_csv(args.out, exc.records)
        raise
    if args.out:
        write_sweep_csv(args.out, records)
    for r in records:
        branch = "constant" if r.constant_branch else "nonconstant"
        print(f"d = {r.d:.6g}  c_d = {r.c_d:.10g}  sup = {r.sup_u:.6g}  {branch}")
    return 0


def _cmd_moser(args) -> int:
    mp = MoserParams(**_given(args, "n", "s", "p", "A", "C0"))
    if args.jmax < 0:
        raise ValueError(f"--jmax must be nonnegative, got {args.jmax}")
    # the whole ladder is built before anything is printed, so a level
    # that overflows leaves only the error
    terms = (L_closed_form, lambda_term, M_sequence, gamma_majorant)
    rows = []
    try:
        for j in range(args.jmax + 1):
            ratio = (
                "" if j == 0 else _fmt(M_sequence(j, mp) / L_closed_form(j - 1, mp))
            )
            rows.append(",".join([str(j), *(_fmt(f(j, mp)) for f in terms), ratio]))
        bound = moser_bound_constant(mp, max(2, args.jmax))
    except ValueError as exc:
        raise ValueError(f"--jmax {args.jmax} is too large: {exc}") from None
    print("j,L_j,lambda_j,eta_j,gamma_j,eta_over_L_prev")
    print("\n".join(rows))
    print(f"# m = {_fmt(bound.m)}")
    print(f"# limit = {_fmt(bound.limit)}")
    return 0


def _cmd_verify(args) -> int:
    params = _params(args)
    report = verify_suite(params)
    failures = 0
    for item in report:
        tag = "PASS" if item.passed else "FAIL"
        print(f"[{tag}] {item.name}: {item.detail}")
        failures += 0 if item.passed else 1
    print(f"{len(report) - failures}/{len(report)} checks passed")
    return 0 if failures == 0 else 1


def _cmd_fit(args) -> int:
    records = read_sweep_csv(args.infile)
    quantity = _QUANTITY_FLAGS.get(args.quantity)
    if quantity is None:
        raise ValueError(
            f"unknown quantity {args.quantity!r}; expected one of "
            f"{sorted(_QUANTITY_FLAGS)}"
        )
    fit = scaling_fit(records, quantity)
    print(
        f"slope = {fit.slope:.6g}  intercept = {fit.intercept:.6g}  "
        f"r2 = {fit.r_squared:.8f}  window = [{fit.window[0]:.6g}, "
        f"{fit.window[1]:.6g}]"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracneumann",
        description="Least-energy solutions of a 1D fractional Neumann problem",
    )
    parser.add_argument("--config", help="key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    # config-only settings: arguments with no flag, filled from --config
    solver_only = dict.fromkeys(_SOLVER_FIELDS)

    g = sub.add_parser("ground", help="whole-space ground-state profile")
    g.add_argument("--s", type=float)
    g.add_argument("--p", type=float)
    g.add_argument("--L", type=float, help="window half-width (default 60)")
    g.add_argument("--h", type=float, help="grid spacing (default 0.05)")
    g.add_argument("--out", help="write the profile to this file")
    g.set_defaults(func=_cmd_ground, **solver_only)

    s = sub.add_parser("solve", help="one Neumann least-energy solve")
    s.add_argument("--d", type=float, required=True)
    s.add_argument("--s", type=float)
    s.add_argument("--p", type=float)
    s.add_argument("--a", type=float)
    s.add_argument("--b", type=float)
    s.add_argument("--h", type=float, help="grid spacing (default: policy)")
    s.add_argument("--Rext", type=float, help="collar width (default 2(b-a))")
    s.add_argument("--out", help="write a solution snapshot to this file")
    s.set_defaults(func=_cmd_solve, **solver_only)

    w = sub.add_parser("sweep", help="geometric diffusion continuation")
    w.add_argument("--d-max", dest="d_max", type=float)
    w.add_argument("--d-min", dest="d_min", type=float)
    w.add_argument("--points", type=int)
    w.add_argument("--s", type=float)
    w.add_argument("--p", type=float)
    w.add_argument("--out", help="write records as CSV to this file")
    w.set_defaults(func=_cmd_sweep, a=None, b=None, **solver_only)

    m = sub.add_parser("moser", help="print the iteration ladder as CSV")
    m.add_argument("--A", type=float)
    m.add_argument("--C0", type=float)
    m.add_argument("--jmax", type=int, default=30)
    m.add_argument("--s", type=float)
    m.add_argument("--p", type=float)
    m.set_defaults(func=_cmd_moser, n=None)

    v = sub.add_parser("verify", help="run the self-check suite")
    v.add_argument("--s", type=float)
    v.add_argument("--p", type=float)
    v.set_defaults(func=_cmd_verify)

    f = sub.add_parser("fit", help="power-law fit from a sweep CSV")
    f.add_argument("--in", dest="infile", required=True, help="sweep CSV path")
    f.add_argument(
        "--quantity",
        required=True,
        help=f"one of {', '.join(_QUANTITY_FLAGS)}",
    )
    f.set_defaults(func=_cmd_fit)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        for key, value in config.items():
            dest = _CONFIG_KEYS[key][1]
            if not hasattr(args, dest):
                raise ValueError(
                    f"{args.config}: config key {key!r} has no effect on "
                    f"{args.command!r}"
                )
            if getattr(args, dest) is None:  # a flag wins over the file
                setattr(args, dest, value)
        return args.func(args)
    except (ValueError, ConvergenceError, SweepAborted, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
