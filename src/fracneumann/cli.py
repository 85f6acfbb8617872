"""Command-line front end for the laboratory.

Subcommands mirror the workflow: ``ground`` solves the whole-space
profile, ``solve`` one Neumann problem, ``sweep`` a diffusion
continuation written as CSV, ``moser`` prints the iteration ladder,
``verify`` runs the self-checks and ``fit`` extracts power laws from a
sweep CSV.  A plain ``key = value`` config file can seed any run;
explicit flags override it, and a key the subcommand does not read is
an error.
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

# Recognised config keys and their parsers; anything else is a typo and
# is rejected rather than silently ignored.
_CONFIG_KEYS = {
    "s": float,
    "p": float,
    "n": int,
    "domain.a": float,
    "domain.b": float,
    "grid.h": float,
    "grid.Rext": float,
    "solver.tol": float,
    "solver.max_iters": int,
    "sweep.d_max": float,
    "sweep.d_min": float,
    "sweep.points": int,
}

# SolverConfig fields and the config keys that set them; no flag does.
_SOLVER_KEYS = {
    "tol_residual": "solver.tol",
    "max_iters": "solver.max_iters",
}

# The config keys each subcommand reads; any other key would be ignored,
# so it is rejected.  Only ``moser`` reads a dimension n; solves run at n = 1.
_PARAM_KEYS = ("s", "p")
_COMMAND_KEYS = {
    "ground": (*_PARAM_KEYS, "grid.h", *_SOLVER_KEYS.values()),
    "solve": (
        *_PARAM_KEYS, "domain.a", "domain.b", "grid.h", "grid.Rext",
        *_SOLVER_KEYS.values(),
    ),
    "sweep": (
        *_PARAM_KEYS, "domain.a", "domain.b", *_SOLVER_KEYS.values(),
        "sweep.d_max", "sweep.d_min", "sweep.points",
    ),
    "moser": (*_PARAM_KEYS, "n"),
    "verify": _PARAM_KEYS,
    "fit": (),
}

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
                values[key] = _CONFIG_KEYS[key](text.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return values


def _check_keys(path: str, config: dict, command: str) -> None:
    """Reject the first config key that ``command`` does not read."""
    for key in config:
        if key not in _COMMAND_KEYS[command]:
            raise ValueError(f"{path}: config key {key!r} has no effect on {command!r}")


def _resolve(flag, config: dict, key: str, default):
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


def _given(args, config: dict, **keys) -> dict:
    """Keyword arguments that a flag or the config file sets.

    ``keys`` maps each keyword to its config key; the flag is the
    attribute of ``args`` of the same name, if any.  Unset keywords are
    left out, so the dataclass defaults are the only defaults.
    """
    given = {}
    for name, key in keys.items():
        value = _resolve(getattr(args, name, None), config, key, None)
        if value is not None:
            given[name] = value
    return given


def _solver_config(config: dict) -> SolverConfig:
    return SolverConfig(**_given(None, config, **_SOLVER_KEYS))


def _params(args, config: dict, **fixed) -> Params:
    return Params(**_given(args, config, s="s", p="p"), **fixed)


def _cmd_ground(args, config: dict) -> int:
    params = _params(args, config)
    half_width = _GROUND_WINDOW[0] if args.L is None else args.L
    h = _resolve(args.h, config, "grid.h", _GROUND_WINDOW[1])
    grid = build_line_grid(half_width, h)
    result = solve_ground_state(params, grid, _solver_config(config))
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


def _cmd_solve(args, config: dict) -> int:
    params = _params(args, config, d=args.d)
    a = _resolve(args.a, config, "domain.a", 0.0)
    b = _resolve(args.b, config, "domain.b", 1.0)
    h = _resolve(args.h, config, "grid.h", None)
    if h is None:
        h = default_grid_policy(params, a, b).h
    r_ext = _resolve(args.Rext, config, "grid.Rext", None)
    grid = build_grid(a, b, h, r_ext)
    result = solve_least_energy(params, grid, config=_solver_config(config))
    branch = "constant" if result.constant_branch else "nonconstant"
    print(
        f"c_d = {result.c_d:.10g}  sup = {result.M_d:.10g}  "
        f"argmax = {result.argmax_x:.6g}  branch = {branch}  "
        f"iterations = {result.iterations}"
    )
    if args.out:
        save_snapshot(args.out, result, params)
    return 0


def _cmd_sweep(args, config: dict) -> int:
    d_max = _resolve(args.d_max, config, "sweep.d_max", 2.0)
    d_min = _resolve(args.d_min, config, "sweep.d_min", 0.02)
    points = _resolve(args.points, config, "sweep.points", 13)
    if not 0.0 < d_min < d_max:
        raise ValueError(f"need 0 < d_min < d_max, got [{d_min}, {d_max}]")
    if points < 2:
        raise ValueError(f"need at least 2 sweep points, got {points}")
    params = _params(args, config)
    a = config.get("domain.a", 0.0)
    b = config.get("domain.b", 1.0)
    solver_config = _solver_config(config)
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


def _cmd_moser(args, config: dict) -> int:
    mp = MoserParams(**_given(args, config, n="n", s="s", p="p", A=None, C0=None))
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


def _cmd_verify(args, config: dict) -> int:
    params = _params(args, config)
    report = verify_suite(params)
    failures = 0
    for item in report:
        tag = "PASS" if item.passed else "FAIL"
        print(f"[{tag}] {item.name}: {item.detail}")
        failures += 0 if item.passed else 1
    print(f"{len(report) - failures}/{len(report)} checks passed")
    return 0 if failures == 0 else 1


def _cmd_fit(args, config: dict) -> int:
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

    g = sub.add_parser("ground", help="whole-space ground-state profile")
    g.add_argument("--s", type=float)
    g.add_argument("--p", type=float)
    g.add_argument("--L", type=float, help="window half-width (default 60)")
    g.add_argument("--h", type=float, help="grid spacing (default 0.05)")
    g.add_argument("--out", help="write the profile to this file")
    g.set_defaults(func=_cmd_ground)

    s = sub.add_parser("solve", help="one Neumann least-energy solve")
    s.add_argument("--d", type=float, required=True)
    s.add_argument("--s", type=float)
    s.add_argument("--p", type=float)
    s.add_argument("--a", type=float)
    s.add_argument("--b", type=float)
    s.add_argument("--h", type=float, help="grid spacing (default: policy)")
    s.add_argument("--Rext", type=float, help="collar width (default 2(b-a))")
    s.add_argument("--out", help="write a solution snapshot to this file")
    s.set_defaults(func=_cmd_solve)

    w = sub.add_parser("sweep", help="geometric diffusion continuation")
    w.add_argument("--d-max", dest="d_max", type=float)
    w.add_argument("--d-min", dest="d_min", type=float)
    w.add_argument("--points", type=int)
    w.add_argument("--s", type=float)
    w.add_argument("--p", type=float)
    w.add_argument("--out", help="write records as CSV to this file")
    w.set_defaults(func=_cmd_sweep)

    m = sub.add_parser("moser", help="print the iteration ladder as CSV")
    m.add_argument("--A", type=float)
    m.add_argument("--C0", type=float)
    m.add_argument("--jmax", type=int, default=30)
    m.add_argument("--s", type=float)
    m.add_argument("--p", type=float)
    m.set_defaults(func=_cmd_moser)

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
        config = {}
        if args.config:
            config = load_config(args.config)
            _check_keys(args.config, config, args.command)
        return args.func(args, config)
    except (ValueError, ConvergenceError, SweepAborted, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
