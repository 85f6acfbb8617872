"""Command-line front end: subcommands, config file, exit codes."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fracneumann
from fracneumann import (
    L_closed_form,
    MoserParams,
    read_sweep_csv,
    write_sweep_csv,
)
from fracneumann import cli, solvers
from fracneumann.cli import load_config, main
from fracneumann.solvers import _LR_COLUMNS, load_snapshot


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# import footprint


def _checkout_env():
    """The environment with this package's source directory on PYTHONPATH."""
    src = str(Path(fracneumann.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def test_import_loads_no_scipy():
    # the package runs on numpy alone; a fresh interpreter shows what
    # importing the library and the CLI pulls in
    env = _checkout_env()
    code = (
        "import sys, fracneumann, fracneumann.cli; "
        "print(' '.join(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert out.stdout.strip() == ""


@pytest.mark.parametrize("argv", [["--help"], ["moser", "--jmax", "-1"]])
def test_python_dash_m_exits_with_the_status_of_main(capsys, argv):
    # ``python -m fracneumann`` from a checkout runs cli.main; a refused
    # argument exits with main's nonzero status, --help with 0
    out = subprocess.run(
        [sys.executable, "-m", "fracneumann", *argv], env=_checkout_env(),
        capture_output=True, text=True, timeout=120,
    )
    if argv == ["--help"]:
        assert out.returncode == 0 and out.stdout.startswith("usage: fracneumann")
    else:
        code, _, err = run(capsys, *argv)
        assert out.returncode == code != 0
        assert out.stderr == err


def test_package_exports_are_the_module_exports():
    # the package re-exports exactly what its library modules export
    from fracneumann import energy, grids, harness, kernel, moser, neumann, solvers

    modules = (grids, kernel, neumann, energy, solvers, moser, harness)
    names = fracneumann.__all__
    assert len(names) == len(set(names))
    assert set(names) == set().union(*(m.__all__ for m in modules)) | {"__version__"}
    for module in modules:
        for name in module.__all__:
            assert getattr(fracneumann, name) is getattr(module, name)


# ---------------------------------------------------------------------------
# config files


def test_config_accepts_the_fixed_key_set(tmp_path):
    path = tmp_path / "lab.cfg"
    path.write_text(
        "s = 0.3\n"
        "p = 1.4\n"
        "n = 1\n"
        "domain.a = -1.0\n"
        "domain.b = 1.0\n"
        "grid.h = 0.01  # spacing\n"
        "grid.Rext = 4.0\n"
        "solver.tol = 1e-9\n"
        "solver.max_iters = 1000\n"
        "sweep.d_max = 1.0\n"
        "sweep.d_min = 0.1\n"
        "sweep.points = 4\n"
        "\n"
    )
    config = load_config(str(path))
    assert config["s"] == 0.3
    assert config["n"] == 1
    assert config["grid.h"] == 0.01
    assert config["solver.max_iters"] == 1000
    assert config["sweep.points"] == 4


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("sweeps.points = 4\n")
    with pytest.raises(ValueError):
        load_config(str(path))


def test_config_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ValueError):
        load_config(str(path))


@pytest.mark.parametrize(
    "line, name",
    [
        ("solver.tol = inf", "tol_residual"),
        ("solver.tol = nan", "tol_residual"),
    ],
)
def test_non_finite_solver_value_is_an_error_naming_the_field(
    capsys, tmp_path, line, name
):
    # an infinite tolerance let the solve end on the flux test alone
    path = tmp_path / "lab.cfg"
    path.write_text(line + "\n")
    code, out, err = run(capsys, "--config", str(path), "solve", "--d", "0.2")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {name} must be positive and finite")


def test_solver_step_is_not_a_config_key(capsys, tmp_path):
    # the first descent step is a solver constant that Barzilai-Borwein
    # replaces; the key that set it is gone
    path = tmp_path / "lab.cfg"
    path.write_text("solver.step = inf\n")
    message = f"{path}:1: unknown config key 'solver.step'"
    with pytest.raises(ValueError) as exc:
        load_config(str(path))
    assert str(exc.value) == message
    code, out, err = run(capsys, "--config", str(path), "solve", "--d", "0.2")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_repeated_config_key_is_an_error(capsys, tmp_path):
    # the second value used to win silently
    path = tmp_path / "lab.cfg"
    path.write_text("s = 0.25\ns = 0.4\n")
    message = f"{path}:2: duplicate config key 's'"
    with pytest.raises(ValueError) as exc:
        load_config(str(path))
    assert str(exc.value) == message
    code, out, err = run(capsys, "--config", str(path), "moser")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_bad_config_exits_cleanly_through_main(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("bogus.key = 1\n")
    code, out, err = run(capsys, "--config", str(path), "moser")
    assert code == 1
    assert err.startswith("error:")
    assert "bogus.key" in err


# The subcommand x config key matrix.  The config keys each subcommand
# reads, as README "Command line" lists them; every other pair is refused.
_READS = {
    "ground": ("s", "p", "grid.h", "solver.tol", "solver.max_iters"),
    "solve": (
        "s", "p", "domain.a", "domain.b", "grid.h", "grid.Rext",
        "solver.tol", "solver.max_iters",
    ),
    "sweep": (
        "s", "p", "domain.a", "domain.b", "solver.tol", "solver.max_iters",
        "sweep.d_max", "sweep.d_min", "sweep.points",
    ),
    "moser": ("s", "p", "n"),
    "verify": ("s", "p"),
    "fit": (),
}

# Each key's argument, a config value for it, and the flag that sets the
# argument with a different value (None where no subcommand has a flag).
_KEY_CASES = {
    "s": ("s", 0.3, ("--s", 0.35)),
    "p": ("p", 1.4, ("--p", 1.3)),
    "n": ("n", 2, None),
    "domain.a": ("a", -1.0, ("--a", -0.5)),
    "domain.b": ("b", 2.0, ("--b", 1.5)),
    "grid.h": ("h", 0.01, ("--h", 0.02)),
    "grid.Rext": ("Rext", 4.0, ("--Rext", 5.0)),
    "solver.tol": ("tol_residual", 1e-9, None),
    "solver.max_iters": ("max_iters", 77, None),
    "sweep.d_max": ("d_max", 1.5, ("--d-max", 1.25)),
    "sweep.d_min": ("d_min", 0.05, ("--d-min", 0.04)),
    "sweep.points": ("points", 5, ("--points", 6)),
}

# Accepted pairs that only the config file sets.
_CONFIG_ONLY = {
    ("sweep", "domain.a"),
    ("sweep", "domain.b"),
    ("moser", "n"),
    *(
        (c, k)
        for c in ("ground", "solve", "sweep")
        for k in ("solver.tol", "solver.max_iters")
    ),
}

# The least each subcommand needs on its command line.
_ARGV = {
    "ground": ("ground",),
    "solve": ("solve", "--d", "0.5"),
    "sweep": ("sweep",),
    "moser": ("moser",),
    "verify": ("verify",),
    "fit": ("fit", "--in", "sweep.csv", "--quantity", "cd"),
}

_REFUSED_PINNED = [
    (("sweep", "--points", "2"), "grid.Rext"),
    (("sweep", "--points", "2"), "grid.h"),
    (("ground", "--L", "40", "--h", "0.1"), "domain.a"),
    (("verify",), "solver.tol"),
    (("solve", "--d", "0.5"), "n"),
    (("verify",), "n"),
]
_REFUSED = _REFUSED_PINNED + [
    (_ARGV[command], key)
    for command in _ARGV
    for key in _KEY_CASES
    if key not in _READS[command]
    and (command, key) not in {(c[0], k) for c, k in _REFUSED_PINNED}
]


def _no_run(args):
    raise AssertionError(f"{args.command} ran")


def test_the_key_matrix_covers_every_pair():
    assert set(_KEY_CASES) == set(cli._CONFIG_KEYS)
    accepted = {(c, k) for c in _READS for k in _READS[c]}
    refused = {(c[0], k) for c, k in _REFUSED}
    assert (len(accepted), len(refused), len(_REFUSED)) == (27, 45, 45)
    assert accepted | refused == {(c, k) for c in _ARGV for k in _KEY_CASES}
    assert _CONFIG_ONLY <= accepted


@pytest.mark.parametrize("command, key", _REFUSED)
def test_config_key_the_command_does_not_read_is_an_error(
    capsys, tmp_path, monkeypatch, command, key
):
    # such a key used to be ignored without a word; it is refused before
    # the subcommand runs, even after a key the subcommand reads
    for name in _ARGV:
        monkeypatch.setattr(cli, f"_cmd_{name}", _no_run)
    path = tmp_path / "lab.cfg"
    prelude = "s = 0.25\n" if "s" in _READS[command[0]] else ""
    path.write_text(f"{prelude}{key} = 4\n")
    code, out, err = run(capsys, "--config", str(path), *command)
    message = f"error: {path}: config key '{key}' has no effect on '{command[0]}'\n"
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize(
    "command, key", [(c, k) for c in _READS for k in _READS[c]]
)
def test_config_key_the_command_reads_fills_its_argument(
    capsys, tmp_path, monkeypatch, command, key
):
    # the config value reaches the argument no flag set, and a flag wins
    seen = []
    monkeypatch.setattr(cli, f"_cmd_{command}", lambda args: seen.append(args) or 0)
    dest, value, flag = _KEY_CASES[key]
    path = tmp_path / "lab.cfg"
    path.write_text(f"{key} = {value!r}\n")
    assert run(capsys, "--config", str(path), *_ARGV[command]) == (0, "", "")
    assert getattr(seen[-1], dest) == value
    if (command, key) in _CONFIG_ONLY:
        return
    name, flag_value = flag
    argv = (*_ARGV[command], name, str(flag_value))
    assert run(capsys, "--config", str(path), *argv) == (0, "", "")
    assert getattr(seen[-1], dest) == flag_value


def test_sweep_reads_the_domain_from_the_config(capsys, tmp_path):
    # the benchmark's own sweep config: a translated domain
    path = tmp_path / "sweep.cfg"
    path.write_text("domain.a = 0.015625\ndomain.b = 1.015625\n")
    csv_path = tmp_path / "sweep.csv"
    code, out, err = run(
        capsys, "--config", str(path), "sweep", "--d-max", "0.3",
        "--d-min", "0.2", "--points", "2", "--out", str(csv_path),
    )
    assert (code, err) == (0, "")
    records = read_sweep_csv(str(csv_path))
    assert not records[-1].constant_branch
    assert 0.015625 <= records[-1].argmax_x <= 1.015625


def test_flags_override_the_config(tmp_path, capsys):
    # s = 0.25 and p = 1.5 are the library's defaults; a config value
    # reaches solve, ground and moser alike, and a flag overrides it.
    # The solve is nonconstant at both s (c_d 0.07615 and 0.09277), so
    # s moves its figures, not only its iteration count
    path = tmp_path / "lab.cfg"
    path.write_text("s = 0.3\n")
    commands = (
        ("moser", "--jmax", "2"),
        ("solve", "--d", "0.2"),
        ("ground", "--L", "40", "--h", "0.1"),
    )
    for command in commands:
        _, plain, _ = run(capsys, *command)
        _, with_config, _ = run(capsys, "--config", str(path), *command)
        _, with_flag, _ = run(
            capsys, "--config", str(path), *command, "--s", "0.25"
        )
        assert with_config != plain, command
        assert with_flag == plain, command


# ---------------------------------------------------------------------------
# arithmetic subcommands


def test_moser_prints_the_ladder(capsys):
    code, out, _ = run(capsys, "moser", "--jmax", "3")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "j,L_j,lambda_j,eta_j,gamma_j,eta_over_L_prev"
    assert lines[1].startswith("0,1.75,")
    assert lines[1].endswith(",")  # no ratio at j = 0
    assert lines[2].startswith("1,3.25,")
    assert len(lines) == 4 + 3  # header, j = 0..3, two trailing comments
    assert lines[-2].startswith("# m = ")
    assert lines[-1].startswith("# limit = ")


@pytest.mark.parametrize("jmax", ["-3", "1023"])
def test_moser_rejects_a_bad_jmax(capsys, jmax):
    # a negative jmax and one whose level L_jmax overflows print no ladder
    code, out, err = run(capsys, "moser", "--jmax", jmax)
    assert code == 1
    assert out == ""
    assert err.startswith("error: --jmax ") and jmax in err
    assert err.count("\n") == 1


def test_moser_takes_huge_constants_in_log_space(capsys):
    # A C0 = 1e400 overflows as a product but not as log A + log C0
    argv = ("moser", "--A", "1e200", "--C0", "1e200", "--jmax", "2")
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.strip().splitlines()[1:4]]
    assert all(np.isfinite(float(x)) for row in rows for x in row if x)
    assert float(rows[0][3]) == pytest.approx(4.0 * np.log(1e200), rel=1e-15)


def test_moser_overflowing_log_norm_is_an_error(capsys):
    # every L_j up to 1022 is finite, but eta_j overflows before it
    code, out, err = run(capsys, "moser", "--A", "1e10", "--jmax", "1022")
    assert code == 1
    assert out == ""
    assert err.startswith("error: --jmax 1022 is too large: ")
    assert err.count("\n") == 1


def test_verify_exit_code_reflects_failures(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert out.count("[PASS]") == 7
    assert out.count("[FAIL]") == 1
    assert "7/8 checks passed" in out


def test_moser_reads_the_dimension_from_the_config(capsys, tmp_path):
    # the ladder is the paper's formula for any n; solves run at n = 1
    path = tmp_path / "lab.cfg"
    path.write_text("n = 2\n")
    code, out, err = run(capsys, "--config", str(path), "moser", "--jmax", "1")
    assert (code, err) == (0, "")
    level = float(out.splitlines()[1].split(",")[1])
    assert level == L_closed_form(0, MoserParams(n=2))
    assert level != L_closed_form(0, MoserParams(n=1))


# ---------------------------------------------------------------------------
# solve and sweep round trips


def test_ground_writes_a_profile(tmp_path, capsys):
    out_path = tmp_path / "gs.txt"
    code, out, _ = run(
        capsys, "ground", "--L", "40", "--h", "0.1", "--out", str(out_path)
    )
    assert code == 0
    assert "F = 3.393289" in out
    text = out_path.read_text().splitlines()
    assert text[0] == "# s = 0.25"
    data = [line for line in text if not line.startswith("#")]
    assert len(data) == 800


def test_rejected_step_is_an_error_not_a_long_run(tmp_path, capsys, monkeypatch):
    # every trial after the start peaks higher, so the first search
    # halves to its floor
    ray = solvers._nehari_ray
    calls = []

    def higher(quad, pot, p):
        t0, peak = ray(quad, pot, p)
        calls.append(peak)
        return t0, peak if len(calls) == 1 else 2.0 * peak

    monkeypatch.setattr(solvers, "_nehari_ray", higher)
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("solver.max_iters = 2000\n")
    code, out, err = run(
        capsys, "--config", str(cfg), "ground", "--L", "40", "--h", "0.1"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: step rejected at iteration ")


def test_solve_writes_a_snapshot(tmp_path, capsys):
    out_path = tmp_path / "sol.txt"
    code, out, _ = run(capsys, "solve", "--d", "0.2", "--out", str(out_path))
    assert code == 0
    assert "branch = nonconstant" in out
    header, xs, vs = load_snapshot(str(out_path))
    assert header["d"] == 0.2
    assert np.all(vs > 0.0)


def test_solve_honours_the_collar_without_a_spacing(tmp_path, capsys):
    out_path = tmp_path / "sol.txt"
    code, _, _ = run(
        capsys, "solve", "--d", "0.2", "--Rext", "4", "--out", str(out_path)
    )
    assert code == 0
    header, xs, _ = load_snapshot(str(out_path))
    assert header["R_ext"] == 4.0
    assert xs[0] < -3.9 and xs[-1] > 4.9


def test_solve_and_sweep_take_a_domain_shorter_than_eight_default_cells(
    tmp_path, capsys
):
    # h = 0.02 is too coarse for b - a = 0.1; the policy takes 9 cells
    code, out, err = run(capsys, "solve", "--d", "2", "--b", "0.1")
    assert (code, err) == (0, "")
    assert "branch = constant" in out
    path = tmp_path / "short.cfg"
    path.write_text("domain.b = 0.1\n")
    code, _, err = run(
        capsys, "--config", str(path), "sweep", "--d-max", "0.5",
        "--d-min", "0.05", "--points", "2",
    )
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("solve", "--d", "1e-160"),
            "at d = 1e-160 the spacing 9.98e-322 needs more than the 4194304 "
            "nodes a grid may have",
        ),
        (
            ("solve", "--d", "0.2", "--h", "1e-7"),
            "spacing h = 1e-07 across a window of width 5.0 asks for 5e+07 "
            "nodes, above the cap of 4194304",
        ),
        (
            ("ground", "--L", "1e300"),
            "spacing h = 0.05 across a window of width 2e+300 asks for 4e+301 "
            "nodes, above the cap of 4194304",
        ),
    ],
)
def test_a_grid_above_the_node_cap_is_an_error_line(capsys, argv, message):
    # d^(1/2s) = 1e-320 is subnormal, and (b - a)/(scale/10) overflowed
    # math.ceil; the other two asked for gigabytes
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_solve_at_an_underflowing_scale_is_an_error_line(capsys):
    # d^(1/2s) = (1e-300)^2 underflows to 0
    code, out, err = run(capsys, "solve", "--d", "1e-300")
    message = "error: intrinsic scale d^(1/2s) underflows to 0 at d = 1e-300\n"
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize(
    "flag, value", [("--a", "nan"), ("--a", "inf"), ("--b", "nan")]
)
def test_a_non_finite_domain_bound_is_an_error_line(capsys, flag, value):
    # the grid policy rounded (b - a)/h with math.ceil before any check:
    # nan gave "cannot convert float NaN to integer", inf a traceback
    code, out, err = run(capsys, "solve", "--d", "0.2", flag, value)
    message = f"error: domain bound {flag[2:]} must be finite, got {value}\n"
    assert (code, out, err) == (1, "", message)


def test_a_sweep_over_an_infinite_domain_is_an_error_line(capsys, tmp_path):
    path = tmp_path / "inf.cfg"
    path.write_text("domain.a = inf\n")
    code, out, err = run(capsys, "--config", str(path), "sweep")
    message = "sweep failed at d = 2.0: domain bound a must be finite, got inf"
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_sweep_goes_on_when_the_ground_state_fails(tmp_path, capsys, monkeypatch):
    # the ground state gets three iterations, the Neumann solves their
    # default cap
    def capped(params, grid, config):
        return solvers.solve_ground_state(params, grid, replace(config, max_iters=3))

    monkeypatch.setattr(cli, "solve_ground_state", capped)
    csv_path = tmp_path / "sweep.csv"
    code, out, err = run(
        capsys, "sweep", "--s", "0.3", "--p", "1.02", "--points", "3",
        "--d-min", "0.2", "--out", str(csv_path),
    )
    assert code == 0
    assert err.startswith("warning: ground state failed: no convergence after 3 ")
    assert err.count("\n") == 1
    assert len(read_sweep_csv(str(csv_path))) == 3
    assert len(out.splitlines()) == 3


def test_sweep_writes_csv_and_fit_reads_it(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys,
        "sweep",
        "--d-max",
        "0.2",
        "--d-min",
        "0.1",
        "--points",
        "3",
        "--out",
        str(csv_path),
    )
    assert code == 0
    records = read_sweep_csv(str(csv_path))
    assert len(records) == 3
    assert records[0].d == 0.2
    assert not records[-1].constant_branch
    # too few records for a fit: the error must be reported, not raised
    code, _, err = run(capsys, "fit", "--in", str(csv_path), "--quantity", "cd")
    assert code == 1
    assert "nonconstant records" in err


def test_fit_on_a_full_decade(tmp_path, capsys):
    from fracneumann import SweepRecord

    records = [
        SweepRecord(
            d=d,
            c_d=7.0 * d * d,
            sup_u=2.0,
            argmax_x=0.01,
            dist_boundary=0.01,
            lr_norms={k: 7.0 * d * d for k in ("L0.5", "L1", "L2", "Lp1", "L4")},
            nehari_res=0.0,
            flux_res=0.0,
            constant_branch=False,
        )
        for d in (1.0, 0.5, 0.2, 0.1, 0.05)
    ]
    path = tmp_path / "synthetic.csv"
    write_sweep_csv(str(path), records)
    code, out, _ = run(capsys, "fit", "--in", str(path), "--quantity", "r:2")
    assert code == 0
    assert "slope = 2" in out
    code, _, err = run(capsys, "fit", "--in", str(path), "--quantity", "r:7")
    assert code == 1
    assert "unknown quantity" in err


def test_unreadable_input_is_an_error_not_a_traceback(tmp_path, capsys):
    code, _, err = run(capsys, "fit", "--in", str(tmp_path / "nope.csv"),
                       "--quantity", "cd")
    assert code == 1
    assert "error:" in err


def test_fit_names_follow_from_the_label_table(tmp_path, capsys):
    from fracneumann import SweepRecord

    labels = [label for label, _ in _LR_COLUMNS]
    records = [
        SweepRecord(
            d=d,
            c_d=d,
            sup_u=d,
            argmax_x=0.01,
            dist_boundary=0.01,
            lr_norms={label: d ** (i + 1) for i, label in enumerate(labels)},
            nehari_res=0.0,
            flux_res=0.0,
            constant_branch=False,
        )
        for d in (1.0, 0.5, 0.2, 0.1, 0.05)
    ]
    path = tmp_path / "synthetic.csv"
    write_sweep_csv(str(path), records)
    for i, label in enumerate(labels):
        assert label[0] == "L"
        code, out, _ = run(
            capsys, "fit", "--in", str(path), "--quantity", "r:" + label[1:]
        )
        assert code == 0
        assert out.startswith(f"slope = {i + 1} ")
