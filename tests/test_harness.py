"""Scaling fits, migration verdicts, profile match, self-checks, CSV."""

import glob
from dataclasses import replace

import numpy as np
import pytest

from fracneumann import (
    ConvergenceError,
    Params,
    SweepRecord,
    boundary_migration,
    build_line_grid,
    default_grid_policy,
    kernel_weights,
    profile_compare,
    read_sweep_csv,
    scaling_fit,
    solve_ground_state,
    solve_least_energy,
    verify_suite,
    write_sweep_csv,
)
from fracneumann import harness
from fracneumann.kernel import KernelTable
from fracneumann.solvers import _LR_COLUMNS


def synthetic_record(d, q, constant=False, dist=None, argmax=0.01):
    lr = {"L0.5": q, "L1": q, "L2": q, "Lp1": q, "L4": q}
    return SweepRecord(
        d=d,
        c_d=q,
        sup_u=q,
        argmax_x=argmax,
        dist_boundary=dist if dist is not None else argmax,
        lr_norms=lr,
        nehari_res=0.0,
        flux_res=0.0,
        constant_branch=constant,
    )


@pytest.fixture(scope="module")
def ground():
    return solve_ground_state(Params(d=1.0), build_line_grid(40.0, 0.1))


@pytest.fixture(scope="module")
def solved_02():
    params = Params(d=0.2)
    grid = default_grid_policy(params)
    return params, solve_least_energy(params, grid)


# ---------------------------------------------------------------------------
# power-law fits


def test_exact_power_law_is_recovered():
    records = [synthetic_record(d, 7.0 * d * d) for d in (1.0, 0.3, 0.1, 0.03, 0.01)]
    fit = scaling_fit(records, "L2")
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_constant_records_and_the_largest_d_are_excluded():
    ds = (1.0, 0.3, 0.1, 0.03, 0.01)
    records = [synthetic_record(d, 5.0 * d) for d in ds]
    # corrupt the largest nonconstant d; the fit must not see it
    records[0] = synthetic_record(1.0, 99.0)
    records.insert(0, synthetic_record(3.0, 1.0, constant=True))
    fit = scaling_fit(records, "cd")
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.window == (0.01, 0.3)


def test_fit_preconditions():
    records = [synthetic_record(d, d) for d in (0.6, 0.3, 0.1, 0.08)]
    with pytest.raises(ValueError):
        scaling_fit(records, "cd")  # spans less than a decade
    decade = [synthetic_record(d, d) for d in (1.0, 0.5, 0.1)]
    with pytest.raises(ValueError):
        scaling_fit(decade, "cd")  # too few records
    good = [synthetic_record(d, d) for d in (1.0, 0.5, 0.2, 0.1)]
    with pytest.raises(ValueError):
        scaling_fit(good, "mass")  # unknown quantity


@pytest.mark.parametrize("bad", [0.0, -0.05])
def test_fit_refuses_a_non_positive_d(bad):
    # as it refuses a non-positive quantity: log d of a zero or negative
    # d would hand the least-squares solve a nan or blame the decade
    records = [synthetic_record(d, d) for d in (1.0, 0.3, 0.1, 0.03, 0.01)]
    records[-1] = synthetic_record(bad, 0.01)
    with pytest.raises(ValueError, match=f"d must be positive.*got {bad!r}"):
        scaling_fit(records, "cd")


# ---------------------------------------------------------------------------
# boundary migration


def test_migration_constant_from_synthetic_distances():
    params = Params()
    records = [
        synthetic_record(d, 1.0, dist=3.0 * d**2) for d in (0.1, 0.05, 0.02)
    ]
    report = boundary_migration(records, params)
    assert report.k_star == pytest.approx(3.0, rel=1e-12)
    assert report.window == (0.02, 0.1)


def test_migration_verdict_boundary_versus_interior():
    params = Params()
    # distances well inside one policy cell for the two smallest d
    near = [
        synthetic_record(d, 1.0, dist=0.2 * default_grid_policy(Params(d=d)).h)
        for d in (0.1, 0.05, 0.02)
    ]
    assert boundary_migration(near, params).verdict == "boundary"
    far = [synthetic_record(d, 1.0, dist=0.05) for d in (0.1, 0.05, 0.02)]
    assert boundary_migration(far, params).verdict == "interior"


def test_migration_needs_two_nonconstant_records():
    params = Params()
    records = [synthetic_record(0.1, 1.0, constant=True)] * 3
    with pytest.raises(ValueError):
        boundary_migration(records, params)


# ---------------------------------------------------------------------------
# profile comparison


def test_profile_compare_rejects_constant_branch(ground):
    params = Params(d=10.0)
    grid = default_grid_policy(params)
    result = solve_least_energy(params, grid)
    with pytest.raises(ValueError):
        profile_compare(result, ground, params)


def test_solved_profile_is_close_to_the_ground_state(ground, solved_02):
    params, result = solved_02
    gap = profile_compare(result, ground, params)
    assert 0.0 < gap < 0.5


# ---------------------------------------------------------------------------
# self-verification suite


def test_suite_reports_the_known_state_of_the_laboratory():
    report = verify_suite(Params())
    names = [item.name for item in report]
    assert names == [
        "kernel-symbol",
        "extension-stationarity",
        "nehari-flux-identities",
        "pohozaev-identity",
        "iteration-arithmetic",
        "pointwise-inequality-fuzz",
        "below-constant-branch",
        "transplant-energy-bound",
    ]
    by_name = {item.name: item for item in report}
    for name in names[:-1]:
        assert by_name[name].passed, by_name[name].detail
    # the transplanted profile's ray-sup energy measurably exceeds
    # d^(n/2s)/2 F at desk scales; the suite must say so honestly
    assert not by_name["transplant-energy-bound"].passed
    # a pass states the bound, not round-off digits of the descent
    assert by_name["nehari-flux-identities"].detail == "nehari, flux <= 1e-6"


def test_a_failed_identity_check_prints_its_residuals(monkeypatch):
    def loose(params, grid):
        return replace(solve_least_energy(params, grid), flux_residual=2.5e-3)

    monkeypatch.setattr(harness, "solve_least_energy", loose)
    item = {item.name: item for item in verify_suite(Params())}[
        "nehari-flux-identities"
    ]
    assert not item.passed
    assert "flux 2.500e-03 (tol 1e-6)" in item.detail


def test_suite_flags_a_tampered_kernel(monkeypatch):
    def halved(grid, params):
        table = kernel_weights(grid, params)
        return KernelTable(
            grid=table.grid,
            s=table.s,
            c_ns=table.c_ns,
            omega=0.5 * table.omega,
            tail=table.tail,
            pv_coeff=table.pv_coeff,
        )

    monkeypatch.setattr(harness, "kernel_weights", halved)
    report = verify_suite(Params())
    by_name = {item.name: item for item in report}
    assert not by_name["kernel-symbol"].passed


def test_suite_degrades_gracefully_outside_the_neumann_range():
    report = verify_suite(Params(p=1.7))
    by_name = {item.name: item for item in report}
    # every item that reads the failed Neumann solve quotes its error
    for name in (
        "nehari-flux-identities",
        "below-constant-branch",
        "transplant-energy-bound",
    ):
        assert not by_name[name].passed
        assert by_name[name].detail.startswith("solve failed: Neumann runs need p <")
    # whole-space items do not depend on the Neumann exponent window
    assert by_name["kernel-symbol"].passed
    assert by_name["extension-stationarity"].passed
    assert by_name["iteration-arithmetic"].passed


def test_a_check_that_raises_becomes_a_failed_item(monkeypatch):
    def broken(x, y, k):
        raise ValueError("margin broke")

    monkeypatch.setattr(harness, "elementary_inequality_margin", broken)
    report = verify_suite(Params())
    by_name = {item.name: item for item in report}
    assert len(report) == 8
    fuzz = by_name["pointwise-inequality-fuzz"]
    assert (fuzz.passed, fuzz.detail) == (False, "margin broke")
    # the items after it still run
    assert by_name["below-constant-branch"].passed
    assert by_name["transplant-energy-bound"].detail.startswith("ray-sup energy ")


def test_a_failed_ground_state_fails_each_item_that_reads_it(monkeypatch):
    def capped(params, grid):
        raise ConvergenceError("no convergence in 3 iterations", [])

    monkeypatch.setattr(harness, "solve_ground_state", capped)
    by_name = {item.name: item for item in verify_suite(Params())}
    message = "solve failed: no convergence in 3 iterations"
    for name in ("pohozaev-identity", "transplant-energy-bound"):
        assert (by_name[name].passed, by_name[name].detail) == (False, message)
    assert by_name["nehari-flux-identities"].passed
    assert by_name["below-constant-branch"].passed


# ---------------------------------------------------------------------------
# CSV round trip


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    records = []
    for i, d in enumerate((0.5, 0.25, 0.1)):
        q = float(np.exp(rng.standard_normal()))
        records.append(synthetic_record(d, q, constant=(i == 0), argmax=q / 10))
    path = str(tmp_path / "sweep.csv")
    write_sweep_csv(path, records)
    back = read_sweep_csv(path)
    assert back == records
    assert glob.glob(str(tmp_path / "*.tmp")) == []


def test_csv_serialisation_is_reproducible(tmp_path):
    records = [synthetic_record(d, 1.0 / 3.0 * d) for d in (0.4, 0.2)]
    p1 = str(tmp_path / "a.csv")
    p2 = str(tmp_path / "b.csv")
    write_sweep_csv(p1, records)
    write_sweep_csv(p2, read_sweep_csv(p1))
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_csv_rejects_foreign_files(tmp_path):
    path = str(tmp_path / "junk.csv")
    with open(path, "w") as fh:
        fh.write("time,value\n0,1\n")
    with pytest.raises(ValueError):
        read_sweep_csv(path)


def _one_row(tmp_path, row):
    path = tmp_path / "sweep.csv"
    path.write_text(",".join(harness._CSV_COLUMNS) + "\n\n" + row + "\n")
    return str(path)


GOOD_ROW = "0.2,0.1,2,0.01,0.01,1,1,1,1,1,0,0,0"


@pytest.mark.parametrize(
    "row, message",
    [
        (GOOD_ROW.replace("0.2,", "abc,", 1), "expected a finite number, got 'abc'"),
        (GOOD_ROW.replace("0.1,", "nan,", 1), "expected a finite number, got 'nan'"),
        (GOOD_ROW[:-1] + "7", "constant_branch must be 0 or 1, got '7'"),
        ("0.2,0.1,2", "malformed sweep row, expected 13 fields, got 3"),
        (GOOD_ROW.replace("0.2,", "0,", 1), "d must be positive, got 0.0"),
        (GOOD_ROW.replace("0.2,", "-0.2,", 1), "d must be positive, got -0.2"),
    ],
    ids=["not-a-number", "nan", "flag-not-0-or-1", "short-row", "zero-d", "negative-d"],
)
def test_csv_rejects_a_bad_row_naming_path_and_line(tmp_path, row, message):
    path = _one_row(tmp_path, row)
    with pytest.raises(ValueError) as err:
        read_sweep_csv(path)
    assert str(err.value) == f"{path}:3: {message}"


def test_csv_rejects_a_repeated_d_naming_both_lines(tmp_path):
    # a duplicated row would weigh its point twice in the fit
    records = [synthetic_record(d, d) for d in (1.0, 0.3, 0.1, 0.03, 0.01)]
    path = str(tmp_path / "sweep.csv")
    write_sweep_csv(path, records)
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "a") as fh:
        fh.write(lines[-1])
    with pytest.raises(ValueError) as err:
        read_sweep_csv(path)
    assert str(err.value) == f"{path}:7: d = 0.01 repeats the row at {path}:6"


def test_columns_and_quantities_follow_from_the_label_table(tmp_path):
    labels = [label for label, _ in _LR_COLUMNS]
    records = [synthetic_record(d, d) for d in (1.0, 0.5, 0.2, 0.1)]
    path = str(tmp_path / "sweep.csv")
    write_sweep_csv(path, records)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    assert header == [
        "d", "c_d", "sup_u", "argmax_x", "dist_boundary",
        *labels,
        "nehari_res", "flux_res", "constant_branch",
    ]
    for quantity in ["cd", "sup", *labels]:
        assert scaling_fit(records, quantity).slope == pytest.approx(1.0)
    with pytest.raises(ValueError):
        scaling_fit(records, "Linf")
