"""Descent solvers: ground state, Neumann least energy, sweep, snapshots."""

import glob
import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracneumann import (
    ConvergenceError,
    F_energy,
    J_d_constant,
    Params,
    SolverConfig,
    SweepAborted,
    build_grid,
    build_line_grid,
    default_grid_policy,
    extend,
    frac_laplacian_apply,
    kernel_weights,
    load_snapshot,
    nehari_scale,
    peak_energy,
    pohozaev,
    record_from_result,
    save_snapshot,
    solve_ground_state,
    solve_least_energy,
    sweep,
    transplant_ground_state,
    write_sweep_csv,
)
from fracneumann import solvers
from fracneumann.cli import _GROUND_WINDOW, main as cli_main
from fracneumann.energy import _nehari_ray, _neumann, _neumann_operator
from fracneumann.kernel import KernelTable, _symbol_inverse, _symbol_inverse_matrix
from fracneumann.neumann import _extension
from fracneumann.solvers import _stretched_start

# Relative slack for "the ray-sup energy never increased": acceptance
# tolerates round-off steps of order 1e-14 relative.
_MONOTONE_RTOL = 1e-12


@pytest.fixture(scope="module")
def ground():
    return solve_ground_state(Params(d=1.0), build_line_grid(40.0, 0.1))


@pytest.fixture(scope="module")
def domain_02():
    params = Params(d=0.2)
    grid = default_grid_policy(params)
    table = kernel_weights(grid, params)
    return params, grid, table


@pytest.fixture(scope="module")
def solved_02(domain_02):
    params, grid, _ = domain_02
    return solve_least_energy(params, grid)


def history_non_increasing(history):
    h = np.asarray(history)
    scale = np.max(np.abs(h))
    return bool(np.all(np.diff(h) <= _MONOTONE_RTOL * scale))


# ---------------------------------------------------------------------------
# solver configuration


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SolverConfig(tol_residual=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^tol_residual must be positive"):
            SolverConfig(tol_residual=value)
    for value in (2.5, True, "10"):
        with pytest.raises(ValueError, match="^max_iters must be an integer"):
            SolverConfig(max_iters=value)
    with pytest.raises(TypeError):  # the start follows from warm=
        SolverConfig(init="warm_start")
    with pytest.raises(TypeError):  # the first step is a solver constant
        SolverConfig(step=0.1)


# ---------------------------------------------------------------------------
# whole-space ground state


def test_ground_state_needs_a_wide_window():
    with pytest.raises(ValueError):
        solve_ground_state(Params(d=1.0), build_line_grid(20.0, 0.1))


def test_ground_state_profile(ground):
    grid = ground.grid
    w = ground.w
    assert np.all(w > 0.0)
    assert np.array_equal(w, w[::-1])
    assert ground.el_residual <= 1e-8
    # pinned value for this window and spacing; refinement moves it only
    # in the fourth digit
    assert ground.F_value == pytest.approx(3.3932892, rel=1e-6)
    assert ground.pohozaev_residual <= 2e-3
    assert ground.decay_exponent_fit == pytest.approx(1.5, rel=0.15)
    assert history_non_increasing(ground.peak_history)
    right = w[grid.nodes > 0.0]
    assert np.all(np.diff(right) < 0.0)


@settings(max_examples=8, deadline=None)
@given(s=st.floats(0.15, 0.45), p_frac=st.floats(0.0, 1.0))
def test_ground_state_is_even_and_decreasing_for_any_exponents(s, p_frac):
    p_max = min(3.0, (1.0 + 2.0 * s) / (1.0 - 2.0 * s) - 0.1)
    params = Params(s=s, p=1.25 + p_frac * (p_max - 1.25))
    result = solve_ground_state(
        params, build_line_grid(40.0, 0.1), SolverConfig(max_iters=5000)
    )
    w = result.w
    assert np.array_equal(w, w[::-1])
    right = w[result.grid.nodes > 0.0]
    assert np.all(np.diff(right) < 0.0)


def test_ground_state_iteration_cap_raises_with_history():
    with pytest.raises(ConvergenceError) as err:
        solve_ground_state(
            Params(d=1.0), build_line_grid(40.0, 0.1), SolverConfig(max_iters=3)
        )
    assert len(err.value.history) == 3


def _every_trial_peaks_higher(monkeypatch):
    """Double the ray-sup energy of every ray after a descent's start."""
    ray = solvers._nehari_ray
    calls = []

    def higher(quad, pot, p):
        t0, peak = ray(quad, pot, p)
        calls.append(peak)
        return t0, peak if len(calls) == 1 else 2.0 * peak

    monkeypatch.setattr(solvers, "_nehari_ray", higher)


def test_rejected_step_fails_at_once(monkeypatch):
    # a search that halves to its floor leaves the iterate where it was,
    # so every later iteration would repeat it until max_iters
    _every_trial_peaks_higher(monkeypatch)
    with pytest.raises(ConvergenceError, match="rejected at iteration 0") as err:
        solve_ground_state(
            Params(d=1.0), build_line_grid(40.0, 0.1), SolverConfig(max_iters=2000)
        )
    assert len(err.value.history) == 1


@pytest.mark.parametrize(
    "s, p, half_width, h",
    [
        (0.45, 1.1, 40.0, 0.1),
        (0.45, 1.2455, 60.0, 0.05),
        (0.45, 1.02, 40.0, 0.1),
        (0.3, 1.02, 60.0, 0.05),
    ],
)
def test_ground_states_near_p_one_converge(s, p, half_width, h):
    # every case once ended in a rejected step; the last two did until
    # the round-off band grew with the ray's amplification (p+1)/(p-1)
    result = solve_ground_state(
        Params(s=s, p=p),
        build_line_grid(half_width, h),
        SolverConfig(max_iters=2000),
    )
    w = result.w
    assert result.el_residual <= 1e-8
    assert np.array_equal(w, w[::-1])
    assert np.all(np.diff(w[result.grid.nodes > 0.0]) < 0.0)
    assert history_non_increasing(result.peak_history)


def test_least_energy_iteration_cap_raises_with_history(domain_02):
    params, grid, _ = domain_02
    with pytest.raises(ConvergenceError) as err:
        solve_least_energy(params, grid, config=SolverConfig(max_iters=4))
    assert len(err.value.history) == 4


# ---------------------------------------------------------------------------
# Neumann least energy: branches and identities


def test_large_diffusion_lands_on_constant_branch():
    params = Params(d=10.0)
    grid = build_grid(0.0, 1.0, 0.02, 2.0)
    result = solve_least_energy(params, grid)
    assert result.constant_branch
    assert np.all(result.u == 1.0)
    assert result.M_d == 1.0
    assert result.c_d == pytest.approx(J_d_constant(grid, params), abs=1e-14)
    assert result.nehari_residual == 0.0
    assert result.flux_residual == 0.0


def test_results_keep_the_read_only_interior(solved_02, domain_02):
    # a result holds the interior values and its grid, never the collar
    params = Params(d=2.0)
    grid = default_grid_policy(params)
    constant = solve_least_energy(params, grid)
    assert constant.constant_branch and not solved_02.constant_branch
    for result, g in ((constant, grid), (solved_02, domain_02[1])):
        assert result.grid is g
        assert isinstance(result.u, np.ndarray)
        assert result.u.shape == (g.n_interior,)
        with pytest.raises(ValueError):
            result.u[0] = 0.0


def test_small_diffusion_beats_constant_branch(solved_02, domain_02):
    params, grid, _ = domain_02
    result = solved_02
    assert not result.constant_branch
    assert result.c_d < J_d_constant(grid, params)
    assert result.M_d > 1.0
    assert np.all(extend(result.u, domain_02[2]).values > 0.0)
    assert history_non_increasing(result.peak_history)
    # peak sits near the boundary at this diffusion
    assert min(result.argmax_x, 1.0 - result.argmax_x) < 0.1


def test_converged_solve_satisfies_the_identities(solved_02, domain_02):
    params, grid, _ = domain_02
    result = solved_02
    assert result.nehari_residual <= 1e-6
    assert result.flux_residual <= 1e-6
    assert result.el_residual <= 1e-8 * max(1.0, result.M_d)
    ui = result.u
    pot = grid.h * float(np.sum(ui ** (params.p + 1.0)))
    identity = (params.p - 1.0) / (2.0 * (params.p + 1.0)) * pot
    assert abs(result.c_d - identity) / result.c_d <= 1e-8


def test_reported_figures_are_those_of_the_returned_field(solved_02, domain_02):
    # each figure is taken once from the extension of the returned
    # interior values; recomputing it from ``extend(result.u)`` must give
    # the same bits on both branches
    params, _, table = domain_02
    d_2 = Params(d=2.0)
    grid_2 = default_grid_policy(d_2)
    table_2 = kernel_weights(grid_2, d_2)
    constant = solve_least_energy(d_2, grid_2)
    assert constant.constant_branch and not solved_02.constant_branch
    for result, pd, t in ((solved_02, params, table), (constant, d_2, table_2)):
        ui = result.u
        ext = extend(ui, t)
        energy, quad, pot = _neumann(ext, pd, t)
        r = pd.d * t.c_ns * _neumann_operator(ext.values, t) + ui - ui**pd.p
        assert result.c_d == energy
        assert result.nehari_residual == abs(quad - pot) / quad
        assert result.el_residual == float(np.max(np.abs(r))) / max(
            1.0, float(np.max(ui))
        )


@pytest.mark.parametrize("d", [0.2, 2.0])
def test_the_flux_identity_is_summed_only_at_convergence(monkeypatch, d):
    # the descent's residual closure sums the flux identity only on an
    # iterate whose residual has reached the tolerance, the one time the
    # sum is read; the figures sum it once more for the returned field.
    # The reported flux residual keeps the bits of |int (u - u^p)| / int u
    events = []
    residual, flux, descent = solvers._residual, solvers._flux, solvers._nehari_descent

    def spy_residual(*args):
        r, size = residual(*args)
        events.append(("residual", size))
        return r, size

    def spy_flux(*args):
        events.append(("flux", None))
        return flux(*args)

    def spy_descent(*args):
        out = descent(*args)
        events.append(("end", None))
        return out

    monkeypatch.setattr(solvers, "_residual", spy_residual)
    monkeypatch.setattr(solvers, "_flux", spy_flux)
    monkeypatch.setattr(solvers, "_nehari_descent", spy_descent)
    params = Params(d=d)
    grid = default_grid_policy(params)
    tol = SolverConfig().tol_residual
    result = solve_least_energy(params, grid)
    assert result.constant_branch == (d == 2.0)
    end = events.index(("end", None))
    sizes = [size for kind, size in events[:end] if kind == "residual"]
    assert len(sizes) == result.iterations + 1
    assert sum(size > tol for size in sizes) == result.iterations
    for before, (kind, _) in zip(events[: end - 1], events[1:end]):
        if kind == "flux":
            assert before[0] == "residual" and before[1] <= tol
    assert [kind for kind, _ in events[end + 1 :]] == ["residual", "flux"]
    ui, p = result.u, params.p
    want = abs(grid.integrate(ui - ui**p)) / grid.integrate(ui)
    assert _bitwise(result.flux_residual, want)
    if result.constant_branch:
        assert result.flux_residual == 0.0


# ---------------------------------------------------------------------------
# Nehari descent: line-search trials without Toeplitz products


def _counting_products(monkeypatch):
    calls = []
    original = KernelTable.matvec

    def counting(self, *args):
        calls.append(args[1:])
        return original(self, *args)

    monkeypatch.setattr(KernelTable, "matvec", counting)
    return calls


def _counting_folds(monkeypatch):
    """Record, per ``fold`` call of every descent, whether it changed its input."""
    changed = []
    descent = solvers._nehari_descent

    def counted(
        u0, apply, precondition, fold, h, p, residual, config, history
    ):
        def counting_fold(v):
            w = fold(v)
            changed.append(not np.array_equal(w, v))
            return w

        return descent(
            u0,
            apply,
            precondition,
            counting_fold,
            h,
            p,
            residual,
            config,
            history,
        )

    monkeypatch.setattr(solvers, "_nehari_descent", counted)
    return changed


def _counting_preconditions(monkeypatch):
    """Record every P^-1 application of every descent."""
    calls = []
    descent = solvers._nehari_descent

    def counted(
        u0, apply, precondition, fold, h, p, residual, config, history
    ):
        def counting(v):
            calls.append(v)
            return precondition(v)

        return descent(
            u0, apply, counting, fold, h, p, residual, config, history
        )

    monkeypatch.setattr(solvers, "_nehari_descent", counted)
    return calls


def _neumann_parts(params, table):
    """(apply, precondition, fold, h, p) of a Neumann solve's descent."""
    apply, precondition = solvers._reduced_operator(table, params.d * table.c_ns)
    return apply, precondition, np.abs, table.grid.h, params.p


def _projection(parts, v):
    """(u, A u, peak) of the folded, Nehari-scaled ``v``: a descent's start."""
    apply, precondition, fold, h, p = parts
    def stop(u, au):
        return None, 0.0, True

    u, au, _, _, peaks = solvers._nehari_descent(
        v, apply, precondition, fold, h, p, stop, SolverConfig(), []
    )
    return u, au, peaks[-1]


def _one_step(monkeypatch, parts, u0, r):
    """One descent iteration from ``u0`` along ``r``.

    Returns the accepted (u, A u, peak), the fields u - alpha r of its
    trials and the number of products the run made.
    """
    apply, precondition, fold, h, p = parts
    trials = []

    def recording_fold(v):
        trials.append(v)
        return fold(v)

    script = iter([(r, 1.0, False)])
    calls = _counting_products(monkeypatch)
    u, au, it, _, peaks = solvers._nehari_descent(
        u0,
        apply,
        precondition,
        recording_fold,
        h,
        p,
        lambda u, au: next(script, (None, 0.0, True)),
        SolverConfig(),
        [],
    )
    monkeypatch.undo()
    assert it == 1
    return (u, au, peaks[-1]), trials[1:], len(calls)


@pytest.mark.parametrize("d", [0.2, 0.04308869380063769])
def test_unclipped_trials_match_the_full_projection(monkeypatch, d):
    # A is linear, so along a ray of nonnegative values a trial takes its
    # quadratic part from A u and A r and makes no product; it lands on
    # the full projection's t0 and peak to round-off, and the A u it
    # carries is that of the trial iterate.  Each run's four products are
    # the start's A u and the iteration's A r.
    params = Params(d=d)
    grid = default_grid_policy(params)
    table = kernel_weights(grid, params)
    warm = 0.5 + np.random.default_rng(3).uniform(0.0, 1.0, grid.n_interior)
    parts = _neumann_parts(params, table)
    u, au, _ = _projection(parts, warm)
    r = solvers._residual(u, au, params.p)[0]
    reach = float(np.min(u[r > 0.0] / r[r > 0.0]))
    for frac in (1e-3, 0.1, 0.9):
        # the first trial steps by _FIRST_STEP: it lands at frac * reach
        scaled_r = r * (frac * reach / solvers._FIRST_STEP)
        (trial, trial_au, peak), trials, products = _one_step(
            monkeypatch, parts, u, scaled_r
        )
        assert products == 4
        assert all(np.min(v) >= 0.0 for v in trials)
        want, _, want_peak = _projection(parts, trials[-1])
        # both are t0 v for one v, so their ratio is the ratio of the t0s
        assert np.max(np.abs(trial - want)) <= 1e-13 * np.max(want)
        assert abs(peak - want_peak) <= 1e-13 * want_peak
        fresh = parts[0](trial)
        assert np.max(np.abs(trial_au - fresh)) <= 1e-13 * np.max(np.abs(fresh))


def test_a_clipped_trial_takes_the_full_projection(monkeypatch, domain_02):
    params, grid, table = domain_02
    warm = 0.5 + np.random.default_rng(5).uniform(0.0, 1.0, grid.n_interior)
    warm[10] = 0.0
    parts = _neumann_parts(params, table)
    u, au, _ = _projection(parts, warm)
    assert u[10] == 0.0
    r = solvers._residual(u, au, params.p)[0]
    r[10] = 1.0  # u - alpha r < 0 there for every alpha > 0
    # the first trial steps by _FIRST_STEP, so it lands at alpha = 1e-3
    r *= 1e-3 / solvers._FIRST_STEP
    (trial, trial_au, peak), trials, products = _one_step(monkeypatch, parts, u, r)
    assert all(v[10] < 0.0 for v in trials)
    assert products == 4 + 2 * len(trials)
    want, want_au, want_peak = _projection(parts, trials[-1])
    assert np.array_equal(trial, want) and peak == want_peak
    assert np.array_equal(trial_au, want_au)


def test_an_iteration_without_pairs_steps_along_r_unpreconditioned(domain_02):
    # before any pair the descent forms P^-1 r once, for the next
    # iteration's pair, but steps along r itself: its first trial is
    # u - _FIRST_STEP r, and the iteration keeps the bits of the
    # reference loop
    params, grid, table = domain_02
    warm = 0.5 + np.random.default_rng(4).uniform(0.0, 1.0, grid.n_interior)
    apply, precondition, fold, h, p = _neumann_parts(params, table)

    runs = []
    for descent in (solvers._nehari_descent, _reference_descent):
        seen, trials, transforms = [], [], []

        def counting(v):
            transforms.append(v)
            return precondition(v)

        def once(u, au):
            if seen:
                return None, 0.0, True
            r, size = solvers._residual(u, au, p)
            seen.append((u, r))
            return r, size, False

        def recording_fold(v):
            trials.append(v)
            return fold(v)

        got = descent(
            warm, apply, counting, recording_fold, h, p, once,
            SolverConfig(), [],
        )
        (u, r), = seen
        assert got[2] == 1
        assert len(transforms) == 1 and transforms[0] is r
        assert _bitwise(trials[1], u - solvers._FIRST_STEP * r)
        runs.append(got)
    got, want = runs
    for a, b in zip(got, want):
        assert _bitwise(a, b)


def test_each_descent_iteration_makes_two_products(monkeypatch, domain_02):
    # two products for A r of the residual direction, however often the
    # step halves, and none for the residual A u + u - u^p; two more per
    # trial that the absolute value clips, two for the first projection,
    # and three for the figures: extend, its seminorm and the residual
    params, grid, _ = domain_02
    clipped = _counting_folds(monkeypatch)
    calls = _counting_products(monkeypatch)
    transforms = _counting_preconditions(monkeypatch)
    result = solve_least_energy(params, grid)
    assert not result.constant_branch
    assert not clipped[0]  # the start is the nonnegative bump
    assert len(clipped) - 1 > result.iterations  # some steps halved
    it = result.iterations
    assert len(calls) == 2 * it + 2 + 2 * sum(clipped) + 3
    # and one P^-1, of the residual, per iteration
    assert len(transforms) == it


def test_small_interiors_descend_on_the_dense_matrix(monkeypatch):
    # the descent applies d c R and makes no product; the three are the
    # figures': extend, its seminorm and the residual.  The floor on the
    # iterations describes the workload, not a tolerance: the solve
    # takes 23, each of which would cost two products on the FFT path,
    # so three products in all show that the descent made none
    params = Params(d=0.2936)
    grid = default_grid_policy(params)
    assert grid.n_interior == 117 <= solvers._DENSE_INTERIOR
    calls = _counting_products(monkeypatch)
    result = solve_least_energy(params, grid)
    assert result.iterations > 20
    assert len(calls) == 3


def test_domain_02_keeps_the_fft_path():
    # so the product counts and the reference loop above pin that path
    assert solvers._DENSE_INTERIOR < default_grid_policy(Params(d=0.2)).n_interior


@pytest.mark.parametrize("extra, products", [(0, 0), (1, 2)])
def test_the_threshold_picks_the_operator_form(monkeypatch, extra, products):
    # an interior of _DENSE_INTERIOR nodes applies the dense matrix, one
    # node more the extension and W[I, :] of it
    n_interior = solvers._DENSE_INTERIOR + extra
    grid = build_grid(0.0, 1.0, 1.0 / n_interior)
    assert grid.n_interior == n_interior
    params = Params(d=0.2)
    table = kernel_weights(grid, params)
    apply, _ = solvers._reduced_operator(table, params.d * table.c_ns)
    calls = _counting_products(monkeypatch)
    apply(np.ones(n_interior))
    assert len(calls) == products


@pytest.mark.parametrize("d, lengths", [(0.2, [500, 1500]), (0.2936, [240, 720])])
def test_a_solve_table_holds_two_lengths_and_four_blocks(monkeypatch, d, lengths):
    # P^-1's spectrum at _fast_len(2 n_I) and the products' one, on the FFT
    # path and the dense one; row sums of W[:, I], W[I, :] and the two
    # collar blocks W[I, E]
    tables = []
    build = solvers.kernel_weights

    def capture(grid, params):
        tables.append(build(grid, params))
        return tables[-1]

    monkeypatch.setattr(solvers, "kernel_weights", capture)
    params = Params(d=d)
    grid = default_grid_policy(params)
    solve_least_energy(params, grid)
    [table] = tables
    n = grid.n_nodes
    lo, hi = grid.interior_range
    assert sorted(table.spectra) == lengths
    assert set(table.block_sums) == {
        (0, n, lo, hi), (lo, hi, 0, n), (lo, hi, 0, lo), (lo, hi, hi, n)
    }


@pytest.mark.parametrize(
    "params, constant",
    [(Params(d=0.2936), True), (Params(s=0.4, p=2.0, d=0.2), False)],
)
def test_dense_and_fft_descents_agree(monkeypatch, params, constant):
    # a threshold of 0 sends the same grid down the FFT path
    grid = default_grid_policy(params)
    assert grid.n_interior <= solvers._DENSE_INTERIOR
    dense = record_from_result(solve_least_energy(params, grid), params)
    monkeypatch.setattr(solvers, "_DENSE_INTERIOR", 0)
    fft = record_from_result(solve_least_energy(params, grid), params)
    assert dense.constant_branch == fft.constant_branch == constant
    if constant:
        assert dense == fft
    else:
        assert abs(dense.c_d - fft.c_d) <= 1e-12 * fft.c_d
        assert abs(dense.sup_u - fft.sup_u) <= 1e-6 * fft.sup_u
        assert dense.argmax_x == fft.argmax_x


@pytest.mark.parametrize("fft", [False, True])
@pytest.mark.parametrize(
    "s, d",
    [(0.25, 0.2936), (0.3, 2.0), (0.4, 0.2), (0.45, 2.0), (0.3, 0.2), (0.3, 0.632456)],
)
def test_neumann_solves_near_p_one_converge(monkeypatch, fft, s, d):
    # at p = 1.02 each of the first four cases rejected a step on one
    # path or both while the round-off band stayed at 1e-14, below the
    # ray's amplified noise; the first and the last two reject a step
    # along the L-BFGS direction unless the search falls back to r
    params = Params(s=s, p=1.02, d=d)
    grid = default_grid_policy(params)
    # (0.3, 0.2) has 147 interior nodes, past the dense threshold
    monkeypatch.setattr(solvers, "_DENSE_INTERIOR", 0 if fft else grid.n_interior)
    result = solve_least_energy(params, grid)
    assert result.el_residual <= 1e-8
    assert history_non_increasing(result.peak_history)


def test_each_ground_state_iteration_makes_one_product(monkeypatch):
    # the whole-space twin: one product for A q, none for the residual,
    # one more per trial that |.| and the reflection change, one for the
    # first projection and one for the figures.  At s = 0.45, p = 1.1
    # the searches still halve (78 trials in 36 iterations), where the
    # default exponents take one trial per iteration with ten pairs
    clipped = _counting_folds(monkeypatch)
    calls = _counting_products(monkeypatch)
    transforms = _counting_preconditions(monkeypatch)
    result = solve_ground_state(Params(s=0.45, p=1.1), build_line_grid(40.0, 0.1))
    assert len(clipped) - 1 > result.iterations
    assert len(calls) == result.iterations + 1 + sum(clipped) + 1
    assert len(transforms) == result.iterations


def _reference_direction(r, pr, pairs, integrate):
    """Nocedal's two-loop recursion over ``pairs`` of (du, dr, pdr, du . dr).

    The initial inverse Hessian is gamma P^-1, with gamma = du . dr /
    dr . pdr of the newest pair; P^-1 of the first loop's q is carried
    alongside it from ``pr`` = P^-1 r and each pdr = P^-1 dr.
    """
    q, pq = r, pr
    coeffs = []
    for du, dr, pdr, curv in pairs[::-1]:
        coeffs.append(integrate(du * q) / curv)
        q = q - coeffs[-1] * dr
        pq = pq - coeffs[-1] * pdr
    gamma = pairs[-1][3] / integrate(pairs[-1][1] * pairs[-1][2])
    q = pq * gamma
    for (du, dr, _, curv), a in zip(pairs, coeffs[::-1]):
        q = q + (a - integrate(dr * q) / curv) * du
    return q


def _two_transform_direction(r, pairs, precondition, integrate):
    """The recursion that applies P^-1 to q and to the newest dr itself."""
    q = r
    coeffs = []
    for du, dr, curv in pairs[::-1]:
        coeffs.append(integrate(du * q) / curv)
        q = q - coeffs[-1] * dr
    gamma = pairs[-1][2] / integrate(pairs[-1][1] * precondition(pairs[-1][1]))
    q = precondition(q) * gamma
    for (du, dr, curv), a in zip(pairs, coeffs[::-1]):
        q = q + (a - integrate(dr * q) / curv) * du
    return q


class _ListMemory:
    """The compact L-BFGS memory kept in plain lists: the oracle's.

    ``slots`` holds the pairs (du, P^-1 dr) where the compact memory's
    ring holds them, a new pair taking the oldest one's place once
    ``_MEMORY`` are held.  R^-1 (R_ij = du_i . dr_j for pair i not
    newer than pair j), D and G_ij = P^-1 dr_i . dr_j are lists of rows
    in the same slot order: the oldest pair leaves R^-1 as a zeroed row
    and column, and the new pair's column is the bordered update's, so
    every product sees the same numbers in the same order and the
    direction keeps the bits of ``solvers._CompactMemory``.
    """

    def __init__(self):
        self.clear()

    def __len__(self):
        return len(self.slots)

    def clear(self):
        self.slots, self.rinv, self.g, self.d = [], [], [], []
        self.newest = -1

    def _rows(self):
        return np.array([x for pair in self.slots for x in pair])

    def append(self, du, dr, pdr):
        j = self.newest = (self.newest + 1) % solvers._MEMORY
        if j == len(self.slots):
            self.slots.append(None)
            self.d.append(None)
            self.g = [row + [0.0] for row in self.g] + [[0.0] * (j + 1)]
            self.rinv = [row + [0.0] for row in self.rinv] + [[0.0] * (j + 1)]
        self.slots[j] = (du, pdr)
        dots = self._rows() @ dr
        column, row = dots[0::2], dots[1::2]
        rinv = np.array(self.rinv)
        rinv[j] = 0.0
        rinv[:, j] = 0.0
        rinv[:, j] = (rinv @ column) / -column[j]
        rinv[j, j] = 1.0 / column[j]
        self.rinv = rinv.tolist()
        for i, value in enumerate(row):
            self.g[i][j] = self.g[j][i] = value
        self.d[j] = column[j]

    def direction(self, r, pr):
        """gamma P^-1 r + S R^-T (D t + gamma (G t - b)) - gamma Z t, t = R^-1 a."""
        j = self.newest
        gamma = float(self.d[j] / self.g[j][j])
        rows = self._rows()
        dots = rows @ r
        rinv = np.array(self.rinv)
        t = rinv @ dots[0::2]
        w = np.array(self.d) * t + gamma * (np.array(self.g) @ t - dots[1::2])
        coef = np.ravel(np.column_stack([rinv.T @ w, -gamma * t]))
        return coef @ rows + gamma * pr


@pytest.mark.parametrize("dense", [False, True])
def test_one_transform_direction_matches_the_two_transform_recursion(dense):
    # the compact memory's direction is the two-loop recursion's, which
    # carries P^-1 q from P^-1 of each residual; P^-1 is linear, so that
    # is the direction the recursion gets by applying P^-1 twice.  The
    # pairs are differences of residuals, as in the descent; past
    # _MEMORY pairs the oldest drop out, and each count after the first
    # refills the memory after a clear, the last one after its ring wrapped
    params = Params(d=0.2936)
    grid = default_grid_policy(params)
    table = kernel_weights(grid, params)
    n, scale = grid.n_interior, params.d * table.c_ns
    if dense:
        matrix = _symbol_inverse_matrix(table, n, scale)

        def precondition(v):
            return matrix @ v

    else:
        precondition = _symbol_inverse(table, n, scale)
    integrate = grid.integrate
    rng = np.random.default_rng(21)
    memory = solvers._CompactMemory(n)
    keep = solvers._MEMORY
    for m in (1, 3, keep, 2 * keep + 3, 4):
        memory.clear()
        us = rng.standard_normal((m + 1, n)).cumsum(axis=0)
        # residuals that grow along each step keep du . dr > 0
        rs = [rng.standard_normal(n)]
        for du in np.diff(us, axis=0):
            rs.append(rs[-1] + du + 0.1 * rng.standard_normal(n))
        prs = [precondition(r) for r in rs]
        one, two = [], []
        for k in range(1, m + 1):
            du, dr = us[k] - us[k - 1], rs[k] - rs[k - 1]
            curv = integrate(du * dr)
            assert curv > 0.0
            memory.append(du, dr, prs[k] - prs[k - 1])
            one.append((du, dr, prs[k] - prs[k - 1], curv))
            two.append((du, dr, curv))
        assert len(memory) == min(m, keep)
        r = rs[-1]
        got = memory.direction(r, prs[-1])
        for want in (
            _reference_direction(r, prs[-1], one[-keep:], integrate),
            _two_transform_direction(r, two[-keep:], precondition, integrate),
        ):
            assert np.max(np.abs(got - want)) <= 1e-12 * float(np.max(np.abs(want)))


def test_the_memory_holds_two_vectors_a_pair(monkeypatch):
    # du and P^-1 dr, never dr: at most 2 _MEMORY n floats beside the
    # k x k matrices, where pairs of (du, dr, P^-1 dr) held 3 _MEMORY n
    memories = []
    build = solvers._CompactMemory

    def capture(n):
        memories.append(build(n))
        return memories[-1]

    monkeypatch.setattr(solvers, "_CompactMemory", capture)
    params = Params(d=0.0632)
    grid = default_grid_policy(params)
    n = grid.n_interior
    assert n > solvers._DENSE_INTERIOR
    result = solve_least_energy(params, grid)
    [memory] = memories
    assert len(memory) == solvers._MEMORY  # a full ring at the end
    assert memory.block.size == 2 * solvers._MEMORY * n
    # beside the block and views of it, k x k matrices and vectors of k
    arrays = [v for v in vars(memory).values() if isinstance(v, np.ndarray)]
    views = [v for v in arrays if np.shares_memory(v, memory.block)]
    assert all(v is memory.block or v.base is memory.block for v in views)
    others = [v for v in arrays if not np.shares_memory(v, memory.block)]
    assert max(v.size for v in others) == solvers._MEMORY**2 < n


def _reference_descent(
    u0, apply, precondition, fold, h, p, residual, config, history
):
    """The descent loop before its trials turned lazy: the bitwise oracle.

    A copy of the earlier ``solvers._nehari_descent`` body, which forms
    t0 v and t0 Av for every trial and reads ``fold``'s result through
    ``np.array_equal``, with the L-BFGS direction from the initial
    inverse Hessian gamma P^-1, one P^-1 of the residual per iteration,
    and its reset to the residual added; the direction comes from
    ``_ListMemory``.  Each inner product is one dot scaled by the grid
    spacing ``h``, a quadratic part h v.(Av + v), and the potential is
    h * float(np.sum(v^(p+1))).
    """

    def scaled(v, av, quad):
        """t0 v, t0 Av and the ray-sup energy of the folded field ``v``."""
        pot = h * float(np.sum(v ** (p + 1.0)))
        if pot <= 0.0 or not math.isfinite(pot):
            raise ConvergenceError("iterate collapsed to the trivial limit", history)
        t0, peak = _nehari_ray(quad, pot, p)
        return t0 * v, t0 * av, peak

    def project(v):
        av = apply(v)
        return scaled(v, av, h * float(np.dot(v, av + v)))

    def search(q, rq, alpha):
        # the quadratic part of u - alpha q is q0 - 2 alpha q1 + alpha^2 q2,
        # with u.Aq = q.Au by the symmetry of A
        aq = apply(q)
        q0 = h * float(np.dot(u, au + u))
        q1 = h * float(np.dot(u, aq + q))
        q2 = h * float(np.dot(q, aq + q))
        floor = 1e-14 * alpha
        while alpha > floor:
            v = u - alpha * q
            w = fold(v)
            if np.array_equal(w, v):
                quad = q0 - 2.0 * alpha * q1 + alpha * alpha * q2
                trial = scaled(v, au - alpha * aq, quad)
            else:
                trial = project(w)
            # near the energy's round-off floor descent cannot be
            # strict; a one-round-off band lets the step polish the
            # residual while staying non-increasing to within 1e-14
            tpeak = trial[2]
            if tpeak <= peak - 1e-4 * alpha * rq or tpeak <= peak * (1.0 + 1e-14):
                return trial
            alpha *= 0.5
        return None

    u, au, peak = project(fold(u0))
    peaks = [peak]
    memory = _ListMemory()
    prev_u: np.ndarray | None = None
    prev_r: np.ndarray | None = None
    prev_pr: np.ndarray | None = None
    step = solvers._FIRST_STEP

    for it in range(config.max_iters):
        r, size, converged = residual(u, au)
        if converged:
            return u, au, it, size, np.array(peaks)

        pr = precondition(r)
        if prev_u is not None:
            du, dr = u - prev_u, r - prev_r
            denom = float(np.dot(du, dr))
            if denom > 0.0:
                step = min(max(float(np.dot(du, du)) / denom, 1e-6), 1e3)
                memory.append(du, dr, pr - prev_pr)
        prev_u, prev_r, prev_pr = u, r, pr

        trial = None
        if memory:
            q = memory.direction(r, pr)
            rq = h * float(np.dot(r, q))
            if rq > 0.0:
                trial = search(q, rq, 1.0)
        if trial is None:
            memory.clear()
            trial = search(r, h * float(np.dot(r, r)), step)
        if trial is None:
            raise ConvergenceError(
                f"step rejected at iteration {it} (residual {size:.3e})", history
            )
        u, au, peak = trial
        peaks.append(peak)

    raise ConvergenceError(
        f"no convergence after {config.max_iters} iterations "
        f"(last residual {history[-1]:.3e})",
        history,
    )


def _bitwise(a, b) -> bool:
    bits = (np.asarray(x, dtype=np.float64).tobytes() for x in (a, b))
    return next(bits) == next(bits)


def _reference_operator(u_int, full, table):
    """``_neumann_operator`` with its interior means taken by ``np.mean``."""
    lo, hi = table.grid.interior_range
    n = table.grid.n_nodes
    pair = u_int * table.row_sums(lo, hi, 0, n) - table.matvec(full, lo, hi, 0, n)
    tv = table.tail[lo:hi] * (u_int - float(np.mean(u_int)))
    return pair + (tv - float(np.mean(tv)))


@pytest.mark.parametrize("case", ["bump", "clipping warm start", "line"])
def test_descent_keeps_the_bits_of_the_reference_loop(monkeypatch, case):
    # every descent of the solve also runs through the oracle, on the
    # reference operator and quadrature, the same fold and the solve's
    # residual; (u, A u, iterations, size, peaks) must agree bit for
    # bit, clipped trials included
    if case == "line":
        params, grid = Params(d=1.0), build_line_grid(40.0, 0.1)
        table = kernel_weights(grid, params)

        def reference_apply(v):
            return frac_laplacian_apply(v, table)

    else:
        params = Params(d=0.2)
        grid = default_grid_policy(params)
        table = kernel_weights(grid, params)
        dc = params.d * table.c_ns

        def reference_apply(v):
            return dc * _reference_operator(v, _extension(v, table), table)

    runs = []
    descent = solvers._nehari_descent

    def both(u0, apply, precondition, fold, h, p, residual, config, history):
        clipped = []

        def counting_fold(v):
            w = fold(v)
            clipped.append(not np.array_equal(w, v))
            return w

        want = _reference_descent(
            u0, reference_apply, precondition, counting_fold, h, p, residual,
            config, [],
        )
        got = descent(
            u0, apply, precondition, fold, h, p, residual, config, history
        )
        runs.append((got, want, sum(clipped)))
        return got

    monkeypatch.setattr(solvers, "_nehari_descent", both)
    if case == "line":
        solve_ground_state(params, grid)
    else:
        warm = None
        if case == "clipping warm start":
            warm = 0.5 + np.random.default_rng(5).uniform(0.0, 1.0, grid.n_interior)
            warm[10] = 0.0
        solve_least_energy(params, grid, warm=warm)
    [(got, want, clipped)] = runs
    # L-BFGS steps from the nonnegative bump stay in the cone; the
    # other two starts clip, so clipped trials are compared too
    assert (clipped > 0) == (case != "bump")
    u, au, iterations, size, peaks = got
    assert iterations == want[2] and _bitwise(size, want[3])
    for a, b in ((u, want[0]), (au, want[1]), (peaks, want[4])):
        assert a.shape == b.shape and _bitwise(a, b)


def test_ground_state_figures_are_those_of_the_returned_field(ground):
    # the whole-space twin: F and the Pohozaev ratio recomputed from
    # ``result.w`` give the same bits
    params = Params(d=1.0)
    p, s = params.p, params.s
    table = kernel_weights(ground.grid, params)
    w = ground.w
    h = ground.grid.h
    assert ground.F_value == F_energy(w, p, table)
    form = h * float(np.sum(w * frac_laplacian_apply(w, table)))
    mass = h * float(np.sum(w * w))
    pot = h * float(np.sum(np.abs(w) ** (p + 1.0)))
    terms = ((0.5 - s) * form, 0.5 * mass, pot / (p + 1.0))
    largest = max(abs(term) for term in terms)
    assert ground.pohozaev_residual == abs(pohozaev(w, p, table)) / largest


def test_energy_is_minimal_among_random_rays(solved_02, domain_02):
    params, grid, table = domain_02
    rng = np.random.default_rng(7)
    for _ in range(30):
        ray = np.abs(rng.standard_normal(grid.n_interior)) + 1e-3
        ext = extend(ray, table)
        assert peak_energy(ext, params, table) >= solved_02.c_d - 1e-8


def test_warm_start_reconverges_immediately(solved_02, domain_02):
    params, grid, _ = domain_02
    again = solve_least_energy(params, grid, warm=solved_02.u)
    assert again.c_d == pytest.approx(solved_02.c_d, rel=1e-10)
    assert again.iterations <= 5


def test_transplant_start_finds_the_same_solution(ground, solved_02, domain_02):
    params, grid, _ = domain_02
    warm = transplant_ground_state(ground, grid.interior_nodes, params)
    other = solve_least_energy(params, grid, warm=warm)
    assert not other.constant_branch
    assert other.c_d == pytest.approx(solved_02.c_d, rel=1e-8)


def test_start_without_warm_is_the_boundary_bump(solved_02, domain_02):
    params, grid, table = domain_02
    sigma = max(2.0 * grid.h, params.intrinsic_scale)
    bump = np.exp(-(((grid.interior_nodes - grid.a) / sigma) ** 2))
    want = peak_energy(extend(bump, table), params, table)
    assert solved_02.peak_history[0] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_initializer_preconditions(domain_02):
    params, grid, _ = domain_02
    with pytest.raises(ValueError, match="warm field length"):
        solve_least_energy(params, grid, warm=np.ones(grid.n_interior - 1))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_warm_start_is_refused(ground, domain_02, bad):
    # refused before any work, by the library and by a sweep whose
    # transplanted ground state carries the bad value
    params, grid, _ = domain_02
    warm = np.ones(grid.n_interior)
    warm[7] = bad
    with pytest.raises(ValueError, match="^warm field must be finite"):
        solve_least_energy(params, grid, warm=warm)
    broken = replace(ground, w=np.full_like(ground.w, bad))
    with pytest.raises(SweepAborted, match="warm field must be finite") as err:
        sweep([0.2], Params(), ground=broken)
    assert err.value.records == []


def test_the_solver_builds_its_own_table(domain_02):
    # the table follows from params and grid: one passed in is refused
    # before any work, and config and warm are keyword-only
    params, grid, table = domain_02
    with pytest.raises(TypeError):
        solve_least_energy(params, grid, table)
    with pytest.raises(TypeError):
        solve_least_energy(params, grid, SolverConfig())


def test_grid_must_resolve_the_intrinsic_scale():
    params = Params(d=0.05)
    grid = build_grid(0.0, 1.0, 0.02, 2.0)
    with pytest.raises(ValueError):
        solve_least_energy(params, grid)


# ---------------------------------------------------------------------------
# grid policy and sweep records


def test_default_grid_policy_tracks_the_intrinsic_scale():
    params = Params(d=0.05)
    grid = default_grid_policy(params)
    assert grid.a == 0.0 and grid.b == 1.0
    assert grid.h <= min(0.02, params.intrinsic_scale / 10.0) * (1.0 + 1e-12)
    assert grid.r_ext == pytest.approx(2.0, rel=1e-12)


def test_default_grid_policy_refuses_a_grid_above_the_node_cap():
    # the default ladder's finest grid is a 33rd of the cap; d = 1e-4
    # would need 5e9 nodes and is refused before any array is made
    assert default_grid_policy(Params(d=0.02)).n_nodes == 125_000
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^at d = 0\.0001 the spacing 1e-09 "):
            default_grid_policy(Params(d=1e-4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("d, cells", [(2.0, 9), (0.5, 9), (0.05, 400)])
def test_default_grid_policy_fills_a_short_domain(d, cells):
    # h = 0.02 gives 5 cells on (0, 0.1), and build_grid needs more than 8
    params = Params(d=d)
    grid = default_grid_policy(params, 0.0, 0.1)
    assert grid.n_interior == cells
    result = solve_least_energy(params, grid)
    assert result.nehari_residual <= 1e-6 and result.flux_residual <= 1e-6


def test_default_grid_policy_names_a_d_whose_scale_underflows():
    with pytest.raises(ValueError, match=r"underflows to 0 at d = 1e-300$"):
        default_grid_policy(Params(d=1e-300))


def test_record_carries_raw_integrals(solved_02, domain_02):
    params, grid, _ = domain_02
    record = record_from_result(solved_02, params)
    ui = solved_02.u
    assert record.lr_norms["L1"] == pytest.approx(
        grid.h * float(np.sum(ui)), rel=1e-14
    )
    assert record.lr_norms["L2"] == pytest.approx(
        grid.h * float(np.sum(ui**2)), rel=1e-14
    )
    assert list(record.lr_norms) == ["L0.5", "L1", "L2", "Lp1", "L4"]
    assert record.lr_norms["Lp1"] == pytest.approx(
        grid.h * float(np.sum(ui ** (params.p + 1.0))), rel=1e-14
    )
    assert record.sup_u > 1.0
    assert 0.0 <= record.dist_boundary <= 0.5


def test_sweep_crosses_the_transition():
    records = sweep([0.5, 0.35, 0.18], Params())
    assert [r.constant_branch for r in records] == [True, True, False]
    assert records[-1].c_d < records[0].c_d
    assert records[-1].sup_u > 1.0


def test_sweep_requires_strictly_decreasing_d():
    with pytest.raises(ValueError):
        sweep([0.1, 0.2], Params())
    assert sweep([], Params()) == []


def test_aborted_sweep_preserves_finished_records():
    def fragile_policy(params):
        if params.d < 0.3:
            raise ValueError("no grid for you")
        return default_grid_policy(params)

    with pytest.raises(SweepAborted) as err:
        sweep([0.4, 0.2], Params(), grid_policy=fragile_policy)
    assert len(err.value.records) == 1
    assert err.value.records[0].constant_branch


def test_sweep_warm_start_is_the_stretched_previous_solution(monkeypatch):
    warms, results = [], []

    def spy(*args, warm=None, **kwargs):
        warms.append(warm)
        results.append(solve_least_energy(*args, warm=warm, **kwargs))
        return results[-1]

    monkeypatch.setattr(solvers, "solve_least_energy", spy)
    sweep([0.2, 0.1363], Params())
    first, second = results
    assert warms[0] is None and not first.constant_branch
    g0, g1 = first.grid, second.grid
    assert first.argmax_x - g0.a < g0.b - first.argmax_x  # anchor at a
    ratio = 0.2 ** 2.0 / 0.1363 ** 2.0  # eps = d^(1/2s) at s = 1/4
    want = np.interp(
        g1.a + (g1.interior_nodes - g1.a) * ratio,
        g0.interior_nodes,
        first.u,
    )
    assert np.array_equal(warms[1], want)


def test_stretched_start_anchors_at_the_nearer_end(solved_02, domain_02):
    params, grid, _ = domain_02
    xs = default_grid_policy(Params(d=0.1363)).interior_nodes
    scale, prev_scale = Params(d=0.1363).intrinsic_scale, params.intrinsic_scale
    at_a = _stretched_start(solved_02, prev_scale, xs, scale)
    # the mirror image of the solution peaks at b and is stretched about b
    mirrored = replace(
        solved_02,
        u=solved_02.u[::-1],
        argmax_x=grid.a + grid.b - solved_02.argmax_x,
    )
    at_b = _stretched_start(mirrored, prev_scale, xs, scale)
    want = np.interp(
        grid.b + (xs - grid.b) * (prev_scale / scale),
        grid.interior_nodes,
        solved_02.u[::-1],
    )
    assert np.array_equal(at_b, want)
    assert np.max(np.abs(at_b - at_a[::-1])) <= 1e-12 * np.max(at_a)
    assert np.argmax(at_b) == xs.size - 1 - np.argmax(at_a)


@pytest.mark.parametrize("s, p", [(0.25, 1.5), (0.4, 2.0)])
def test_sweep_records_match_stand_alone_solves(s, p):
    params = Params(s=s, p=p)
    ground = solve_ground_state(params, build_line_grid(40.0, 0.1))
    records = sweep([0.2, 0.1363, 0.0928], params, ground=ground)
    for record in records:
        pd = Params(s=s, p=p, d=record.d)
        grid = default_grid_policy(pd)
        warm = transplant_ground_state(ground, grid.interior_nodes, pd)
        alone = solve_least_energy(pd, grid, warm=warm)
        assert alone.c_d == pytest.approx(record.c_d, rel=1e-12, abs=0.0)
        assert alone.M_d == pytest.approx(record.sup_u, rel=1e-6, abs=0.0)
        assert alone.argmax_x == record.argmax_x
        assert alone.constant_branch == record.constant_branch


def test_the_benchmark_ladder_takes_few_descent_iterations(monkeypatch):
    # the quasi-Newton speed-up, guarded without a clock: the first 11
    # default-ladder points from the CLI's ground state took 678 Neumann
    # and 63 ground-state iterations with Barzilai-Borwein steps, 371 and
    # 34 with the L-BFGS direction from a scalar initial Hessian, 209 and
    # 22 from the kernel's circulant symbol with 5 pairs, and take 178
    # and 18 with 10; the ceilings leave about 15 % above those
    params = Params()
    ground = solve_ground_state(params, build_line_grid(*_GROUND_WINDOW))
    iterations = []

    def counting(*args, **kwargs):
        result = solve_least_energy(*args, **kwargs)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(solvers, "solve_least_energy", counting)
    sweep(np.geomspace(2.0, 0.02, 13)[:11], params, ground=ground)
    assert len(iterations) == 11
    assert sum(iterations) <= 205
    assert ground.iterations <= 21


def test_the_ground_state_near_p_one_takes_few_descent_iterations():
    # the preconditioner where the spectrum is widest, s = 0.45 near p = 1:
    # 277 iterations from a scalar initial Hessian, 59 from the symbol
    # with 5 pairs, 71 with 10
    params = Params(s=0.45, p=1.02)
    result = solve_ground_state(params, build_line_grid(*_GROUND_WINDOW))
    assert result.el_residual <= 1e-8
    assert result.iterations <= 80


# ---------------------------------------------------------------------------
# transplanted profiles


def test_transplant_interpolates_and_extends_by_the_decay_law(ground):
    params = Params(d=0.04)
    xs = (np.arange(256) + 0.5) / 256  # cell-centred: the left boundary is 0
    prof = transplant_ground_state(ground, xs, params)
    assert np.all(prof > 0.0)
    delta = params.intrinsic_scale
    y = xs / delta
    nodes = ground.grid.nodes
    inside = y <= float(nodes[-1])
    expect = np.interp(y[inside], nodes, ground.w)
    assert prof[inside] == pytest.approx(expect, rel=1e-14)
    edge = float(nodes[-1])
    ref = float(ground.w[-1])
    outside = ~inside
    expect_tail = ref * (edge / y[outside]) ** (1.0 + 2.0 * params.s)
    assert prof[outside] == pytest.approx(expect_tail, rel=1e-14)


def test_transplant_keeps_half_mass_at_the_boundary(ground):
    # centred at the left boundary, roughly half of each integral
    # survives inside the domain
    params = Params(d=0.02)
    grid = default_grid_policy(params)
    prof = transplant_ground_state(ground, grid.interior_nodes, params)
    delta = params.intrinsic_scale
    mass = grid.h * float(np.sum(prof**2)) / delta
    whole = ground.grid.h * float(np.sum(ground.w**2))
    assert mass == pytest.approx(whole / 2.0, rel=0.05)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the interface cross-term keeps the transplanted Nehari factor "
    "near 1.29 instead of 1, so |t0 - 1| grows as d shrinks; see README "
    '"Known expected failures"',
)
def test_transplant_nehari_factor_approaches_one(ground):
    gaps = []
    for d in (0.05, 0.03, 0.02):
        params = Params(d=d)
        grid = default_grid_policy(params)
        table = kernel_weights(grid, params)
        prof = transplant_ground_state(ground, grid.interior_nodes, params)
        ext = extend(prof, table)
        gaps.append(abs(nehari_scale(ext, params, table) - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]


# ---------------------------------------------------------------------------
# snapshots


def test_snapshot_round_trip_is_bit_exact(tmp_path, solved_02, domain_02):
    params, grid, table = domain_02
    path = str(tmp_path / "solution.txt")
    save_snapshot(path, solved_02, params)
    header, xs, vs = load_snapshot(path)
    assert header["s"] == params.s
    assert header["p"] == params.p
    assert header["d"] == params.d
    assert header["c_d"] == solved_02.c_d
    assert header["M_d"] == solved_02.M_d
    assert np.array_equal(xs, grid.nodes)
    # the collar rows are the fresh extension of the interior, bit for bit
    assert np.array_equal(vs, extend(solved_02.u, table).values)
    assert glob.glob(str(tmp_path / "*.tmp")) == []
    assert os.path.exists(path)


def _cli_ground(path):
    if cli_main(["ground", "--L", "40", "--h", "0.1", "--out", path]) != 0:
        raise OSError(f"fracneumann ground could not write {path}")


# every writer of an output file, called as writer(path, solved, params)
WRITERS = {
    "save_snapshot": save_snapshot,
    "write_sweep_csv": lambda path, solved, params: write_sweep_csv(
        path, [record_from_result(solved, params)]
    ),
    "cli-ground": lambda path, solved, params: _cli_ground(path),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_failed_write_leaves_no_temporary_file(tmp_path, solved_02, domain_02, writer):
    params, _, _ = domain_02
    target = tmp_path / "taken"
    target.mkdir()  # a directory cannot be replaced by the finished file
    with pytest.raises(OSError):
        WRITERS[writer](str(target), solved_02, params)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


@pytest.mark.parametrize("writer", WRITERS)
def test_outputs_get_the_mode_of_a_plain_open(tmp_path, solved_02, domain_02, writer):
    params, _, _ = domain_02
    with open(tmp_path / "plain", "w"):
        pass
    WRITERS[writer](str(tmp_path / "out"), solved_02, params)
    assert (tmp_path / "out").stat().st_mode == (tmp_path / "plain").stat().st_mode


@pytest.mark.parametrize(
    "body, line, match",
    [
        ("# s 0.25\n0.5 1.0\n", 1, "key = value"),
        ("# = 0.25\n0.5 1.0\n", 1, "key = value"),
        ("# s = quarter\n0.5 1.0\n", 1, "finite number"),
        ("# s = 0.25\n# s = 0.5\n0.5 1.0\n", 2, "new '# key"),
        ("# s = 0.25\n0.5 1.0\n# d = 1\n", 3, "above the data"),
        ("# s = 0.25\n0.5 1.0 2.0\n", 2, "node value"),
        ("# s = 0.25\n0.5\n", 2, "node value"),
        ("# s = 0.25\n\n0.5 one\n", 3, "finite number"),
        ("# s = 0.25\n0.5 nan\n", 2, "finite number"),
    ],
)
def test_snapshot_loader_rejects_malformed_lines(tmp_path, body, line, match):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    with pytest.raises(ValueError, match=match) as info:
        load_snapshot(str(path))
    assert f"{path}:{line}:" in str(info.value)


def test_snapshot_loader_rejects_files_without_data(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# s = 0.25\n")
    with pytest.raises(ValueError, match="no data rows") as info:
        load_snapshot(str(path))
    assert str(path) in str(info.value)
