"""Energy functionals: brute-force oracles, identities, Nehari algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracneumann import (
    ExtendedField,
    F_energy,
    Grid,
    J_d,
    KernelTable,
    Params,
    build_grid,
    build_line_grid,
    default_grid_policy,
    extend,
    frac_laplacian_apply,
    kernel_weights,
    nehari_scale,
    neumann_derivative,
    peak_energy,
    pohozaev,
    seminorm_T,
)
from fracneumann.energy import _neumann, _neumann_matrix, _neumann_operator
from fracneumann.neumann import _extension


def brute_force_cross_seminorm(values, grid, table):
    """Direct double loop over every ordered node pair in the cross set."""
    W = table.dense()
    total = 0.0
    for i in range(grid.n_nodes):
        for j in range(grid.n_nodes):
            if i == j:
                continue
            if not grid.interior[i] and not grid.interior[j]:
                continue
            total += W[i, j] * (values[i] - values[j]) ** 2
    lo, hi = grid.interior_range
    vi = values[lo:hi]
    mean = float(np.mean(vi))
    tail = 2.0 * float((vi - mean) ** 2 @ table.tail[lo:hi])
    return grid.h * (total + tail)


def toy_grid():
    nodes = np.array([0.5, 1.5, 2.5])
    return Grid(a=1.0, b=2.0, h=1.0, r_ext=1.0, nodes=nodes)


def random_extended(grid, table, seed, amplitude=1.0):
    rng = np.random.default_rng(seed)
    u = amplitude * np.abs(rng.standard_normal(grid.n_interior)) + 0.1
    return extend(u, table)


# ---------------------------------------------------------------------------
# cross-set seminorm


def test_toy_seminorm_hand_summed():
    g = toy_grid()
    t = kernel_weights(g, Params())
    u = ExtendedField(np.array([0.0, 1.0, 0.0]), g)
    w1 = 2.0 * (0.5**-0.5 - 1.5**-0.5)
    # ordered pairs (0,1), (1,0), (1,2), (2,1); the lone interior node
    # coincides with its own mean, so the tail term drops out
    assert seminorm_T(u, t) == pytest.approx(4.0 * w1, rel=1e-13)
    assert seminorm_T(u, t) == pytest.approx(
        brute_force_cross_seminorm(u.values, g, t), rel=1e-13
    )


def test_seminorm_matches_brute_force_on_random_fields():
    g = build_grid(0.0, 1.0, 0.1, 2.0)
    t = kernel_weights(g, Params())
    rng = np.random.default_rng(21)
    for _ in range(4):
        vals = rng.standard_normal(g.n_nodes)
        u = ExtendedField(vals, g)
        assert seminorm_T(u, t) == pytest.approx(
            brute_force_cross_seminorm(vals, g, t), rel=1e-11
        )


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(8, 400),
    s=st.floats(0.05, 0.45),
    bounds=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    d=st.floats(0.01, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_seminorm_identity_on_any_grid(n, s, bounds, d, seed):
    lo = min(int(bounds[0] * n), n - 1)
    hi = max(lo + 1, int(bounds[1] * n))
    h = 1.0 / n
    k = np.arange(n)
    inside = (k >= lo) & (k < hi)
    g = Grid(a=lo * h, b=hi * h, h=h, r_ext=1.0, nodes=(k + 0.5) * h)
    params = Params(s=s, d=d)
    t = kernel_weights(g, params)
    vals = np.random.default_rng(seed).uniform(0.0, 2.0, n)
    u = ExtendedField(vals, g)

    energy, quad, pot = _neumann(u, params, t)
    vi = vals[lo:hi]
    assert J_d(u, params, t) == energy
    assert energy == quad / 2.0 - pot / (params.p + 1.0)
    assert quad == pytest.approx(
        d * t.c_ns / 2.0 * seminorm_T(u, t) + h * float(np.sum(vi * vi)), rel=1e-15
    )
    # vectorised oracle: every ordered pair with at least one interior end
    W = t.dense()
    cross = inside[:, None] | inside[None, :]
    pairs = float(np.sum(W[cross] * ((vals[:, None] - vals[None, :]) ** 2)[cross]))
    tail = 2.0 * float((vi - np.mean(vi)) ** 2 @ t.tail[lo:hi])
    assert seminorm_T(u, t) == pytest.approx(h * (pairs + tail), rel=1e-11)


def _seminorm_with_doubled_cross_term(ext, table):
    """The seminorm assembled with 2 (v_E . W_EI v_I) as one product term."""
    grid = ext.grid
    lo, hi = grid.interior_range
    n = grid.n_nodes
    v = ext.values - float(np.mean(ext.values[lo:hi]))
    vi = v[lo:hi]
    conv = table.matvec(vi, 0, n, lo, hi)
    rs = table.row_sums(0, n, lo, hi)
    part_ii = 2.0 * (float((vi * vi) @ rs[lo:hi]) - float(vi @ conv[lo:hi]))
    part_ie = 0.0
    for c0, c1 in ((0, lo), (hi, n)):
        ve = v[c0:c1]
        part_ie += (
            float((vi * vi) @ table.row_sums(lo, hi, c0, c1))
            + float((ve * ve) @ rs[c0:c1])
            - 2.0 * float(ve @ conv[c0:c1])
        )
    tail = float((vi * vi) @ table.tail[lo:hi])
    return max(grid.h * (part_ii + 2.0 * part_ie + 2.0 * tail), 0.0)


def test_seminorm_of_a_fresh_extension_makes_one_product(monkeypatch):
    # seminorm_T keeps the bits of the doubled-term assembly, and every
    # call makes its own product
    g = build_grid(0.0, 1.0, 0.05, 2.0)
    t = kernel_weights(g, Params())
    ext = random_extended(g, t, 4)
    want = _seminorm_with_doubled_cross_term(ext, t)
    calls = []
    original = KernelTable.matvec

    def counting(self, *args):
        calls.append(args[1:])
        return original(self, *args)

    monkeypatch.setattr(KernelTable, "matvec", counting)
    assert seminorm_T(ext, t) == want
    assert len(calls) == 1
    # the field keeps no product: a second call makes its own again
    assert seminorm_T(ext, t) == want
    assert len(calls) == 2
    with pytest.raises(ValueError):
        ext.values[0] = 1.0


def test_seminorm_zero_iff_constant():
    g = build_grid(0.0, 1.0, 0.05, 2.0)
    t = kernel_weights(g, Params())
    const = ExtendedField(np.full(g.n_nodes, 4.2), g)
    assert seminorm_T(const, t) == 0.0
    bump = ExtendedField(np.full(g.n_nodes, 4.2) + np.eye(g.n_nodes)[30], g)
    assert seminorm_T(bump, t) > 0.0


def test_seminorm_translation_invariance():
    g = build_grid(0.0, 1.0, 0.05, 2.0)
    t = kernel_weights(g, Params())
    u = random_extended(g, t, 2)
    shifted = ExtendedField(u.values + 3.0, g)
    assert seminorm_T(shifted, t) == pytest.approx(seminorm_T(u, t), rel=1e-11)


def test_extension_minimizes_seminorm():
    g = build_grid(0.0, 1.0, 0.05, 2.0)
    t = kernel_weights(g, Params())
    rng = np.random.default_rng(17)
    v = np.abs(rng.standard_normal(g.n_interior))
    base_field = extend(v, t)
    base = seminorm_T(base_field, t)
    for _ in range(20):
        perturbed = base_field.values.copy()
        perturbed[~g.interior] += 0.3 * rng.standard_normal((~g.interior).sum())
        worse = seminorm_T(ExtendedField(perturbed, g), t)
        assert worse > base


# ---------------------------------------------------------------------------
# J_d


def test_unit_constant_energy_is_one_tenth():
    g = build_grid(0.0, 1.0, 0.05, 2.0)
    t = kernel_weights(g, Params())
    u = extend(np.ones(g.n_interior), t)
    energy, quad, pot = _neumann(u, Params(), t)
    assert seminorm_T(u, t) == 0.0
    assert quad == pytest.approx(1.0, rel=1e-13)
    assert pot == pytest.approx(1.0, rel=1e-13)
    assert energy == pytest.approx(0.1, rel=1e-12)
    assert J_d(u, Params(), t) == energy


def test_zero_field_energy_is_zero():
    g = build_grid(0.0, 1.0, 0.1, 2.0)
    t = kernel_weights(g, Params())
    zero = ExtendedField(np.zeros(g.n_nodes), g)
    assert _neumann(zero, Params(), t) == (0.0, 0.0, 0.0)
    assert J_d(zero, Params(), t) == 0.0


def test_energy_scales_polynomially_along_rays():
    g = build_grid(0.0, 1.0, 0.05, 2.0)
    t = kernel_weights(g, Params())
    p = Params()
    u = random_extended(g, t, 8)
    _, quad, pot = _neumann(u, p, t)
    for tt in (0.5, 1.0, 2.0):
        scaled = ExtendedField(tt * u.values, g)
        expected = tt**2 * quad / 2.0 - tt ** (p.p + 1.0) * pot / (p.p + 1.0)
        assert J_d(scaled, p, t) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(8, 400),
    s=st.floats(0.1, 0.45),
    bounds=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    d=st.floats(0.01, 2.0),
    p_frac=st.floats(0.0, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_residual_is_the_gradient_of_the_reduced_energy(n, s, bounds, d, p_frac, seed):
    # u -> J_d(extend(u)) over the interior values: its central difference
    # along e_k is h times the k-th residual entry, on any collars
    lo = min(int(bounds[0] * n), n - 2)
    hi = max(lo + 2, int(bounds[1] * n))
    h = 1.0 / n
    k = np.arange(n)
    g = Grid(a=lo * h, b=hi * h, h=h, r_ext=1.0, nodes=(k + 0.5) * h)
    p_max = (1.0 + s) / (1.0 - s)
    params = Params(s=s, d=d, p=1.1 + p_frac * (p_max - 1.1))
    t = kernel_weights(g, params)
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.1, 2.0, hi - lo)
    op = _neumann_operator(extend(u, t).values, t)
    grad = h * (params.d * t.c_ns * op + u - u**params.p)

    eps = 1e-6
    m = hi - lo
    for j in sorted({0, 1, m - 2, m - 1, *rng.integers(0, m, 4)}):
        e = np.zeros(m)
        e[j] = eps
        up = J_d(extend(u + e, t), params, t)
        down = J_d(extend(u - e, t), params, t)
        fd = (up - down) / (2.0 * eps)
        assert abs(fd - grad[j]) <= 1e-6 * np.max(np.abs(grad)), j


@pytest.mark.parametrize("a", [0.0, 3.0 / 64.0])
@pytest.mark.parametrize("n_interior", [50, 117, 128])
def test_neumann_matrix_is_the_reduced_operator(a, n_interior):
    # exactly symmetric, annihilates constants to round-off and applies
    # as the operator of the extension, also on a translated domain
    g = build_grid(a, a + 1.0, 1.0 / n_interior, 2.0)
    t = kernel_weights(g, Params())
    assert g.n_interior == n_interior
    R = _neumann_matrix(t)
    assert R.shape == (n_interior, n_interior)
    assert np.array_equal(R, R.T)
    scale = np.max(np.abs(R))
    assert np.max(np.abs(R @ np.ones(n_interior))) <= 1e-13 * scale
    rng = np.random.default_rng(n_interior)
    for v in (rng.uniform(0.0, 1.0, n_interior), rng.standard_normal(n_interior)):
        want = _neumann_operator(_extension(v, t), t)
        assert np.max(np.abs(R @ v - want)) <= 1e-13 * np.max(np.abs(want))


def _two_sided_matrix(table):
    """``_neumann_matrix`` with one M M^T for each collar side."""
    lo, hi = table.grid.interior_range
    n = table.n_nodes
    k = hi - lo
    inner = np.arange(lo, hi)
    den = table.row_sums(0, n, lo, hi)
    r = -table.omega[np.abs(inner[:, None] - inner)]
    for c0, c1 in ((0, lo), (hi, n)):
        if c0 < c1:
            m = table.omega[np.abs(inner[:, None] - np.arange(c0, c1))]
            m /= np.sqrt(den[c0:c1])
            r -= m @ m.T
    tail = table.tail[lo:hi]
    r -= np.add.outer(tail, tail) / k
    r += float(tail.sum()) / (k * k)
    r[np.diag_indices(k)] += table.row_sums(lo, hi, 0, n) + tail
    return r


@pytest.mark.parametrize("a", [0.0, 3.0 / 64.0])
@pytest.mark.parametrize("n_interior", [50, 117, 128])
def test_equal_collars_share_one_block(a, n_interior):
    # build_grid's collars are mirror images, so the right collar's
    # M M^T is the left one's reversed: the one-block assembly stays
    # exactly symmetric and matches the two-sided one to round-off
    g = build_grid(a, a + 1.0, 1.0 / n_interior, 2.0)
    lo, hi = g.interior_range
    assert lo == g.n_nodes - hi > 0
    t = kernel_weights(g, Params())
    R = _neumann_matrix(t)
    want = _two_sided_matrix(t)
    assert np.array_equal(R, R.T)
    assert np.max(np.abs(R - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("s", [0.25, 0.45])
@pytest.mark.parametrize(
    "lo, hi", [(5, 25), (3, 37), (0, 25), (15, 40)],
    ids=["collars-5-15", "collars-3-3", "no-left-collar", "no-right-collar"],
)
def test_neumann_matrix_on_hand_built_grids(lo, hi, s):
    # the dense path takes any grid with few interior nodes, not only
    # build_grid's equal collars: R stays exactly symmetric, annihilates
    # constants and applies as the operator of the extension on 40
    # nodes with unequal collars or none on one side
    n = 40
    h = 1.0 / n
    g = Grid(a=lo * h, b=hi * h, h=h, r_ext=1.0, nodes=(np.arange(n) + 0.5) * h)
    assert g.interior_range == (lo, hi)
    t = kernel_weights(g, Params(s=s))
    R = _neumann_matrix(t)
    assert R.shape == (hi - lo, hi - lo)
    assert np.array_equal(R, R.T)
    scale = np.max(np.abs(R))
    assert np.max(np.abs(R @ np.ones(hi - lo))) <= 1e-13 * scale
    rng = np.random.default_rng(lo + hi)
    for v in (rng.uniform(0.0, 1.0, hi - lo), rng.standard_normal(hi - lo)):
        want = _neumann_operator(_extension(v, t), t)
        assert np.max(np.abs(R @ v - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n_interior", [50, 250, 5384, 25000])
def test_reduced_operator_gives_the_form_at_production_size(n_interior):
    # on grids of 250, 1 250, 26 920 and 125 000 nodes: 2h u.op(u) is the
    # seminorm of the extension and u.op(r) = r.op(u), each to round-off
    # of the form's absolute terms (the value itself can cancel)
    g = build_grid(0.0, 1.0, 1.0 / n_interior, 2.0)
    t = kernel_weights(g, Params())
    lo, hi = g.interior_range
    rs = t.row_sums(lo, hi, 0, g.n_nodes)
    tail = t.tail[lo:hi]

    def op(v):
        return _neumann_operator(_extension(v, t), t)

    def terms(a, b):
        # h |a|.(|b| rs + W[I, :] ext|b| + T |b|): the size of h a.op(b)'s terms
        ab = np.abs(b)
        conv = t.matvec(_extension(ab, t), lo, hi, 0, g.n_nodes)
        return g.h * float(np.abs(a) @ (ab * rs + conv + tail * ab))

    rng = np.random.default_rng(11)
    u = 0.5 + rng.uniform(0.0, 1.0, g.n_interior)
    r = rng.standard_normal(g.n_interior)
    ou, o_r = op(u), op(r)
    semi = seminorm_T(extend(u, t), t)
    assert abs(2.0 * g.h * float(u @ ou) - semi) <= 1e-13 * 2.0 * terms(u, u)
    gap = abs(g.h * float(u @ o_r) - g.h * float(r @ ou))
    assert gap <= 1e-13 * (terms(u, r) + terms(r, u))


# ---------------------------------------------------------------------------
# Nehari scaling and peak energy


def test_nehari_scale_hand_example():
    g = build_grid(0.0, 1.0, 0.05, 2.0)
    t = kernel_weights(g, Params())
    u = extend(2.0 * np.ones(g.n_interior), t)
    # Q = 4, int u^2.5 = 2^2.5, p = 1.5 -> t0 = (4 / 2^2.5)^2 = 0.5
    assert nehari_scale(u, Params(), t) == pytest.approx(0.5, rel=1e-12)


def test_nehari_identity_is_fixed_point():
    g = build_grid(0.0, 1.0, 0.05, 2.0)
    t = kernel_weights(g, Params())
    p = Params()
    u = random_extended(g, t, 31)
    t0 = nehari_scale(u, p, t)
    projected = ExtendedField(t0 * u.values, g)
    assert nehari_scale(projected, p, t) == pytest.approx(1.0, rel=1e-10)


def test_nehari_scale_rejects_zero_field():
    g = build_grid(0.0, 1.0, 0.1, 2.0)
    t = kernel_weights(g, Params())
    with pytest.raises(ValueError, match="degenerate"):
        nehari_scale(ExtendedField(np.zeros(g.n_nodes), g), Params(), t)
    with pytest.raises(ValueError, match="degenerate"):
        peak_energy(ExtendedField(np.zeros(g.n_nodes), g), Params(), t)


@pytest.mark.parametrize("public", [nehari_scale, peak_energy])
def test_a_ray_past_the_float_range_is_a_value_error_naming_p(public):
    # at p = 1.001 the scale (Q/P)^1000 overflows: the power raised a
    # bare OverflowError out of both functions
    params = Params(d=0.2, p=1.001)
    g = default_grid_policy(params)
    t = kernel_weights(g, params)
    u = extend(np.exp(-((g.interior_nodes / 0.1) ** 2)), t)
    with pytest.raises(ValueError, match=r"float range at p = 1\.001$"):
        public(u, params, t)


def test_peak_energy_of_unit_constant():
    g = build_grid(0.0, 1.0, 0.05, 2.0)
    t = kernel_weights(g, Params())
    u = extend(np.ones(g.n_interior), t)
    assert peak_energy(u, Params(), t) == pytest.approx(0.1, rel=1e-12)


def test_peak_energy_depends_only_on_the_ray():
    g = build_grid(0.0, 1.0, 0.05, 2.0)
    t = kernel_weights(g, Params())
    p = Params()
    u = random_extended(g, t, 12)
    m = peak_energy(u, p, t)
    for c in (0.2, 3.0, 17.5):
        scaled = ExtendedField(c * u.values, g)
        assert peak_energy(scaled, p, t) == pytest.approx(m, rel=1e-10)


def test_peak_energy_closed_form_for_p_three_halves():
    # at p = 3/2: M = Q^5 / (10 int u^2.5 ^ 4)
    g = build_grid(0.0, 1.0, 0.05, 2.0)
    t = kernel_weights(g, Params())
    p = Params()
    u = random_extended(g, t, 40)
    _, quad, pot = _neumann(u, p, t)
    assert peak_energy(u, p, t) == pytest.approx(0.1 * quad**5 / pot**4, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(8, 400),
    s=st.floats(0.1, 0.45),
    bounds=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    d=st.floats(0.01, 2.0),
    p_frac=st.floats(0.0, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_peak_energy_nehari_algebra_on_any_grid(n, s, bounds, d, p_frac, seed):
    lo = min(int(bounds[0] * n), n - 1)
    hi = max(lo + 1, int(bounds[1] * n))
    h = 1.0 / n
    k = np.arange(n)
    g = Grid(a=lo * h, b=hi * h, h=h, r_ext=1.0, nodes=(k + 0.5) * h)
    p_max = (1.0 + s) / (1.0 - s)
    params = Params(s=s, d=d, p=1.1 + p_frac * (p_max - 1.1))
    t = kernel_weights(g, params)
    u = extend(np.random.default_rng(seed).uniform(0.1, 2.0, hi - lo), t)

    # peak_energy raises when direct and algebraic values disagree
    peak = peak_energy(u, params, t)
    t0 = nehari_scale(u, params, t)
    energy, quad, pot = _neumann(ExtendedField(t0 * u.values, g), params, t)
    assert peak == energy
    # t0 u lies on the Nehari manifold: Q(t0 u) = int |t0 u|^(p+1)
    assert quad == pytest.approx(pot, rel=1e-12)
    # and the peak is the sup of the energy along the ray
    for c in (0.5, 0.9, 1.1, 2.0):
        off = J_d(ExtendedField(c * t0 * u.values, g), params, t)
        assert off <= peak * (1.0 + 1e-12)


def test_ray_energy_is_unimodal():
    g = build_grid(0.0, 1.0, 0.05, 2.0)
    t = kernel_weights(g, Params())
    p = Params()
    for seed in (1, 2, 3):
        u = random_extended(g, t, seed)
        _, quad, pot = _neumann(u, p, t)
        ts = np.logspace(-2, 2, 200)
        g_vals = ts**2 * quad / 2.0 - ts ** (p.p + 1.0) * pot / (p.p + 1.0)
        interior_max = (g_vals[1:-1] > g_vals[:-2]) & (g_vals[1:-1] > g_vals[2:])
        assert int(interior_max.sum()) == 1


# ---------------------------------------------------------------------------
# whole-space functionals


def brute_force_line_form(v, table):
    W = table.dense()
    pair = 0.0
    n = v.shape[0]
    for i in range(n):
        for j in range(n):
            if i != j:
                pair += W[i, j] * (v[i] - v[j]) ** 2
    edges = float(np.sum(np.diff(v) ** 2))
    tail = float((v * v) @ table.tail)
    return table.h * (pair + 2.0 * table.pv_coeff * edges + 2.0 * tail)


def test_whole_space_quadratic_form_matches_operator():
    lg = build_line_grid(10.0, 0.1)
    t = kernel_weights(lg, Params())
    rng = np.random.default_rng(3)
    v = rng.standard_normal(lg.n_nodes) * np.exp(-np.abs(lg.nodes))
    # h * v . Lv = (c/2) * double integral, by symmetry of the form
    lhs = t.h * float(v @ frac_laplacian_apply(v, t))
    rhs = t.c_ns / 2.0 * brute_force_line_form(v, t)
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_whole_space_energy_zero_and_positive_cases():
    lg = build_line_grid(20.0, 0.05)
    t = kernel_weights(lg, Params())
    p = Params()
    assert F_energy(np.zeros(lg.n_nodes), p.p, t) == 0.0
    tiny = 1e-3 * np.exp(-lg.nodes**2)
    assert F_energy(tiny, p.p, t) > 0.0
    assert pohozaev(np.zeros(lg.n_nodes), p.p, t) == 0.0
    small = 1e-2 * np.exp(-lg.nodes**2)
    assert pohozaev(small, p.p, t) > 0.0


@pytest.mark.parametrize("s", [0.15, 0.25, 0.45])
def test_whole_space_energy_brute_force_small_grid(s):
    # the pair sums with the one-sided end rows of the second-difference
    # rule, against F and P taken from the operator's own form
    lg = build_line_grid(6.0, 0.1)
    p = Params(s=s)
    t = kernel_weights(lg, p)
    rng = np.random.default_rng(14)
    v = rng.standard_normal(lg.n_nodes) * np.exp(-np.abs(lg.nodes))
    h = lg.h
    form = brute_force_line_form(v, t)
    expected = 0.5 * (
        t.c_ns / 2.0 * form + h * float(np.sum(v * v))
    ) - h * float(np.sum(np.abs(v) ** 2.5)) / 2.5
    assert F_energy(v, p.p, t) == pytest.approx(expected, rel=1e-11)
    expected_p = (
        (1.0 - 2.0 * s) * t.c_ns / 4.0 * form
        + 0.5 * h * float(np.sum(v * v))
        - h * float(np.sum(np.abs(v) ** 2.5)) / 2.5
    )
    assert pohozaev(v, p.p, t) == pytest.approx(expected_p, rel=1e-11)


def test_whole_space_input_validation():
    lg = build_line_grid(5.0, 0.1)
    t = kernel_weights(lg, Params())
    g = build_grid(0.0, 1.0, 0.1, 2.0)
    tg = kernel_weights(g, Params())
    with pytest.raises(ValueError, match="line grid"):
        F_energy(np.ones(g.n_nodes), 1.5, tg)
    with pytest.raises(ValueError, match="grids do not match"):
        seminorm_T(ExtendedField(np.ones(g.n_nodes), g), t)


@pytest.mark.parametrize(
    "entry", ["F_energy", "pohozaev", "frac_laplacian_apply", "neumann_derivative"]
)
def test_non_finite_input_fails_loudly(entry):
    # one NaN among the nodal values raises instead of propagating
    line = kernel_weights(build_line_grid(5.0, 0.1), Params())
    box = kernel_weights(build_grid(0.0, 1.0, 0.1, 2.0), Params())
    calls = {
        "F_energy": lambda v: F_energy(v, 1.5, line),
        "pohozaev": lambda v: pohozaev(v, 1.5, line),
        "frac_laplacian_apply": lambda v: frac_laplacian_apply(v, line),
        "neumann_derivative": lambda v: neumann_derivative(v, box, 0),
    }
    v = np.ones((box if entry == "neumann_derivative" else line).n_nodes)
    v[v.size // 3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        calls[entry](v)
