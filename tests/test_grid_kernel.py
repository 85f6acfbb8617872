"""Grid layout, kernel constants, weight tables and the discrete operator."""

import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft, integrate, special

from fracneumann import (
    ExtendedField,
    F_energy,
    GroundStateResult,
    Grid,
    KernelTable,
    LeastEnergyResult,
    LineGrid,
    Params,
    build_grid,
    build_line_grid,
    default_grid_policy,
    frac_laplacian_apply,
    kernel_weights,
    normalizing_constant,
)
from fracneumann.kernel import (
    _exact_mean,
    _fast_len,
    _symbol_inverse,
    _symbol_inverse_matrix,
    _zeta,
)


def gamma_constant(n, s):
    # Independent oracle: the classical closed form
    # c = s 4^s Gamma(n/2 + s) / (pi^(n/2) Gamma(1 - s)).
    return (
        s
        * 4.0**s
        * special.gamma(n / 2.0 + s)
        / (math.pi ** (n / 2.0) * special.gamma(1.0 - s))
    )


def quadrature_constant(n, s):
    """Independent oracle: the defining integral by adaptive quadrature.

    1 / int_{R^n} (1 - cos(z_1)) / |z|^(n+2s) dz, with the transverse
    directions integrated out analytically, leaving a one-dimensional
    integral split into a smooth head on (0, pi) with the algebraic
    endpoint weight handled exactly, an exact power-law piece and an
    oscillatory Fourier tail.
    """

    def head_f(t):
        # (1 - cos t) / t^2 in the half-angle form, which never cancels
        if t < 1e-12:
            return 0.5
        r = math.sin(0.5 * t) / t
        return 2.0 * r * r

    head, head_err = integrate.quad(
        head_f, 0.0, math.pi,
        weight="alg", wvar=(1.0 - 2.0 * s, 0.0),
        epsabs=1e-13, epsrel=1e-12, limit=200,
    )
    power = math.pi ** (-2.0 * s) / (2.0 * s)
    osc, osc_err = integrate.quad(
        lambda t: t ** (-1.0 - 2.0 * s), math.pi, np.inf,
        weight="cos", wvar=1.0, epsabs=1e-13, limit=400,
    )
    line = 2.0 * (head + power - osc)
    assert 2.0 * (head_err + osc_err) <= 1e-8 * abs(line), (n, s)
    transverse = (
        math.pi ** ((n - 1) / 2.0)
        * special.gamma((1.0 + 2.0 * s) / 2.0)
        / special.gamma((n + 2.0 * s) / 2.0)
    )
    return 1.0 / (transverse * line)


def truncated_operator(x, k, s, half_width, c):
    """Adaptive-quadrature evaluation of the window-truncated operator.

    Computes c * [ PV int_{|y| <= L} (cos kx - cos ky) |x-y|^(-1-2s) dy
    + cos(kx) * (mass of the kernel beyond the window) ], which is the
    continuum object the discrete scheme approximates on a zero-extended
    window.  For s < 1/2 the integral is absolutely convergent; the
    singular factor is handled by an algebraic quadrature weight.
    """
    L = half_width

    def f_right(y):
        d = y - x
        if abs(d) < 1e-14:
            return k * math.sin(k * x)
        return (math.cos(k * x) - math.cos(k * y)) / d

    def f_left(y):
        d = x - y
        if abs(d) < 1e-14:
            return -k * math.sin(k * x)
        return (math.cos(k * x) - math.cos(k * y)) / d

    right, _ = integrate.quad(
        f_right, x, L, weight="alg", wvar=(-2 * s, 0.0),
        epsabs=1e-12, epsrel=1e-11, limit=400,
    )
    left, _ = integrate.quad(
        f_left, -L, x, weight="alg", wvar=(0.0, -2 * s),
        epsabs=1e-12, epsrel=1e-11, limit=400,
    )
    beyond = ((x + L) ** (-2 * s) + (L - x) ** (-2 * s)) / (2 * s)
    return c * (right + left + math.cos(k * x) * beyond)


# ---------------------------------------------------------------------------
# parameters


def test_params_defaults_and_derived_exponents():
    p = Params()
    assert (p.s, p.p, p.d) == (0.25, 1.5, 1.0)
    assert p.p_max_neumann == pytest.approx(5.0 / 3.0)
    assert p.p_max_whole_space == pytest.approx(3.0)
    assert p.intrinsic_scale == pytest.approx(1.0)
    assert Params(d=0.04).intrinsic_scale == pytest.approx(0.04**2)


def test_params_rejects_bad_values():
    with pytest.raises(ValueError):
        Params(s=0.0)
    with pytest.raises(ValueError):
        Params(s=1.0)
    with pytest.raises(ValueError, match=r"must lie in \(0, 1/2\), got 0.5"):
        Params(s=0.5)  # n > 2s fails at n = 1
    with pytest.raises(ValueError):
        Params(p=1.0)
    with pytest.raises(ValueError):
        Params(d=0.0)
    with pytest.raises(TypeError):
        Params(n=1)  # every solve runs at n = 1; only MoserParams takes n


def test_params_exponent_gates():
    Params(p=1.5).require_neumann_exponent()  # 1.5 < 5/3
    with pytest.raises(ValueError):
        Params(p=1.7).require_neumann_exponent()
    Params(p=1.7).require_whole_space_exponent()  # 1.7 < 3
    with pytest.raises(ValueError):
        Params(p=3.2).require_whole_space_exponent()


# ---------------------------------------------------------------------------
# grids


def test_build_grid_small_example():
    g = build_grid(0.0, 1.0, 0.1, 2.0)
    # the collar of 2.0 a side: cell centres from -1.95 to 2.95
    assert (g.nodes[0], g.nodes[-1]) == pytest.approx((-1.95, 2.95))
    assert g.n_interior == 10
    # cell-centered: domain endpoints fall midway between adjacent nodes
    assert not np.any(np.isclose(g.nodes, 0.0))
    assert not np.any(np.isclose(g.nodes, 1.0))
    inside = (g.nodes > 0.0) & (g.nodes < 1.0)
    assert np.array_equal(g.interior, inside)
    # the collar defaults to its minimum 2(b - a), on the same shared grid
    assert build_grid(0.0, 1.0, 0.1) is g
    # a hand-built grid derives the same read-only mask from (a, b)
    hand = Grid(a=0.0, b=1.0, h=g.h, r_ext=2.0, nodes=np.array(g.nodes))
    assert np.array_equal(hand.interior, inside)
    assert hand.interior_range == g.interior_range == (20, 30)
    assert not hand.interior.flags.writeable
    with pytest.raises(TypeError):
        Grid(a=0.0, b=1.0, h=g.h, r_ext=2.0, nodes=g.nodes, interior=inside)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 500), seed=st.integers(0, 2**32 - 1))
def test_integrate_is_the_midpoint_rule_bitwise(n, seed):
    rng = np.random.default_rng(seed)
    f = rng.uniform(-2.0, 3.0, n) * 10.0 ** rng.integers(-8, 8)
    h = float(rng.uniform(1e-3, 1.0))
    g = Grid(a=0.0, b=n * h, h=h, r_ext=1.0, nodes=(np.arange(-1, n + 1) + 0.5) * h)
    lg = LineGrid(half_width=n * h, h=h, nodes=(np.arange(-n, n) + 0.5) * h)
    for grid in (g, lg):
        got = grid.integrate(f)
        assert type(got) is float
        assert got == grid.h * float(np.sum(f)) == float(grid.h * np.sum(f))


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


# numpy sums float64 runs pairwise in blocks of 128, unrolled by 8; the
# lengths around those edges are where a different reduction would show
_BLOCK_EDGES = [1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257, 1025]


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.sampled_from(_BLOCK_EDGES), st.integers(1, 20_000)),
    seed=st.integers(0, 2**32 - 1),
    spread=st.integers(0, 300),
)
def test_reductions_keep_numpys_bits(n, seed, spread):
    # Grid.integrate reduces with np.add.reduce and the descent's means
    # divide a .sum() by the size, both to skip numpy's Python-level
    # dispatch; each must give the bits of np.sum and np.mean
    rng = np.random.default_rng(seed)
    exponents = rng.integers(-spread, spread + 1, n).clip(-300, 290)
    f = rng.standard_normal(n) * 10.0**exponents
    h = float(rng.uniform(1e-3, 1.0))
    g = Grid(a=0.0, b=h, h=h, r_ext=h, nodes=np.array([-0.5, 0.5, 1.5]) * h)
    got = g.integrate(f)
    assert type(got) is float
    assert _bits(got) == _bits(h * float(np.sum(f)))
    head = f[:50].tolist()
    assert _bits(g.integrate(head)) == _bits(h * float(np.sum(head)))
    assert _bits(float(f.sum()) / f.size) == _bits(float(np.mean(f)))
    assert _bits(_exact_mean(f)) == _bits(f[0] if n == 1 else float(np.mean(f)))
    assert _bits(_exact_mean(np.full(n, f[0]))) == _bits(f[0])


def test_build_grid_fine_example():
    g = build_grid(0.0, 1.0, 0.01, 4.0)
    assert g.n_interior == 100
    assert g.n_nodes - g.n_interior == 800


def test_build_grid_rejects_coarse_spacing():
    with pytest.raises(ValueError, match="coarse"):
        build_grid(0.0, 1.0, 0.5, 2.0)


def test_build_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_grid(1.0, 0.0, 0.1, 2.0)
    with pytest.raises(ValueError):
        build_grid(0.0, 1.0, 0.1, 1.0)  # collar thinner than 2(b-a)
    with pytest.raises(ValueError):
        build_grid(0.0, math.inf, 0.1, 2.0)
    with pytest.raises(ValueError):
        build_grid(0.0, 1.0, 0.013, 2.0)  # does not divide the interval


@pytest.mark.parametrize(
    "build, args",
    [
        (build_grid, (0.0, 1.0, 1e-7)),  # 5e7 nodes
        (build_grid, (0.0, 1.0, 0.01, 3e5)),  # a collar of 6e7 nodes
        (build_grid, (0.0, 1.0, 1e-320)),  # 1/h overflows to inf
        (build_line_grid, (60.0, 1e-6)),  # 1.2e8 nodes
        (build_line_grid, (1e300, 0.05)),
    ],
)
def test_grid_above_the_node_cap_is_refused_before_any_array(build, args):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="nodes, above the cap of 4194304$"):
            build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_grid_spacing_is_uniform():
    g = build_grid(-0.3, 0.7, 0.05, 2.5)
    steps = np.diff(g.nodes)
    assert np.max(np.abs(steps / g.h - 1.0)) < 1e-12
    lo, hi = g.interior_range
    assert np.all(g.interior[lo:hi])
    assert not np.any(g.interior[:lo]) and not np.any(g.interior[hi:])


def test_line_grid_is_symmetric():
    lg = build_line_grid(20.0, 0.05)
    assert lg.n_nodes == 800
    assert np.max(np.abs(lg.nodes + lg.nodes[::-1])) < 1e-12
    with pytest.raises(ValueError):
        build_line_grid(1.0, 0.5)


# ---------------------------------------------------------------------------
# normalizing constant


def test_normalizing_constant_half_is_one_over_pi():
    assert normalizing_constant(1, 0.5) == pytest.approx(1.0 / math.pi, rel=1e-10)


def test_normalizing_constant_matches_closed_form():
    for n in (1, 2, 3):
        for s in np.linspace(0.05, 0.95, 19):
            s = float(s)
            if 2 * s > n:
                continue
            got = normalizing_constant(n, s)
            assert got == pytest.approx(gamma_constant(n, s), rel=1e-14), (n, s)
            assert got == pytest.approx(quadrature_constant(n, s), rel=1e-12), (n, s)


def test_normalizing_constant_quarter_value_frozen():
    # 1 / (2 sqrt(2 pi)), from the closed form at n = 1, s = 1/4
    assert normalizing_constant(1, 0.25) == pytest.approx(
        0.19947114020071635, rel=1e-10
    )


def test_normalizing_constant_rejects_bad_parameters():
    with pytest.raises(ValueError):
        normalizing_constant(1, 0.999)
    with pytest.raises(ValueError):
        normalizing_constant(1, 0.0)
    with pytest.raises(ValueError):
        normalizing_constant(0, 0.25)
    with pytest.raises(ValueError):
        normalizing_constant(1.5, 0.25)
    with pytest.raises(ValueError, match="positive integer, got True"):
        normalizing_constant(True, 0.25)  # a bool is not a dimension


def test_constant_agrees_with_operator_to_1e6():
    # Richardson-extrapolate the discrete operator on cos(x) against an
    # independent quadrature of the same truncated integral; the implied
    # normalizing constant must match the quadrature value to 1e-6.
    s, k, L = 0.25, 1.0, 20.0
    p = Params(s=s)
    x0 = 0.35
    ratios = []
    for h in (0.02, 0.01, 0.005):
        lg = build_line_grid(L, h)
        table = kernel_weights(lg, p)
        i = int(np.argmin(np.abs(lg.nodes - x0)))
        out = frac_laplacian_apply(np.cos(k * lg.nodes), table)[[i]]
        # unit-constant quadrature of the same truncated integral, taken
        # at this resolution's own node (nested grids share no nodes)
        reference = truncated_operator(float(lg.nodes[i]), k, s, L, 1.0)
        ratios.append(float(out[0]) / reference)
    r1, r2, r3 = ratios
    c_implied = r3 + (r3 - r2) / 3.0  # h^2 Richardson
    c_quad = normalizing_constant(1, s)
    assert abs(c_implied / c_quad - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# weight tables


def test_adjacent_weight_closed_form():
    g = build_grid(0.0, 1.0, 0.1, 2.0)
    t = kernel_weights(g, Params())
    h, s = g.h, 0.25
    expected = ((h / 2) ** (-2 * s) - (3 * h / 2) ** (-2 * s)) / (2 * s)
    assert t.dense()[7, 8] == pytest.approx(expected, rel=1e-14)


def test_distant_weights_match_midpoint_rule():
    g = build_grid(0.0, 1.0, 0.01, 4.0)
    t = kernel_weights(g, Params())
    for m in (5, 8, 20, 100):
        midpoint = g.h * (m * g.h) ** (-1.5)
        assert abs(t.omega[m] / midpoint - 1.0) < 0.01, m


def test_weights_symmetric_and_positive():
    g = build_grid(0.0, 1.0, 0.1, 2.0)
    t = kernel_weights(g, Params())
    W = t.dense()
    assert np.array_equal(W, W.T)
    off = W[~np.eye(W.shape[0], dtype=bool)]
    assert np.all(off > 0) and np.all(np.isfinite(off))
    assert np.all(np.diag(W) == 0.0)


def test_row_sums_plus_tail_reproduce_kernel_mass():
    g = build_grid(0.0, 1.0, 0.05, 2.0)
    t = kernel_weights(g, Params())
    n = g.n_nodes
    mass = 2.0 * (g.h / 2.0) ** (-0.5) / 0.5
    totals = t.row_sums(0, n, 0, n) + t.tail
    assert np.max(np.abs(totals / mass - 1.0)) < 1e-8


def test_row_sum_helper_matches_dense_slices():
    g = build_grid(0.0, 1.0, 0.1, 2.0)
    t = kernel_weights(g, Params())
    W = t.dense()
    got = t.row_sums(3, 17, 5, 30)
    assert np.allclose(got, W[3:17, 5:30].sum(axis=1), rtol=1e-13)
    got_full = t.row_sums(0, g.n_nodes, 0, g.n_nodes)
    assert np.allclose(got_full, W.sum(axis=1), rtol=1e-13)


# ---------------------------------------------------------------------------
# discrete fractional Laplacian


def test_plane_wave_reproduces_symbol():
    s, k = 0.25, 1.0
    lg = build_line_grid(60.0, 0.01)
    t = kernel_weights(lg, Params(s=s))
    center = np.where(np.abs(lg.nodes) <= 20.0)[0]
    out = frac_laplacian_apply(np.cos(k * lg.nodes), t)[center]
    ref = abs(k) ** (2 * s) * np.cos(k * lg.nodes[center])
    assert np.max(np.abs(out - ref)) < 2e-2


def test_operator_second_order_against_quadrature():
    s, k, L = 0.25, 1.0, 20.0
    p = Params(s=s)
    errs = []
    for h in (0.01, 0.005, 0.0025):
        lg = build_line_grid(L, h)
        t = kernel_weights(lg, p)
        u = np.cos(k * lg.nodes)
        targets = [-7.3, -2.1, 0.4, 3.7, 9.9]
        idx = np.array([int(np.argmin(np.abs(lg.nodes - x))) for x in targets])
        out = frac_laplacian_apply(u, t)[idx]
        worst = max(
            abs(out[m] - truncated_operator(float(lg.nodes[i]), k, s, L, t.c_ns))
            for m, i in enumerate(idx)
        )
        errs.append(worst)
    order = math.log2(errs[0] / errs[2]) / 2.0
    assert order >= 1.8, errs


def test_odd_field_cancels_at_window_center():
    # grid chosen so one node sits exactly at the window midpoint x = 0
    g = build_grid(-0.5, 0.5, 1.0 / 9.0, 2.0)
    t = kernel_weights(g, Params())
    mid = int(np.argmin(np.abs(g.nodes)))
    assert g.nodes[mid] == 0.0
    out = frac_laplacian_apply(g.nodes.copy(), t)[[mid]]
    assert abs(out[0]) < 1e-13


def test_strict_interior_maximum_gives_positive_value():
    lg = build_line_grid(10.0, 0.1)
    t = kernel_weights(lg, Params())
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 25:
        v = rng.standard_normal(lg.n_nodes)
        i = int(np.argmax(v))
        if i in (0, lg.n_nodes - 1):
            continue
        out = frac_laplacian_apply(v, t)[[i]]
        assert out[0] > 0.0
        checked += 1


def test_apply_rejects_out_of_range_nodes():
    lg = build_line_grid(5.0, 0.1)
    t = kernel_weights(lg, Params())
    with pytest.raises(ValueError):
        frac_laplacian_apply(np.zeros(3), t)


def test_matvec_blocks_match_dense():
    g = build_grid(0.0, 1.0, 0.1, 2.0)
    t = kernel_weights(g, Params())
    W = t.dense()
    rng = np.random.default_rng(5)
    x = rng.standard_normal(18)
    got = t.matvec(x, 2, 40, 7, 25)
    assert np.allclose(got, W[2:40, 7:25] @ x, rtol=1e-13)
    with pytest.raises(ValueError):
        t.matvec(x, 2, 40, 7, 26)


@st.composite
def table_blocks(draw):
    """A table on 8-400 nodes with random row and column ranges."""
    n = draw(st.integers(8, 400))
    s = draw(st.floats(0.05, 0.45))
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo + 1, n))
    h = 1.0 / n
    nodes = (np.arange(n) + 0.5) * h
    grid = Grid(a=lo * h, b=hi * h, h=h, r_ext=1.0, nodes=nodes)
    r0 = draw(st.integers(0, n - 1))
    r1 = draw(st.integers(r0 + 1, n))
    c0 = draw(st.integers(0, n - 1))
    c1 = draw(st.integers(c0 + 1, n))
    seed = draw(st.integers(0, 2**32 - 1))
    return kernel_weights(grid, Params(s=s)), (r0, r1, c0, c1), seed


@settings(max_examples=60, deadline=None)
@given(table_blocks())
def test_matvec_matches_dense_on_any_block(case):
    t, (r0, r1, c0, c1), seed = case
    x = np.random.default_rng(seed).standard_normal(c1 - c0)
    got = t.matvec(x, r0, r1, c0, c1)
    want = t.dense()[r0:r1, c0:c1] @ x
    # FFT round-off is relative to the whole table, ||W||_inf ||x||_inf:
    # a block whose entries cancel has no entrywise relative accuracy.
    scale = float(np.max(t.row_sums(0, t.n_nodes, 0, t.n_nodes))) * np.max(np.abs(x))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


@settings(max_examples=60, deadline=None)
@given(table_blocks())
def test_row_sums_match_dense_on_any_block(case):
    t, (r0, r1, c0, c1), _ = case
    # the mask derived from (a, b) is the open-interval test, read-only
    g = t.grid
    assert np.array_equal(g.interior, (g.nodes > g.a) & (g.nodes < g.b))
    assert not g.interior.flags.writeable
    idx = np.flatnonzero(g.interior)
    assert g.interior_range == (idx[0], idx[-1] + 1)
    # a hand-built table keeps its own row sums of its own generator
    halved = KernelTable(
        grid=t.grid, s=t.s, c_ns=t.c_ns, omega=0.5 * t.omega, tail=t.tail,
        pv_coeff=t.pv_coeff,
    )
    assert halved.block_sums is not t.block_sums
    for table in (t, halved, t, halved):
        want = table.dense()[r0:r1, c0:c1].sum(axis=1)
        got = table.row_sums(r0, r1, c0, c1)
        # differences of prefix sums carry round-off relative to a full row
        scale = float(np.max(table.dense().sum(axis=1)))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
        assert not got.flags.writeable
        assert table.row_sums(r0, r1, c0, c1) is got


def test_hand_built_table_derives_its_own_generators():
    t = kernel_weights(build_grid(0.0, 1.0, 0.1, 2.0), Params())
    halved = KernelTable(
        grid=t.grid, s=t.s, c_ns=t.c_ns, omega=0.5 * t.omega, tail=t.tail,
        pv_coeff=t.pv_coeff,
    )
    n = t.n_nodes
    W = halved.dense()
    x = np.random.default_rng(2).standard_normal(n)
    err = np.max(np.abs(halved.matvec(x, 0, n, 0, n) - W @ x))
    assert err <= 1e-13 * float(np.max(W.sum(axis=1))) * np.max(np.abs(x))
    assert np.allclose(halved.row_sums(0, n, 0, n), W.sum(axis=1), rtol=1e-13)


def test_each_table_makes_its_spectra_once():
    p = Params()
    t = kernel_weights(build_grid(0.0, 1.0, 0.05, 2.0), p)
    for arr in (t.omega, t.tail):
        assert not arr.flags.writeable
    # spectra are made on first use, one per length, and kept after
    n = t.n_nodes
    lo, hi = t.grid.interior_range
    x = np.random.default_rng(4).standard_normal(n)
    first = t.matvec(x[lo:hi], 0, n, lo, hi), t.matvec(x, 0, n, 0, n)
    lengths = sorted(t.spectra)
    assert lengths == [
        fft.next_fast_len(2 * (n - lo) - 1, real=True),
        fft.next_fast_len(2 * n - 1, real=True),
    ]
    specs = [t.spectrum(length) for length in lengths]
    again = t.matvec(x[lo:hi], 0, n, lo, hi), t.matvec(x, 0, n, 0, n)
    assert sorted(t.spectra) == lengths
    for length, spec in zip(lengths, specs):
        assert t.spectrum(length) is spec
        assert not spec.flags.writeable
    assert all(np.array_equal(a, b) for a, b in zip(first, again))


def test_each_table_makes_one_row_sum_array_per_block():
    p = Params(d=0.2)
    t = kernel_weights(default_grid_policy(p), p)
    n = t.n_nodes
    lo, hi = t.grid.interior_range
    blocks = [(0, n, lo, hi), (lo, hi, 0, n), (lo, hi, 0, lo), (lo, hi, hi, n),
              (0, n, 0, n), (lo, hi, lo, hi)]
    W = t.dense()
    scale = float(np.max(W.sum(axis=1)))
    sums = [t.row_sums(*b) for b in blocks]
    for (r0, r1, c0, c1), got in zip(blocks, sums):
        assert t.row_sums(r0, r1, c0, c1) is got
        assert not got.flags.writeable
        want = W[r0:r1, c0:c1].sum(axis=1)
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
    # blocks of equal shape, such as the two collar blocks, never collide
    assert len({id(a) for a in sums}) == len(blocks)
    with pytest.raises(ValueError):
        sums[0][0] = 1.0


def test_equal_grids_build_bitwise_equal_tables():
    # tables hold no state across builds: equal (n, h, s), translated
    # domains included, give the same bits from arrays of their own
    p = Params(d=0.2)
    first = kernel_weights(default_grid_policy(p), p)
    again = kernel_weights(default_grid_policy(p), p)
    moved = kernel_weights(default_grid_policy(p, 0.25, 1.25), p)
    assert again.grid is first.grid and moved.grid is not first.grid
    n = first.n_nodes
    lo, hi = first.grid.interior_range
    x = np.random.default_rng(6).standard_normal(n)
    blocks = [(0, n, lo, hi), (lo, hi, 0, n), (lo, hi, 0, lo), (lo, hi, hi, n)]
    for other in (again, moved):
        assert other.spectra is not first.spectra
        assert other.block_sums is not first.block_sums
        assert other.omega is not first.omega and other.tail is not first.tail
        assert np.array_equal(other.omega, first.omega)
        assert np.array_equal(other.tail, first.tail)
        assert other.pv_coeff == first.pv_coeff and other.c_ns == first.c_ns
        for r0, r1, c0, c1 in blocks:
            assert np.array_equal(
                other.row_sums(r0, r1, c0, c1), first.row_sums(r0, r1, c0, c1)
            )
            assert np.array_equal(
                other.matvec(x[c0:c1], r0, r1, c0, c1),
                first.matvec(x[c0:c1], r0, r1, c0, c1),
            )


def test_equal_grid_arguments_share_one_read_only_grid():
    g = build_grid(0.0, 1.0, 0.05, 2.0)
    assert build_grid(0.0, 1.0, 0.05, 2.0) is g
    assert build_grid(0.0, 1.0, 0.05, 4.0) is not g
    for arr in (g.nodes, g.interior):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        g.nodes[0] = 1.0
    line = build_line_grid(60.0, 0.05)
    assert build_line_grid(60, 0.05) is line
    assert build_line_grid(60.0, 0.1) is not line
    assert not line.nodes.flags.writeable
    with pytest.raises(ValueError):
        line.nodes[0] = 1.0


def _scipy_fft_product(omega, x, row_lo, row_hi, col_lo, col_hi):
    """Reference: scipy.fft at the product's own length and placement."""
    reach = max(row_hi - 1 - col_lo, col_hi - 1 - row_lo)
    size = fft.next_fast_len(2 * reach + 1, real=True)
    base = min(row_lo, col_lo)
    k = min(omega.size, size // 2 + 1)
    gen = np.zeros(size)
    gen[:k] = omega[:k]
    gen[size - k + 1 :] = omega[k - 1 : 0 : -1]
    buf = np.zeros(size)
    buf[col_lo - base : col_hi - base] = x
    coeffs = fft.rfft(buf)
    coeffs *= fft.rfft(gen).real
    return fft.irfft(coeffs, size, overwrite_x=True)[row_lo - base : row_hi - base]


def _full_length_product(omega, x, row_lo, row_hi, col_lo, col_hi):
    """Independent oracle: numpy FFT at the full circulant length 2n - 1."""
    n = omega.size
    size = 2 * n - 1
    gen = np.concatenate((omega, omega[:0:-1]))
    buf = np.zeros(size)
    buf[col_lo:col_hi] = x
    y = np.fft.irfft(np.fft.rfft(buf) * np.fft.rfft(gen), size)
    return y[row_lo:row_hi]


@pytest.mark.parametrize("block", ["W[:, I]", "W[I, :]"])
def test_block_products_match_a_full_length_product_at_production_size(block):
    # d = 0.0431, the default sweep's eleventh point
    params = Params(d=float(np.geomspace(2.0, 0.02, 13)[10]))
    grid = default_grid_policy(params)
    assert grid.n_nodes == 26935
    t = kernel_weights(grid, params)
    n = t.n_nodes
    lo, hi = grid.interior_range
    ranges = (0, n, lo, hi) if block == "W[:, I]" else (lo, hi, 0, n)
    x = np.random.default_rng(7).standard_normal(ranges[3] - ranges[2])
    got = t.matvec(x, *ranges)
    want = _full_length_product(t.omega, x, *ranges)
    scale = float(np.max(t.row_sums(0, n, 0, n))) * np.max(np.abs(x))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * scale
    # numpy's pocketfft gives scipy.fft's bits at the same length
    assert np.array_equal(got, _scipy_fft_product(t.omega, x, *ranges))


def test_full_product_keeps_the_full_circulant_bitwise():
    lg = build_line_grid(60.0, 0.05)
    t = kernel_weights(lg, Params())
    n = t.n_nodes
    x = np.random.default_rng(8).standard_normal(n)
    want = _scipy_fft_product(t.omega, x, 0, n, 0, n)
    assert np.array_equal(t.matvec(x, 0, n, 0, n), want)


def _restricted_circulant_inverse(table, n, scale, pv):
    """Independent oracle: the first n rows and columns of C^-1, C dense.

    C = I + scale (diag(W 1) - W) + scale pv (2I - S - S^T) on the
    circulant W of the table's generator at length ``_fast_len(2n)``,
    with S the cyclic shift.
    """
    size = _fast_len(2 * n)
    omega = table.omega
    k = min(omega.size, size // 2 + 1)
    gen = np.zeros(size)
    gen[:k] = omega[:k]
    gen[size - k + 1 :] = omega[k - 1 : 0 : -1]
    idx = np.arange(size)
    w = gen[(idx[:, None] - idx[None, :]) % size]
    shift = np.roll(np.eye(size), 1, axis=1)
    c = np.eye(size) + scale * (np.diag(w.sum(axis=1)) - w)
    c += scale * pv * (2.0 * np.eye(size) - shift - shift.T)
    return np.linalg.inv(c)[:n, :n]


@pytest.mark.parametrize("case", ["line", "neumann dense", "neumann fft"])
def test_symbol_inverse_is_symmetric_positive_definite(case):
    # P^-1 = R C^-1 R^T in the metric of ``integrate``, with the scale and
    # second-difference weight each solver passes; 117 interior nodes
    # take the dense Neumann path, 250 the FFT path
    if case == "line":
        grid = build_line_grid(40.0, 0.1)
        t = kernel_weights(grid, Params(d=1.0))
        n, scale, pv = grid.n_nodes, t.c_ns, t.pv_coeff
    else:
        params = Params(d=0.2936 if case == "neumann dense" else 0.2)
        grid = default_grid_policy(params)
        t = kernel_weights(grid, params)
        n, scale, pv = grid.n_interior, params.d * t.c_ns, 0.0
        assert n == (117 if case == "neumann dense" else 250)
    solve = _symbol_inverse(t, n, scale, pv)
    m = np.column_stack([solve(e) for e in np.eye(n)])
    top = float(np.max(np.abs(m)))
    # integrate(x P^-1 y) = h x . M y, so M must be symmetric
    assert np.max(np.abs(m - m.T)) <= 1e-14 * top
    assert np.max(np.abs(m - _restricted_circulant_inverse(t, n, scale, pv))) <= (
        1e-12 * top
    )
    # a compression of C^-1, whose spectrum lies in (0, 1]
    eig = np.linalg.eigvalsh(0.5 * (m + m.T))
    assert 0.0 < eig[0] and eig[-1] <= 1.0 + 1e-12
    rng = np.random.default_rng(12)
    for _ in range(5):
        x, y = rng.standard_normal((2, n))
        xy, yx = grid.integrate(x * solve(y)), grid.integrate(y * solve(x))
        assert abs(xy - yx) <= 1e-13 * grid.integrate(x * x + y * y)
        assert grid.integrate(x * solve(x)) > 0.0


@pytest.mark.parametrize("d, h", [(2.0, None), (0.2936, None), (0.2, 1.0 / 128)])
def test_dense_symbol_inverse_matches_the_transforms(d, h):
    # the dense Neumann path's P^-1 is the matrix of the FFT path's: at
    # 50 and 117 interior nodes (the default grids at d = 2.0 and
    # 0.2936) and at the dense threshold of 128
    params = Params(d=d)
    grid = default_grid_policy(params) if h is None else build_grid(0.0, 1.0, h)
    t = kernel_weights(grid, params)
    n, scale = grid.n_interior, params.d * t.c_ns
    assert n == {2.0: 50, 0.2936: 117, 0.2: 128}[d]
    dense = _symbol_inverse_matrix(t, n, scale)
    assert np.array_equal(dense, dense.T)
    solve = _symbol_inverse(t, n, scale)
    m = np.column_stack([solve(e) for e in np.eye(n)])
    assert np.max(np.abs(dense - m)) <= 1e-13 * float(np.max(np.abs(m)))
    rng = np.random.default_rng(13)
    for x in rng.standard_normal((3, n)):
        want = solve(x)
        assert np.max(np.abs(dense @ x - want)) <= 1e-13 * float(np.max(np.abs(want)))


def test_threads_sharing_a_table_get_the_bits_of_one_thread():
    # each thread has its own FFT work arrays, and every product is a
    # fresh array, so results neither mix between threads nor change later
    params = Params(d=0.2)
    t = kernel_weights(default_grid_policy(params), params)
    n = t.n_nodes
    lo, hi = t.grid.interior_range
    blocks = [(0, n, lo, hi), (lo, hi, 0, n), (0, n, 0, n), (lo, hi, lo, hi)]
    rng = np.random.default_rng(11)
    xs = [rng.standard_normal(c1 - c0) for (_, _, c0, c1) in blocks]
    # copies, so that the reference cannot alias what a later product writes
    want = [np.array(t.matvec(x, *b)) for x, b in zip(xs, blocks)]
    rounds = 30
    results = [[] for _ in range(4)]

    def work(out):
        for _ in range(rounds):
            for x, b in zip(xs, blocks):
                out.append(t.matvec(x, *b))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(r,)) for r in results]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for out in results:
        assert len(out) == rounds * len(blocks)
        for i, got in enumerate(out):
            assert np.array_equal(got, want[i % len(blocks)])


def test_fast_len_is_scipys_real_fast_length():
    # the uncached search, against scipy for every target up to 2^18
    targets = range(1, 2**18 + 1)
    ours = [_fast_len.__wrapped__(target) for target in targets]
    assert ours == [fft.next_fast_len(target, real=True) for target in targets]


def test_zeta_matches_scipy_and_the_even_closed_forms():
    xs = np.linspace(1.0001, 60.0, 20001)
    ours = np.array([_zeta(float(x)) for x in xs])
    ref = special.zeta(xs)
    assert np.max(np.abs(ours - ref) / (np.finfo(float).eps * ref)) <= 4.0
    assert _zeta(2.0) == pytest.approx(math.pi**2 / 6.0, rel=2e-16)
    assert _zeta(4.0) == pytest.approx(math.pi**4 / 90.0, rel=2e-16)


def _scipy_pv_coeff(s, h):
    """The cell-rule coefficient as formed with scipy's zeta."""
    total = 0.0
    coeff = 1.0
    quarter = 0.25
    for j in range(50):
        c_even = coeff
        coeff *= (-1.0 - 2.0 * s - 2 * j) / (2 * j + 1)
        c_odd = coeff
        coeff *= (-2.0 - 2.0 * s - 2 * j) / (2 * j + 2)
        term = (
            (2.0 * c_odd + c_even)
            * quarter
            / (2 * j + 3)
            * special.zeta(2.0 * s + 2 * j + 1)
        )
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
        quarter *= 0.25
    return (0.5 ** (2.0 - 2.0 * s) / (2.0 * (1.0 - s)) + total) * h ** (-2.0 * s)


@pytest.mark.parametrize("s", [0.15, 0.25, 0.4])
def test_pv_coeff_keeps_the_scipy_zeta_bits(s):
    # the exponents the CLI examples and the default sweep run at
    for grid in (build_line_grid(60.0, 0.05), build_grid(0.0, 1.0, 0.004, 2.0)):
        t = kernel_weights(grid, Params(s=s, p=1.3))
        assert t.pv_coeff == _scipy_pv_coeff(s, grid.h)


def test_field_validation():
    # a whole-space field is a plain array with one finite value per node;
    # the entry points check it themselves
    lg = build_line_grid(5.0, 0.1)
    t = kernel_weights(lg, Params())
    n = lg.n_nodes
    for bad in (np.ones((n, 2)), np.ones(n + 1), np.ones(()), np.full(n, np.nan)):
        with pytest.raises(ValueError, match="field"):
            frac_laplacian_apply(bad, t)
        with pytest.raises(ValueError, match="field"):
            F_energy(bad, 1.5, t)


def _line_grid():
    return build_line_grid(40.0, 0.1)


def _grid():
    return build_grid(0.0, 1.0, 0.05)


def _ground_result():
    return GroundStateResult(
        w=np.ones(8), grid=_line_grid(), F_value=0.0, pohozaev_residual=0.0,
        decay_exponent_fit=0.0, el_residual=0.0, iterations=0,
        peak_history=np.ones(3),
    )


def _least_energy_result():
    return LeastEnergyResult(
        u=np.ones(8), grid=_grid(), c_d=0.0, M_d=0.0, argmax_x=0.0,
        nehari_residual=0.0, flux_residual=0.0, iterations=0,
        constant_branch=False, el_residual=0.0, peak_history=np.ones(3),
    )


@pytest.mark.parametrize(
    "make",
    [
        _grid,
        _line_grid,
        lambda: kernel_weights(_grid(), Params(d=0.2)),
        lambda: ExtendedField(np.ones(_grid().n_nodes), _grid()),
        _ground_result,
        _least_energy_result,
    ],
    ids=[
        "Grid", "LineGrid", "KernelTable", "ExtendedField",
        "GroundStateResult", "LeastEnergyResult",
    ],
)
def test_array_holding_classes_compare_by_identity(make):
    # equality and hashing of the generated methods would compare and hash
    # the ndarray fields: == raised numpy's ambiguous-truth ValueError,
    # hash() a TypeError.  A copy with equal values is another instance
    x = make()
    y = dataclasses.replace(
        x,
        **{
            f.name: getattr(x, f.name).copy()
            for f in dataclasses.fields(x)
            if f.init and isinstance(getattr(x, f.name), np.ndarray)
        },
    )
    assert type(y) is type(x) and y is not x
    assert x == x and not x != x
    assert x != y and not x == y
    assert x in [x] and x not in [y]
    assert hash(x) == hash(x) and len({x, y}) == 2
