"""Neumann derivative and the zero-derivative exterior extension."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracneumann import (
    ExtendedField,
    Grid,
    J_d,
    Params,
    build_grid,
    build_line_grid,
    default_grid_policy,
    extend,
    kernel_weights,
    neumann_derivative,
    seminorm_T,
)


def toy_grid():
    # five unit cells, three interior: labels (ext, int, int, int, ext)
    nodes = np.array([0.5, 1.5, 2.5, 3.5, 4.5])
    return Grid(a=1.0, b=4.0, h=1.0, r_ext=1.0, nodes=nodes)


def omega_unit(m):
    # closed-form cell weight at unit spacing, s = 1/4
    return 2.0 * ((m - 0.5) ** -0.5 - (m + 0.5) ** -0.5)


def test_derivative_hand_computed_on_toy_grid():
    g = toy_grid()
    t = kernel_weights(g, Params())
    w1, w2, w3 = omega_unit(1), omega_unit(2), omega_unit(3)

    u = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    assert neumann_derivative(u, t, 0) == pytest.approx(-t.c_ns * w1, rel=1e-14)
    assert neumann_derivative(u, t, 4) == pytest.approx(-t.c_ns * w3, rel=1e-14)

    u2 = np.array([0.7, 1.0, 0.0, 0.0, 0.0])
    expected = t.c_ns * (0.7 * (w1 + w2 + w3) - w1)
    assert neumann_derivative(u2, t, 0) == pytest.approx(expected, rel=1e-14)


def test_derivative_of_constant_vanishes():
    g = build_grid(0.0, 1.0, 0.1, 2.0)
    t = kernel_weights(g, Params())
    u = np.full(g.n_nodes, 2.5)
    for x in np.flatnonzero(~g.interior)[::7]:
        assert neumann_derivative(u, t, int(x)) == 0.0


def test_derivative_rejects_interior_nodes():
    g = build_grid(0.0, 1.0, 0.1, 2.0)
    t = kernel_weights(g, Params())
    u = np.zeros(g.n_nodes)
    lo, _ = g.interior_range
    with pytest.raises(ValueError, match="interior"):
        neumann_derivative(u, t, lo)
    with pytest.raises(ValueError):
        neumann_derivative(np.zeros(3), t, 0)
    # an index that is no integer, or a bool, is refused by name, not
    # broadcast, truncated or compared with a string
    for x in (g.n_nodes, -1, True, np.True_, 2.5, 3.0, "3"):
        named = rf"^node index must be an integer .* got {re.escape(repr(x))}$"
        with pytest.raises(ValueError, match=named):
            neumann_derivative(u, t, x)
    ramp = np.linspace(0.0, 1.0, g.n_nodes)
    want = neumann_derivative(ramp, t, 3)
    assert want != 0.0 and neumann_derivative(ramp, t, np.int64(3)) == want


def test_derivative_rejects_a_field_from_another_grid():
    # a field carries its grid; one of another size is refused like
    # seminorm_T and J_d refuse it, not read against the wrong weights
    coarse, fine = build_grid(0.0, 1.0, 0.05), build_grid(0.0, 1.0, 0.025)
    t = kernel_weights(coarse, Params())
    u = extend(np.linspace(1.0, 2.0, fine.n_interior), kernel_weights(fine, Params()))
    assert u.grid.n_nodes != coarse.n_nodes
    with pytest.raises(ValueError, match="field and table grids do not match"):
        neumann_derivative(u, t, 0)
    own = extend(np.linspace(1.0, 2.0, coarse.n_interior), t)
    assert abs(neumann_derivative(own, t, 0)) <= 1e-12


def _read_against(table, params):
    """The three readers of a full field, each against ``table``."""
    return {
        "seminorm_T": lambda u: seminorm_T(u, table),
        "J_d": lambda u: J_d(u, params, table),
        "neumann_derivative": lambda u: neumann_derivative(u, table, 0),
    }


@pytest.mark.parametrize("entry", ["seminorm_T", "J_d", "neumann_derivative"])
def test_a_field_from_a_grid_of_equal_size_is_refused(entry):
    # both grids have 100 nodes and interior range (40, 60) but another
    # spacing, so a node count check alone would pass the wrong weights
    first, second = build_grid(0.0, 1.0, 0.05), build_grid(0.0, 2.0, 0.1)
    assert (first.n_nodes, first.interior_range) == (second.n_nodes, second.interior_range)
    params = Params(d=0.5)
    u = extend(np.linspace(1.0, 2.0, second.n_interior), kernel_weights(second, params))
    read = _read_against(kernel_weights(first, params), params)[entry]
    with pytest.raises(ValueError, match="field and table grids do not match"):
        read(u)


def test_an_equal_hand_built_grid_reads_the_field():
    grid = build_grid(0.0, 1.0, 0.05)
    twin = Grid(a=grid.a, b=grid.b, h=grid.h, r_ext=grid.r_ext, nodes=grid.nodes.copy())
    params = Params(d=0.5)
    own = kernel_weights(grid, params)
    u = extend(np.linspace(1.0, 2.0, grid.n_interior), own)
    theirs = _read_against(kernel_weights(twin, params), params)
    for entry, read in _read_against(own, params).items():
        assert theirs[entry](u) == read(u), entry


def test_extension_formula_for_unit_bump():
    g = toy_grid()
    t = kernel_weights(g, Params())
    w1, w2, w3 = omega_unit(1), omega_unit(2), omega_unit(3)
    ext = extend(np.array([1.0, 0.0, 0.0]), t)
    assert ext.values[0] == pytest.approx(w1 / (w1 + w2 + w3), rel=1e-14)
    assert ext.values[4] == pytest.approx(w3 / (w1 + w2 + w3), rel=1e-14)


def test_extension_of_constant_is_exact():
    g = build_grid(0.0, 1.0, 0.05, 2.0)
    t = kernel_weights(g, Params())
    ext = extend(np.ones(g.n_interior), t)
    assert np.all(ext.values == 1.0)


@pytest.mark.parametrize("d", [float(np.geomspace(2.0, 0.02, 13)[10]), 0.02])
def test_extension_of_constant_is_exact_at_production_size(d):
    # the default sweep's two largest grid sizes in use, n = 26 935 and 125 000
    params = Params(d=d)
    g = default_grid_policy(params)
    assert g.n_nodes in (26_935, 125_000)
    ext = extend(np.full(g.n_interior, 0.7), kernel_weights(g, params))
    assert np.all(ext.values == 0.7)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(8, 400),
    s=st.floats(0.05, 0.45),
    bounds=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    level=st.floats(-1e6, 1e6, allow_subnormal=False),
)
def test_extension_of_constant_is_exact_on_any_grid(n, s, bounds, level):
    lo = min(int(bounds[0] * n), n - 1)
    hi = max(lo + 1, int(bounds[1] * n))
    h = 1.0 / n
    k = np.arange(n)
    g = Grid(a=lo * h, b=hi * h, h=h, r_ext=1.0, nodes=(k + 0.5) * h)
    ext = extend(np.full(hi - lo, level), kernel_weights(g, Params(s=s)))
    assert np.all(ext.values == level)


def test_extended_field_annuls_neumann_derivative():
    g = build_grid(0.0, 1.0, 0.05, 2.0)
    t = kernel_weights(g, Params())
    rng = np.random.default_rng(42)
    for _ in range(10):
        u = rng.standard_normal(g.n_interior)
        ext = extend(u, t)
        scale = t.c_ns * float(np.max(np.abs(ext.values)))
        for x in np.flatnonzero(~g.interior):
            res = neumann_derivative(ext, t, int(x))
            assert abs(res) <= 1e-12 * scale


def test_extension_is_idempotent_bitwise():
    g = build_grid(-0.2, 0.8, 0.05, 2.0)
    t = kernel_weights(g, Params())
    rng = np.random.default_rng(3)
    u = rng.uniform(0.0, 2.0, g.n_interior)
    first = extend(u, t)
    second = extend(first.interior_values, t)
    assert np.array_equal(first.values, second.values)


def test_extension_preserves_order_and_bounds():
    g = build_grid(0.0, 1.0, 0.05, 2.0)
    t = kernel_weights(g, Params())
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = rng.standard_normal(g.n_interior)
        v = u + rng.uniform(0.0, 1.0, g.n_interior)
        eu, ev = extend(u, t), extend(v, t)
        assert np.all(eu.values <= ev.values)
        assert np.all(eu.values >= u.min()) and np.all(eu.values <= u.max())


def test_extension_keeps_nonnegative_data_positive():
    g = build_grid(0.0, 1.0, 0.05, 2.0)
    t = kernel_weights(g, Params())
    u = np.zeros(g.n_interior)
    u[3] = 1.0
    ext = extend(u, t)
    assert np.all(ext.values[~g.interior] > 0.0)


def test_extension_input_validation():
    g = build_grid(0.0, 1.0, 0.1, 2.0)
    t = kernel_weights(g, Params())
    with pytest.raises(ValueError):
        extend(np.ones(g.n_interior + 1), t)
    with pytest.raises(ValueError):
        extend(np.array([np.inf] * g.n_interior), t)
    lg = build_line_grid(5.0, 0.1)
    tl = kernel_weights(lg, Params())
    with pytest.raises(ValueError):
        extend(np.ones(10), tl)
    with pytest.raises(ValueError):
        ExtendedField(np.ones(3), g)


@settings(max_examples=40, deadline=None)
@given(
    n_int=st.integers(1, 200),
    collars=st.tuples(st.integers(0, 200), st.integers(0, 200)),
    s=st.floats(0.05, 0.45),
    level=st.floats(-10.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_extension_is_stationary_on_grids_with_unequal_collars(
    n_int, collars, s, level, seed
):
    # unequal collar widths give block products whose reach differs on
    # the two sides of the domain
    left, right = collars
    n = left + n_int + right
    assume(8 <= n <= 400 and left + right > 0)
    h = 1.0 / n
    k = np.arange(n)
    inside = (k >= left) & (k < left + n_int)
    g = Grid(a=left * h, b=(left + n_int) * h, h=h, r_ext=1.0,
             nodes=(k + 0.5) * h)
    t = kernel_weights(g, Params(s=s))
    u = level + np.random.default_rng(seed).standard_normal(n_int)
    ext = extend(u, t)
    # dense oracle of N_s u / c_ns at every collar node
    W = t.dense()[~inside][:, inside]
    v = ext.values
    deriv = np.sum(W * (v[~inside][:, None] - v[inside][None, :]), axis=1)
    mass = float(np.max(t.row_sums(0, n, 0, n)))
    assert np.max(np.abs(deriv)) <= 1e-13 * mass * np.max(np.abs(u))
    for x in (0, n - 1):
        if not inside[x]:
            assert abs(neumann_derivative(ext, t, x)) <= (
                1e-13 * t.c_ns * mass * np.max(np.abs(u))
            )
