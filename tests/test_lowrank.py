"""The collar as a low-rank factor: exponential sum, lumping, operator."""

import math

import numpy as np
import pytest

from fracneumann import Grid, Params, build_grid, kernel_weights
from fracneumann import lowrank, solvers
from fracneumann.energy import _neumann_matrix, _neumann_operator
from fracneumann.neumann import _extension


def _table(n_interior, s=0.25, r_ext=None, a=0.0):
    grid = build_grid(a, a + 1.0, 1.0 / n_interior, r_ext)
    assert grid.n_interior == n_interior
    return kernel_weights(grid, Params(s=s))


def _sum(lam, weight, offsets):
    return np.exp(-np.outer(offsets, lam)) @ weight


@pytest.mark.parametrize("s", [0.1, 0.25, 0.45])
def test_the_exponential_sum_is_omega(s):
    # omega(m) over every offset of a grid of 12 500 nodes, the trapezoid
    # sum and its lumped form alike, within 1e-15 of omega(1)
    table = _table(2500, s)
    omega = table.omega
    offsets = np.arange(1, omega.size, dtype=np.float64)
    lam, weight = lowrank._exp_sum(s, table.h)
    lumped = lowrank._lump(lam, weight, omega.size)
    assert lumped[0].size < lam.size
    for nodes in ((lam, weight), lumped):
        err = np.max(np.abs(_sum(*nodes, offsets) - omega[1:]))
        assert err <= 1e-15 * omega[1]


@pytest.mark.parametrize("s", [0.1, 0.25, 0.45])
@pytest.mark.parametrize("extent", [1250, 125_000])
def test_the_lumped_nodes_reproduce_their_moments(s, extent):
    # the Gauss rule of the nodes with lambda * extent < 1 integrates
    # x^k, x = lambda * extent, exactly for k < 2 _LUMPED; the other
    # nodes pass unchanged
    lam, weight = lowrank._exp_sum(s, 1.0 / extent)
    small = lam * extent < 1.0
    nodes, gauss = lowrank._lump(lam, weight, extent)
    keep = nodes.size - lowrank._LUMPED
    assert np.array_equal(nodes[:keep], lam[~small])
    assert np.array_equal(gauss[:keep], weight[~small])
    x, w = nodes[keep:] * extent, gauss[keep:]
    assert np.all((x > 0.0) & (x < 1.0)) and np.all(w > 0.0)
    mass = float(weight[small].sum())
    for k in range(2 * lowrank._LUMPED):
        want = math.fsum(weight[small] * (lam[small] * extent) ** k)
        assert abs(float(w @ x**k) - want) <= 1e-14 * mass, k


def _fields(n):
    rng = np.random.default_rng(n)
    x = (np.arange(n) + 0.5) / n
    return rng.standard_normal(n), rng.uniform(0.0, 1.0, n), np.exp(-((x / 0.05) ** 2))


def _check(monkeypatch, table, dense=True):
    """The low-rank A = dc R against the extension route and, if ``dense``, dc R.

    The low-rank form is the solve's own, with the dense threshold at 0
    so that every interior takes it; the extension route is dc
    ``_neumann_operator`` of ``_extension``.  Each must agree within
    1e-14 of dc max rs_I |v|.
    """
    monkeypatch.setattr(solvers, "_DENSE_INTERIOR", 0)
    dc = 0.05 * table.c_ns
    low, _ = solvers._reduced_operator(table, dc)
    refs = [lambda v: dc * _neumann_operator(_extension(v, table), table)]
    if dense:
        matrix = dc * _neumann_matrix(table)
        refs.append(lambda v: matrix @ v)
    lo, hi = table.grid.interior_range
    scale = dc * float(np.max(table.row_sums(lo, hi, 0, table.n_nodes)))
    for v in _fields(hi - lo):
        got = low(v)
        for ref in refs:
            assert np.max(np.abs(got - ref(v))) <= 1e-14 * scale * np.max(np.abs(v))


@pytest.mark.parametrize(
    "n_interior, s, r_ext, a",
    [
        pytest.param(129, 0.25, None, 0.0, id="129"),
        pytest.param(250, 0.25, None, 0.0, id="250"),
        pytest.param(539, 0.25, None, 0.0, id="539"),
        pytest.param(1000, 0.25, None, 0.0, id="1000"),
        pytest.param(2500, 0.25, None, 0.0, id="2500"),
        pytest.param(129, 0.05, None, 0.0, id="129-s0.05"),
        pytest.param(250, 0.05, None, 0.0, id="250-s0.05"),
        pytest.param(129, 0.45, None, 0.0, id="129-s0.45"),
        pytest.param(539, 0.45, None, 0.0, id="539-s0.45"),
        pytest.param(250, 0.25, 8.0, 0.0, id="250-collar8"),
        pytest.param(129, 0.05, 8.0, 0.0, id="129-s0.05-collar8"),
        pytest.param(250, 0.25, None, 3.0 / 64.0, id="250-shifted"),
        pytest.param(539, 0.45, 8.0, 3.0 / 64.0, id="539-s0.45-collar8-shifted"),
    ],
)
def test_the_low_rank_operator_is_the_reduced_matrix(monkeypatch, n_interior, s, r_ext, a):
    # within 1e-14 of dc max rs_I |v| from dc R, R the dense reduced
    # matrix, and from A of the extension, from 129 interior nodes up, for
    # s from 0.05 to 0.45, collars of 2 (the default) and 8 times b - a,
    # and a domain translated by 3/64
    table = _table(n_interior, s, r_ext, a)
    _check(monkeypatch, table)


@pytest.mark.parametrize("n_interior", [5384, 25_000])
def test_the_low_rank_operator_is_the_fft_form(monkeypatch, n_interior):
    # against the FFT form of the extension route, the Toeplitz products
    # of _neumann_operator, on the grids of d = 0.0431 and 0.02: 26 920
    # and 125 000 nodes
    _check(monkeypatch, _table(n_interior), dense=False)


@pytest.mark.parametrize(
    "n, lo, hi",
    [
        pytest.param(1800, 300, 900, id="300"),
        pytest.param(1800, 0, 900, id="0"),
        pytest.param(1000, 400, 529, id="129-unequal"),
        pytest.param(700, 1, 301, id="300-one-node-left"),
        pytest.param(600, 250, 599, id="349-one-node-right"),
        pytest.param(600, 0, 200, id="200-none-left"),
        pytest.param(450, 150, 450, id="300-none-right"),
    ],
)
def test_unequal_collars_get_a_factor_each(monkeypatch, n, lo, hi):
    # hand-built grids with collars of unequal widths, of one node or of
    # none: S_R has its own factor, a side without a collar one of no
    # columns, and the operator is still dc R and A of the extension
    h = 1.0 / n
    grid = Grid(a=lo * h, b=hi * h, h=h, r_ext=1.0, nodes=(np.arange(n) + 0.5) * h)
    assert grid.interior_range == (lo, hi) and lo != n - hi
    table = kernel_weights(grid, Params())
    left, right = lowrank._collar_factors(table)
    assert left is not right and left.shape[0] == right.shape[0] == hi - lo
    assert (left.shape[1] == 0) == (lo == 0)
    assert (right.shape[1] == 0) == (hi == n)
    _check(monkeypatch, table)
