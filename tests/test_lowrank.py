"""The collar as a low-rank factor: exponential sum, lumping, operator."""

import math

import numpy as np
import pytest

from fracneumann import Grid, Params, build_grid, kernel_weights
from fracneumann import lowrank, solvers
from fracneumann.energy import _neumann_matrix


def _table(n_interior, s=0.25):
    grid = build_grid(0.0, 1.0, 1.0 / n_interior)
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


def _form(monkeypatch, table, low_rank):
    """A = dc R of ``table`` in the low-rank or the FFT form, and dc max rs."""
    n = table.grid.n_interior
    monkeypatch.setattr(solvers, "_LOWRANK_INTERIOR", 0 if low_rank else n)
    dc = 0.05 * table.c_ns
    apply, _ = solvers._reduced_operator(table, dc)
    lo, hi = table.grid.interior_range
    return apply, dc * float(np.max(table.row_sums(lo, hi, 0, table.n_nodes)))


def _fields(n):
    rng = np.random.default_rng(n)
    x = (np.arange(n) + 0.5) / n
    return rng.standard_normal(n), rng.uniform(0.0, 1.0, n), np.exp(-((x / 0.05) ** 2))


@pytest.mark.parametrize("n_interior", [250, 1000, 2500])
def test_the_low_rank_operator_is_the_reduced_matrix(monkeypatch, n_interior):
    # within 1e-14 of dc max rs |v| from dc R, R the dense reduced matrix
    table = _table(n_interior)
    low, scale = _form(monkeypatch, table, True)
    dense = 0.05 * table.c_ns * _neumann_matrix(table)
    for v in _fields(n_interior):
        err = np.max(np.abs(low(v) - dense @ v))
        assert err <= 1e-14 * scale * np.max(np.abs(v))


@pytest.mark.parametrize("n_interior", [5384, 25_000])
def test_the_low_rank_operator_is_the_fft_form(monkeypatch, n_interior):
    # on the grids of d = 0.0431 and 0.02: 26 920 and 125 000 nodes
    table = _table(n_interior)
    low, scale = _form(monkeypatch, table, True)
    fft, _ = _form(monkeypatch, table, False)
    for v in _fields(n_interior):
        err = np.max(np.abs(low(v) - fft(v)))
        assert err <= 1e-14 * scale * np.max(np.abs(v))


@pytest.mark.parametrize("lo", [300, 0])
def test_unequal_collars_get_a_factor_each(monkeypatch, lo):
    # hand-built grids with collars of 300 or none and 900 nodes: S_R has
    # its own factor, a side without a collar one of no columns, and the
    # operator is still the dense reduced matrix
    n, hi = 1800, 900
    h = 1.0 / n
    grid = Grid(a=lo * h, b=hi * h, h=h, r_ext=1.0, nodes=(np.arange(n) + 0.5) * h)
    assert grid.interior_range == (lo, hi)
    table = kernel_weights(grid, Params())
    left, right = lowrank._collar_factors(table)
    assert left is not right and left.shape[0] == right.shape[0] == hi - lo
    assert (left.shape[1] == 0) == (lo == 0) and right.shape[1] > 0
    low, scale = _form(monkeypatch, table, True)
    dense = 0.05 * table.c_ns * _neumann_matrix(table)
    for v in _fields(hi - lo):
        assert np.max(np.abs(low(v) - dense @ v)) <= 1e-14 * scale * np.max(np.abs(v))
