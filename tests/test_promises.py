"""Docstring promises of the operators, checked at production size.

The unit tests check these on grids of about a hundred nodes; here they
hold on the default ladder's largest grid (d = 0.02: 125 000 nodes, an
interior of 25 000) and a line of as many interior nodes.
"""

import math

import numpy as np
import pytest

from fracneumann import Params, build_line_grid, default_grid_policy, kernel_weights
from fracneumann.kernel import _fast_len, _symbol, _symbol_inverse


@pytest.fixture(scope="module")
def largest():
    params = Params(d=0.02)
    grid = default_grid_policy(params)
    assert (grid.n_nodes, grid.n_interior) == (125_000, 25_000)
    return params, kernel_weights(grid, params)


def test_the_neumann_symbol_is_at_least_one(largest):
    # _symbol: every entry at least 1, so P^-1 = R C^-1 R^T has its
    # eigenvalues in (0, 1]; at L = _fast_len(2 n_I) for n_I = 25 000
    params, table = largest
    n = table.grid.n_interior
    scale = params.d * table.c_ns
    size, symbol = _symbol(table, n, scale, 0.0)
    assert size == _fast_len(2 * n)
    assert symbol.min() >= 1.0
    solve = _symbol_inverse(table, n, scale)
    rng = np.random.default_rng(5)
    for v in (rng.standard_normal(n), np.ones(n), rng.uniform(0.0, 1.0, n)):
        quotient = float(v @ solve(v)) / float(v @ v)
        assert 0.0 < quotient <= 1.0


def test_the_line_symbol_is_at_least_one():
    # the ground state's symbol, with the second-difference term, on a
    # line of 25 000 nodes
    grid = build_line_grid(60.0, 60.0 / 12_500)
    assert grid.n_nodes == 25_000
    table = kernel_weights(grid, Params())
    size, symbol = _symbol(table, grid.n_nodes, table.c_ns, table.pv_coeff)
    assert size == _fast_len(2 * grid.n_nodes)
    assert symbol.min() >= 1.0


def test_the_toeplitz_product_keeps_its_round_off_bound(largest):
    # KernelTable.matvec: round-off of order eps ||W||_inf ||x||_inf.  With
    # x in {-1, 0, 1} every product omega x is exact, so math.fsum gives
    # each row's exact dot to one rounding
    _, table = largest
    n = table.n_nodes
    x = np.random.default_rng(3).integers(-1, 2, n).astype(np.float64)
    y = table.matvec(x, 0, n, 0, n)
    bound = np.finfo(np.float64).eps * float(np.max(table.row_sums(0, n, 0, n)))
    idx = np.arange(n)
    for i in (0, 1, n // 3, n // 2, n - 2, n - 1):
        exact = math.fsum(table.omega[np.abs(idx - i)] * x)
        assert abs(y[i] - exact) <= bound, i
