"""Docstring promises of the operators, checked at production size.

The unit tests check these on grids of about a hundred nodes; here they
hold on the default ladder's largest grid (d = 0.02: 125 000 nodes, an
interior of 25 000), a line of as many interior nodes, and the reduced
operator's forms from the smallest interior the low-rank one takes up.
"""

import math

import numpy as np
import pytest

from fracneumann import (
    Params,
    build_grid,
    build_line_grid,
    default_grid_policy,
    kernel_weights,
    solvers,
)
from fracneumann.energy import _neumann_matrix
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


def _row_sum_scale(table):
    lo, hi = table.grid.interior_range
    return float(np.max(table.row_sums(lo, hi, 0, table.n_nodes)))


@pytest.mark.parametrize("n_interior", [129, 5384, 25_000])
def test_the_descent_operator_is_symmetric_and_kills_constants(monkeypatch, n_interior):
    # the low-rank A = d c R of ``_reduced_operator`` (with the dense
    # threshold at 0, so 129 nodes take it too; 5 384 and 25 000 are the
    # default grids of d = 0.0431 and 0.02).  Symmetry: |u.Aq - q.Au| <=
    # 2e-16 d c max rs_I |u|_1 |q|_inf (measured 3.1e-17, 5.8e-17 and
    # 7.5e-18); constants: |A 1|_inf <= 5e-14 d c max rs_I (1.3e-15,
    # 2.0e-14 and 1.1e-14)
    monkeypatch.setattr(solvers, "_DENSE_INTERIOR", 0)
    params = Params(d=0.2)
    table = kernel_weights(build_grid(0.0, 1.0, 1.0 / n_interior), params)
    assert table.grid.n_interior == n_interior
    dc = params.d * table.c_ns
    apply, _ = solvers._reduced_operator(table, dc)
    scale = dc * _row_sum_scale(table)
    rng = np.random.default_rng(n_interior)
    x = (np.arange(n_interior) + 0.5) / n_interior
    fields = (
        rng.standard_normal(n_interior),
        rng.uniform(0.0, 1.0, n_interior),
        np.exp(-((x / 0.05) ** 2)),
    )
    images = [apply(v) for v in fields]
    for i, (u, au) in enumerate(zip(fields, images)):
        for q, aq in zip(fields[i + 1 :], images[i + 1 :]):
            bound = 2e-16 * scale * np.sum(np.abs(u)) * np.max(np.abs(q))
            assert abs(float(u @ aq) - float(q @ au)) <= bound
    assert np.max(np.abs(apply(np.ones(n_interior)))) <= 5e-14 * scale


def test_the_reduced_matrix_is_symmetric_and_kills_constants():
    # ``_neumann_matrix`` at the largest interior the dense form takes:
    # R = R^T bit for bit, and |R 1|_inf <= 1e-14 max rs_I (measured 2.2e-15)
    n = solvers._DENSE_INTERIOR
    table = kernel_weights(build_grid(0.0, 1.0, 1.0 / n), Params())
    assert table.grid.n_interior == n
    r = _neumann_matrix(table)
    assert np.array_equal(r, r.T)
    assert np.max(np.abs(r @ np.ones(n))) <= 1e-14 * _row_sum_scale(table)
