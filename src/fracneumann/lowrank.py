"""The collar term of the reduced Neumann operator as a low-rank factor.

In the reduced operator R = diag(rs_I) - W_II - S_L - S_R + C T C of
``energy._neumann_matrix`` the collar enters only through
S = W_IE D_E^-1 W_EI, one term a side.  Counting interior rows a and
collar rows b from the boundary outwards, W_IE[a, b] = omega(a + b + 1)
is a Hankel matrix, and omega is completely monotone:

    omega(m) = h^(-2s) / Gamma(1 + 2s) * int lambda^(2s-1) 2 sinh(lambda/2)
               e^(-lambda m) dlambda.

So an exponential sum factors it, and S = U U^T with a thin U.
``_collar_factor`` builds U in five steps:

1. the integral by the trapezoid rule in log lambda (``_exp_sum``),
   which converges exponentially for this analytic integrand (Trefethen
   and Weideman, SIAM Rev. 56, 2014): omega(m) ~ sum_j w_j e^(-l_j m);
2. the nodes whose e^(-l m) is a low-degree polynomial over every
   offset of the block, l (n_I + n_E) < 1, lumped into ``_LUMPED``
   Gauss nodes of their own discrete measure (``_lump``; Golub and
   Welsch, Math. Comp. 23, 1969);
3. the core K_jk = sum_b phi_j(b) phi_k(b) / D(b), phi_j(b) =
   w_j e^(-l_j (b + 1/2)), summed over geometric panels of b, each
   with only the columns that have not decayed below round-off
   (``_panels``);
4. K balanced by the norms of the interior columns e^(-l_j (a + 1/2))
   before its eigen-split, so that the split's absolute error is
   round-off of S itself, not of K's largest entry;
5. F = E V sqrt(Lambda), with E the balanced interior columns, and
   U = F Q_r over the eigenvectors of F^T F (closed form from E's
   Gram matrix, ``_gram``) above ``_KEEP`` of its largest eigenvalue:
   r = 17 to 23 columns on the default grids.

S_R is S_L with rows and columns reversed when the collars are equally
wide, as on every ``build_grid`` grid.  No temporary of the build is
larger than a panel of rows times the exponential sum's length (54 to
73 terms on the default grids), and U is filled in row panels of the
same size.  Against the dense S, U U^T is within 5e-16 of the row-sum
scale max rs_I on the default grids of 250 to 2 500 interior nodes.
Exponential sums of completely monotone kernels: Beylkin and Monzon,
ACHA 19 (2005).
"""

from __future__ import annotations

import math

import numpy as np

from .kernel import KernelTable

__all__: list[str] = []

# Trapezoid step in t = log lambda; 0.3 leaves 4e-14 of omega(1).
_STEP = 0.25
# Largest lambda: at offset 1 its term is e^(-39) of the integrand's scale.
_LAMBDA_MAX = 78.0
# The trapezoid nodes lumped into this many Gauss nodes.
_LUMPED = 10
# A column whose exponent l row passes this has decayed below
# e^(-37) = 8.5e-17 of its first row and leaves the panels.
_DECAYED = 37.0
# Rows per panel of the core and of U.
_PANEL = 64
# Eigenvalues of F^T F kept, relative to the largest.
_KEEP = 1e-16


def _exp_sum(s: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(l, w), decreasing l: omega(m) ~ sum_j w_j e^(-l_j m) for m >= 1.

    The trapezoid rule with step ``_STEP`` in t = log lambda, from
    ``_LAMBDA_MAX`` down to the first node below lambda_0 =
    1e-16^(1/(1+2s)).  There e^(-l m) = 1 over every offset of a grid,
    and a term is w ~ lambda^(1+2s): the rule's terms past the last node
    form a geometric series with ratio q = e^(-step (1+2s)), whatever m
    is, and one more node at lambda = 0 carries their sum.
    """
    top = math.log(_LAMBDA_MAX)
    bottom = math.log(1e-16) / (1.0 + 2.0 * s)
    lam = np.exp(top - _STEP * np.arange(int((top - bottom) / _STEP) + 2))
    scale = h ** (-2.0 * s) / math.gamma(1.0 + 2.0 * s)
    weight = _STEP * scale * lam ** (2.0 * s) * (2.0 * np.sinh(0.5 * lam))
    q = math.exp(-_STEP * (1.0 + 2.0 * s))
    return np.append(lam, 0.0), np.append(weight, weight[-1] * q / (1.0 - q))


def _lump(
    lam: np.ndarray, weight: np.ndarray, extent: int
) -> tuple[np.ndarray, np.ndarray]:
    """The nodes with l * extent < 1 replaced by ``_LUMPED`` Gauss nodes.

    Over offsets m < extent each such e^(-l m) is a polynomial of
    degree 2 ``_LUMPED`` - 1 in l to within 1/(2 ``_LUMPED``)! of its
    value, and the Gauss rule of their discrete measure integrates those
    polynomials exactly.  The rule comes from ``_LUMPED`` Lanczos steps
    on diag(l extent) from the vector sqrt(w), reorthogonalised in full,
    and the eigenvalues of the Jacobi matrix (Golub and Welsch).
    """
    small = lam * extent < 1.0
    x = lam[small] * extent
    mass = float(weight[small].sum())
    basis = np.zeros((_LUMPED + 1, x.size))
    basis[0] = np.sqrt(weight[small] / mass)
    alpha = np.empty(_LUMPED)
    beta = np.empty(_LUMPED)
    for k in range(_LUMPED):
        z = x * basis[k]
        alpha[k] = float(basis[k] @ z)
        for _ in range(2):
            z -= (basis[: k + 1] @ z) @ basis[: k + 1]
        beta[k] = float(np.linalg.norm(z))
        basis[k + 1] = z / beta[k]
    jacobi = np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    gauss = mass * vectors[0] ** 2
    keep = ~small
    return (
        np.concatenate((lam[keep], nodes[::-1] / extent)),
        np.concatenate((weight[keep], gauss[::-1])),
    )


def _gram(lam: np.ndarray, n: int) -> np.ndarray:
    """sum over a = 0..n-1 of e^(-(l_j + l_k)(a + 1/2)): geometric series."""
    pair = lam[:, None] + lam
    return np.exp(-0.5 * pair) * (np.expm1(-pair * n) / np.expm1(-pair))


def _panels(lam: np.ndarray, scale: np.ndarray, count: int, limit: int):
    """(row, first, block) over rows 0..count-1 of scale_j e^(-l_j k).

    Geometric panels: each is as long as the rows before it, at least
    ``_PANEL`` and at most ``limit`` rows, a multiple of ``_PANEL``.  A
    panel keeps only the columns that have not decayed by more than
    e^(-``_DECAYED``) since row 0, l_j row <= ``_DECAYED`` at its first
    row; ``lam`` decreases, so those are the trailing columns from
    ``first`` on.  A block is a table of e^(-l k), k < ``_PANEL``, times
    one row of e^(-l (row + ``_PANEL`` i)) per ``_PANEL`` rows.
    """
    decays = np.exp(-np.arange(_PANEL, dtype=np.float64)[:, None] * lam)
    starts = np.arange(0, count, _PANEL, dtype=np.float64)
    factors = scale * np.exp(-starts[:, None] * lam)
    with np.errstate(divide="ignore"):
        cut = np.searchsorted(-lam, -_DECAYED / starts)
    row = 0
    while row < count:
        i, first = row // _PANEL, int(cut[row // _PANEL])
        rows = min(max(_PANEL, row), limit, count - row)
        block = decays[:, first:] * factors[i : i - (-rows // _PANEL), None, first:]
        yield row, first, block.reshape(-1, lam.size - first)[:rows]
        row += rows


def _collar_factor(s: float, h: float, n: int, den: np.ndarray) -> np.ndarray:
    """U (n x r) with U U^T = W_IE D^-1 W_EI of one collar, to round-off.

    ``n`` is the interior size, ``den`` the collar rows' sums over the
    interior, D(b), from the boundary outwards, and the rows of U run
    from the boundary inwards.  See the module docstring for the steps.
    A panel holds at most max(256, n/8) rows of at most 75 columns.
    """
    lam, weight = _lump(*_exp_sum(s, h), n + den.size)
    limit = max(4 * _PANEL, n // 8 // _PANEL * _PANEL)
    gram = _gram(lam, n)
    norms = np.sqrt(np.diag(gram))
    # 3-4: K balanced, phi_j(b) = w_j ||E_j|| e^(-l_j (b + 1/2)) against
    # unit interior columns; numpy makes block^T block one syrk
    core = np.zeros((lam.size, lam.size))
    root = 1.0 / np.sqrt(den)
    phi = weight * norms * np.exp(-0.5 * lam)
    for b0, first, block in _panels(lam, phi, den.size, limit):
        block *= root[b0 : b0 + block.shape[0], None]
        core[first:, first:] += block.T @ block
    value, vector = np.linalg.eigh(core)
    half = vector * np.sqrt(np.clip(value, 0.0, None))
    # 5: F^T F from the Gram matrix of the unit columns, then U = F Q_r
    gram /= np.outer(norms, norms)
    value, vector = np.linalg.eigh(half.T @ gram @ half)
    mix = half @ vector[:, value > _KEEP * value[-1]]
    u = np.empty((n, mix.shape[1]))
    for a0, first, block in _panels(lam, np.exp(-0.5 * lam) / norms, n, limit):
        np.matmul(block, mix[first:], out=u[a0 : a0 + block.shape[0]])
    return u


def _collar_factors(table: KernelTable) -> tuple[np.ndarray, np.ndarray]:
    """(U_L, U_R) of ``table``'s grid: S_L = U_L U_L^T and S_R = J U_R U_R^T J.

    J reverses the interior, so both factors run from their boundary
    inwards; U_R is U_L itself when the collars are equally wide.  A
    side without a collar gets a factor of no columns.
    """
    lo, hi = table.grid.interior_range
    n = table.n_nodes
    den = table.row_sums(0, n, lo, hi)

    def factor(side: np.ndarray) -> np.ndarray:
        if side.size == 0:
            return np.zeros((hi - lo, 0))
        return _collar_factor(table.s, table.h, hi - lo, side)

    left = factor(den[:lo][::-1])
    return left, left if lo == n - hi else factor(den[hi:])
