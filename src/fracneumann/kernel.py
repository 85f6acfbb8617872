"""Singular-kernel weight tables and the discrete fractional Laplacian.

The kernel |x - y|^(-(1+2s)) is integrated exactly over grid cells, so
for a uniform spacing h the weight between nodes i and j depends only on
the offset |i - j|.  The table stores that one-dimensional generator
plus analytic closures for everything outside the represented window:

* ``omega[m]``  -- integral of the kernel over the cell at offset m,
* ``tail[i]``   -- integral of the kernel over the half-lines beyond the
  window edges, taken from node i (both sides, exact antiderivatives),
* ``pv_coeff``  -- coefficient of the second-difference Taylor rule that
  accounts for the node's own cell (principal value) together with the
  curvature defect of the cell rule on every other cell.  Without the
  second part the scheme would only converge like h^(2-2s); with it the
  truncation error is O(h^2) uniformly in s.

Row sums of the table plus the tail reproduce the full one-dimensional
kernel mass 2*(h/2)^(-2s)/(2s) up to rounding, which is the invariant
the tests pin down.

Every Toeplitz product is one forward and one inverse real FFT, both
numpy's pocketfft (numpy >= 2.0).  A block W[rows, cols] only reaches
offsets up to the largest |i - j| between its rows and columns, so it
is convolved at the shortest 5-smooth length that holds that reach
without wrap-around, against the spectrum of ``omega`` embedded as an
even circulant of that length.  A Neumann block W[:, I] or W[I, :]
thus costs a transform of about 2 (n_ext + n_I) points instead of 2 n;
the full product keeps the smallest 5-smooth length >= 2n - 1.
Spectra (one per length) and row sums (one per block) are made on
first use and kept read-only by the table that made them, and live
no longer than it; tables of equal (n, h, s) hold bitwise-equal
arrays.  A Neumann solve's table on the FFT path makes two lengths,
its products' and P^-1's (1 500 and 500 on the default grid at
d = 0.2), and four blocks; on the low-rank form the descent's W_II
product runs at ``_fast_len(2 n_I - 1)``, P^-1's length on the default
grids, so the table holds the same two lengths and four blocks, and
only a nonconstant result's three figure products reach the block
length; a constant-branch solve on the dense form makes P^-1's length
and the two blocks of the assembly.  Results are bitwise reproducible
from run to run.

The same spectra precondition the solvers' descent: ``_symbol``
forms the symbol 1 + scale (w(0) - w(k)) (plus a second-difference term
on the line), w the table's spectrum at length ``_fast_len(2n)``, and
``_symbol_inverse`` applies the inverse of that circulant restricted to
the first n nodes, one transform pair in the table's own work arrays of
that length.  ``_symbol_inverse_matrix`` is the same operator as a
dense n x n matrix, for interiors small enough that one matrix-vector
product costs less than the transform pair.

The normalizing constant c_{n,s} is evaluated in closed form from the
Gamma function, and the zeta values of the curvature defect by an
Euler-Maclaurin sum; no quadrature runs when a table is built, and the
module needs numpy alone.

A whole-space field is a plain array of nodal values, zero beyond the
window; ``frac_laplacian_apply`` and the whole-space energies reject
one of the wrong length or with a non-finite value.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grids import Grid, LineGrid, Params

__all__ = [
    "KernelTable",
    "normalizing_constant",
    "kernel_weights",
    "frac_laplacian_apply",
]


def _check_dimension(n) -> None:
    """Reject a dimension that is not a positive ``int`` (``bool`` included)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"dimension n must be a positive integer, got {n!r}")


def normalizing_constant(n: int, s: float) -> float:
    """Normalizing constant of the fractional Laplacian.

    The reciprocal of ``int_{R^n} (1 - cos(z_1)) / |z|^(n+2s) dz`` in
    closed form, c_{n,s} = s 4^s Gamma(n/2 + s) / (pi^(n/2) Gamma(1 - s))
    (Di Nezza, Palatucci and Valdinoci, "Hitchhiker's guide to the
    fractional Sobolev spaces", 2012).

    Raises
    ------
    ValueError
        On parameters outside 0 < s < 1, n >= 1 or 2s <= n.
    """
    _check_dimension(n)
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional order s must lie in (0, 1), got {s}")
    if 2.0 * s > n:
        raise ValueError(
            f"fractional order s = {s} too large for dimension n = {n}"
        )
    return (
        s
        * 4.0**s
        * math.gamma(n / 2.0 + s)
        / (math.pi ** (n / 2.0) * math.gamma(1.0 - s))
    )


@lru_cache(maxsize=256)
def _curvature_defect(s: float) -> float:
    """Second-order defect constant of the cell rule, unit spacing.

    Replacing the kernel integral of ``u(x) - u(y)`` over the cell at
    offset m by ``(u(x) - u(x_m)) * omega_m`` leaves, after the odd
    parts of mirror cells cancel, the residue

        u''(x) * h^(2-2s) * sum_m int_cell (z^2 - m^2) |z|^(-1-2s) dz.

    The sum is evaluated through the binomial expansion of the kernel
    about each cell centre, which turns it into a zeta series with
    ratio 1/4; fifty terms reach round-off for every s in (0, 1).  Each
    zeta(2s + 2j + 1) comes from ``_zeta``'s Euler-Maclaurin sum.
    """
    total = 0.0
    coeff = 1.0  # binom(-1-2s, k), by recurrence
    quarter = 0.25
    for j in range(50):
        c_even = coeff  # k = 2j
        coeff *= (-1.0 - 2.0 * s - 2 * j) / (2 * j + 1)
        c_odd = coeff  # k = 2j + 1
        coeff *= (-2.0 - 2.0 * s - 2 * j) / (2 * j + 2)
        term = (
            (2.0 * c_odd + c_even)
            * quarter
            / (2 * j + 3)
            * _zeta(2.0 * s + 2 * j + 1)
        )
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
        quarter *= 0.25
    return total


# B_2, B_4, ..., B_16: the Bernoulli numbers of the Euler-Maclaurin tail
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


def _zeta(x: float) -> float:
    """Riemann zeta(x) for x > 1, by Euler-Maclaurin summation.

    The terms k^(-x) for k < 10 are summed directly; the rest of the
    series is the integral 10^(1-x)/(x-1), half of 10^(-x) and the
    corrections B_2j/(2j)! * x(x+1)...(x+2j-2) * 10^(1-x-2j) for
    j = 1..8.  ``math.fsum`` adds the terms, so only the terms round:
    against 30-digit values the result is within one ulp on
    [1.0001, 110] and within two ulp for 1 < x < 1.0001.
    """
    n = 10
    last = float(n) ** -x
    terms = [float(k) ** -x for k in range(1, n)]
    terms += [n * last / (x - 1.0), 0.5 * last]
    factorial, rising, power = 1.0, x, last / n
    for j, bernoulli in enumerate(_BERNOULLI, start=1):
        factorial *= (2 * j - 1) * (2 * j)
        terms.append(bernoulli / factorial * rising * power)
        rising *= (x + 2 * j - 1) * (x + 2 * j)
        power /= n * n
    return math.fsum(terms)


@lru_cache(maxsize=256)
def _fast_len(target: int) -> int:
    """Smallest 2^a 3^b 5^c >= target: a length pocketfft transforms fast."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < target:
            # the least power of two that lifts 3^b 5^c to the target
            candidate = p35 << ((target - 1) // p35).bit_length()
            if candidate < best:
                best = candidate
            p35 *= 3
        if p35 < best:
            best = p35
        p5 *= 5
    return best


def _spectrum(omega: np.ndarray, length: int) -> np.ndarray:
    """Real spectrum of the even circulant holding omega[m] at m and L - m.

    Offsets past length // 2 cannot occur in a product of this length,
    so only omega[:length // 2 + 1] is embedded.
    """
    k = min(omega.size, length // 2 + 1)
    gen = np.zeros(length, dtype=np.float64)
    gen[:k] = omega[:k]
    gen[length - k + 1 :] = omega[k - 1 : 0 : -1]
    spec = np.ascontiguousarray(np.fft.rfft(gen).real)
    spec.flags.writeable = False
    return spec


class _Scratch(threading.local):
    """FFT work arrays by length, one set per thread."""

    def __init__(self) -> None:
        self.by_length: dict[int, tuple[np.ndarray, ...]] = {}


def _prefix(omega: np.ndarray) -> np.ndarray:
    """prefix[m] = sum of omega[1..m]."""
    return np.concatenate(([0.0], np.cumsum(omega[1:])))


def _row_sums(
    p: np.ndarray, row_lo: int, row_hi: int, col_lo: int, col_hi: int
) -> np.ndarray:
    """sum_j W[i][j] over columns [col_lo, col_hi) from prefix sums ``p``."""
    a = max(row_lo, min(row_hi, col_lo))  # first row not left of the columns
    b = max(a, min(row_hi, col_hi))  # first row right of the columns
    left = p[col_hi - a : col_hi - row_lo] - p[col_lo - a : col_lo - row_lo]
    inside = p[a - col_lo : b - col_lo] + p[col_hi - b : col_hi - a][::-1]
    right = p[b - col_lo : row_hi - col_lo] - p[b - col_hi : row_hi - col_hi]
    return np.concatenate((left[::-1], inside, right))


def _nodal(u: np.ndarray, n: int) -> np.ndarray:
    """``u`` as an array of ``n`` finite float values, else ValueError."""
    v = np.asarray(u, dtype=np.float64)
    if v.shape != (n,):
        raise ValueError(f"field has shape {v.shape} but the grid has {n} nodes")
    if not np.all(np.isfinite(v)):
        raise ValueError("field values must be finite")
    return v


def _exact_mean(v: np.ndarray) -> float:
    """Mean of ``v``; exactly v[0] when every entry equals it."""
    if (v == v[0]).all():
        # keep constants exact instead of picking up mean round-off
        return float(v[0])
    return float(v.sum()) / v.size


@dataclass(frozen=True, eq=False)
class KernelTable:
    """Cell-integrated kernel weights for one uniform grid.

    The full weight matrix is Toeplitz, so only the offset generator is
    stored; ``dense()`` materialises it for small grids.  Weights and
    tail coefficients are kept unscaled (pure kernel integrals); the
    normalizing constant ``c_ns`` is applied by the operators that
    consume the table.

    Each table makes, on first use and for itself alone, the circulant
    spectra of ``omega`` by FFT length (``spectrum``), the row sums by
    block (row_lo, row_hi, col_lo, col_hi) (``row_sums``), both kept
    read-only, and each thread's FFT work arrays by length
    (``scratch``), so a product allocates only its result.  A Neumann
    solve's table on the FFT path makes two lengths, the products' and
    P^-1's (1 500 and 500 on the default grid at d = 0.2), and four
    blocks: W[:, I], W[I, :] and the two collar blocks W[I, E].  On the
    low-rank form the descent's W_II runs at P^-1's length (10 800 at
    d = 0.0431, ``_fast_len(2 n_I - 1)``), the factor's build reads the
    row sums of W[:, I] and W[I, :], and only the figures add the block
    length (32 400) and the collar blocks.  On the dense form the
    assembly reads W[:, I] and W[I, :] and P^-1's length
    (240 at d = 0.2936); only a nonconstant result's figures add the
    products' length (720) and the collar blocks.  Row sums come from
    prefix sums of omega, made afresh for each new block and not kept.
    """

    grid: Grid | LineGrid
    s: float
    c_ns: float
    omega: np.ndarray = field(repr=False)
    tail: np.ndarray = field(repr=False)
    pv_coeff: float

    spectra: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)
    block_sums: dict[tuple[int, int, int, int], np.ndarray] = field(
        default_factory=dict, init=False, repr=False
    )
    work: _Scratch = field(default_factory=_Scratch, init=False, repr=False)

    # -- element access -------------------------------------------------

    @property
    def h(self) -> float:
        return self.grid.h

    @property
    def n_nodes(self) -> int:
        return self.grid.n_nodes

    def dense(self) -> np.ndarray:
        """Full weight matrix; intended for small grids and tests."""
        idx = np.arange(self.n_nodes)
        return self.omega[np.abs(idx[:, None] - idx[None, :])]

    def spectrum(self, length: int) -> np.ndarray:
        spec = self.spectra.get(length)
        if spec is None:
            spec = self.spectra[length] = _spectrum(self.omega, length)
        return spec

    def scratch(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """This thread's (signal, coefficients) arrays of one length."""
        arrays = self.work.by_length.get(length)
        if arrays is None:
            arrays = self.work.by_length[length] = (
                np.empty(length, dtype=np.float64),
                np.empty(length // 2 + 1, dtype=np.complex128),
            )
        return arrays

    # -- banded reductions ------------------------------------------------

    def matvec(
        self,
        x: np.ndarray,
        row_lo: int,
        row_hi: int,
        col_lo: int,
        col_hi: int,
    ) -> np.ndarray:
        """y[i] = sum_j W[i][j] * x[j - col_lo] for the given index ranges.

        ``x`` has length col_hi - col_lo.  The block reaches offsets up
        to k = max(row_hi - 1 - col_lo, col_hi - 1 - row_lo), so it is
        convolved at L = ``_fast_len(2k + 1)``, the smallest 5-smooth
        length that holds it, against the circulant spectrum of that
        length: ``x`` is placed at col_lo - base in a zero vector of
        length L, with base = min(row_lo, col_lo), and rows are read
        from row_lo - base.  The full product (0, n, 0, n) has base 0
        and L = ``_fast_len(2n - 1)``.  The transforms are numpy's
        pocketfft, run in this thread's work arrays of that length, and
        the rows are returned as a fresh array, so threads may share a
        table.  Round-off is of order eps * ||W||_inf * ||x||_inf, not
        relative per entry.
        """
        if x.shape != (col_hi - col_lo,):
            raise ValueError("operand length must match the column range")
        if row_hi <= row_lo:
            return np.empty(0, dtype=np.float64)
        reach = max(row_hi - 1 - col_lo, col_hi - 1 - row_lo)
        size = _fast_len(2 * reach + 1)
        base = min(row_lo, col_lo)
        signal, coeffs = self.scratch(size)
        start, stop = col_lo - base, col_hi - base
        signal[:start] = 0.0
        signal[start:stop] = x
        signal[stop:] = 0.0
        np.fft.rfft(signal, out=coeffs)
        coeffs *= self.spectrum(size)
        # the inverse transform overwrites the signal it no longer needs
        np.fft.irfft(coeffs, size, out=signal)
        return signal[row_lo - base : row_hi - base].copy()

    def row_sums(
        self, row_lo: int, row_hi: int, col_lo: int, col_hi: int
    ) -> np.ndarray:
        """sum_j W[i][j] over columns [col_lo, col_hi) for each row.

        Evaluated through prefix sums of the offset generator; the
        diagonal (offset zero) never contributes.  The result is
        read-only and made once per block and table.
        """
        key = (row_lo, row_hi, col_lo, col_hi)
        sums = self.block_sums.get(key)
        if sums is None:
            sums = self.block_sums[key] = _row_sums(_prefix(self.omega), *key)
            sums.flags.writeable = False
        return sums


def kernel_weights(grid: Grid | LineGrid, params: Params) -> KernelTable:
    """Assemble the weight table for ``grid`` at fractional order params.s.

    Cell integrals use the exact antiderivative of the kernel; the tail
    coefficients close the window with the analytic complement on both
    sides, measured from each node to the respective window edge.  Each
    call builds its own read-only arrays, which depend on (n, h, s)
    alone: a translated domain gets the same bits, and the arrays live
    as long as the table.
    """
    s = params.s
    h = grid.h
    n = grid.n_nodes

    # omega[m] = ((m-1/2)^(-2s) - (m+1/2)^(-2s)) * h^(-2s) / (2s); the
    # diagonal entry is zero (its cell is handled by the PV rule).
    m = np.arange(1, n, dtype=np.float64)
    body = ((m - 0.5) ** (-2.0 * s) - (m + 0.5) ** (-2.0 * s)) * (
        h ** (-2.0 * s) / (2.0 * s)
    )
    omega = np.concatenate(([0.0], body))

    # node i sits (i + 1/2) h and (n - i - 1/2) h from the window edges;
    # index arithmetic avoids coordinate cancellation on translated windows
    k = np.arange(n, dtype=np.float64)
    tail = (((k + 0.5) * h) ** (-2.0 * s) + ((n - k - 0.5) * h) ** (-2.0 * s)) / (
        2.0 * s
    )
    for a in (omega, tail):
        a.flags.writeable = False

    pv = (0.5 ** (2.0 - 2.0 * s) / (2.0 * (1.0 - s)) + _curvature_defect(s)) * h ** (
        -2.0 * s
    )

    return KernelTable(
        grid=grid,
        s=s,
        c_ns=normalizing_constant(1, s),
        omega=omega,
        tail=tail,
        pv_coeff=pv,
    )


def frac_laplacian_apply(u: np.ndarray, table: KernelTable) -> np.ndarray:
    """Discrete fractional Laplacian of ``u`` at every node of the table.

    Combines the cell-integrated differences, the analytic window tail
    against a zero far field, and the principal-value Taylor rule for
    the node's own cell (a central second difference; one-sided at the
    two outermost nodes, where accuracy degrades).  ``u`` holds one
    finite value per node and is taken as zero beyond the window;
    anything else raises ValueError.  Returns the c_ns-scaled operator
    values, one per node.
    """
    return _frac_laplacian(_nodal(u, table.n_nodes), table)


def _frac_laplacian(v: np.ndarray, table: KernelTable) -> np.ndarray:
    """``frac_laplacian_apply`` of a checked nodal array ``v``."""
    n = v.size
    conv = table.matvec(v, 0, n, 0, n)
    sums = table.row_sums(0, n, 0, n)
    full = v * sums - conv + table.tail * v

    # Second-difference Taylor rule: -u'' times the joined second moment
    # (own cell plus curvature defect), one-sided at the outermost nodes.
    pv = np.empty(n, dtype=np.float64)
    pv[1:-1] = 2.0 * v[1:-1] - v[:-2] - v[2:]
    pv[0] = v[0] - v[1]
    pv[-1] = v[-1] - v[-2]
    full += table.pv_coeff * pv
    return table.c_ns * full


def _symbol(table: KernelTable, n: int, scale: float, pv: float):
    """Length L = ``_fast_len(2n)`` and the symbol of P at that length.

    The real spectrum 1 + scale (w(0) - w(k)) + scale pv (2 - 2 cos
    2 pi k/L), with w the table's spectrum of length L: the symbol of
    the identity plus scale times the pair sums and pv times the second
    difference.  Every entry is at least 1.
    """
    size = _fast_len(2 * n)
    spec = table.spectrum(size)
    second = 2.0 - 2.0 * np.cos(np.arange(spec.size) * (2.0 * math.pi / size))
    return size, 1.0 + scale * (spec[0] - spec) + (scale * pv) * second


def _symbol_inverse(table: KernelTable, n: int, scale: float, pv: float = 0.0):
    """P^-1 on the first ``n`` nodes, P the circulant of ``_symbol``.

    The returned callable zero-pads its ``n`` values to L, divides their
    transform by the symbol and keeps the first ``n`` values of the
    inverse transform, in this thread's work arrays of length L.  That
    is R C^-1 R^T with R the restriction: symmetric, and with the symbol
    at least 1 its eigenvalues lie in (0, 1].  The descent applies it
    once per iteration.
    """
    size, symbol = _symbol(table, n, scale, pv)

    def solve(v: np.ndarray) -> np.ndarray:
        signal, coeffs = table.scratch(size)
        signal[:n] = v
        signal[n:] = 0.0
        np.fft.rfft(signal, out=coeffs)
        coeffs /= symbol
        np.fft.irfft(coeffs, size, out=signal)
        return signal[:n].copy()

    return solve


def _symbol_inverse_matrix(table: KernelTable, n: int, scale: float) -> np.ndarray:
    """The n x n matrix R C^-1 R^T that ``_symbol_inverse`` applies at pv = 0.

    C^-1 is the circulant whose first column is the inverse transform
    of 1/symbol; the symbol is even, so is that column, and with
    n <= L/2 entry (i, j) is col[|i - j|]: exactly symmetric, and one
    matrix-vector product per application.
    """
    size, symbol = _symbol(table, n, scale, 0.0)
    col = np.fft.irfft(1.0 / symbol, size)
    idx = np.arange(n)
    return col[np.abs(idx[:, None] - idx[None, :])]
