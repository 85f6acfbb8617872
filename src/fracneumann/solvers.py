"""Ground-state and least-energy solvers, continuation sweep, snapshots.

Both solvers are Nehari-projected quasi-Newton descents through the
one loop ``_nehari_descent``: every accepted iterate is folded (made
nonnegative, and even for the whole-space problem) and scaled onto the
Nehari manifold, so the objective that backtracking monitors is the
ray-sup energy M[u] = sup_t J(tu).  Critical points are detected
through the Euler-Lagrange residual of the discrete equations, not
through iterate stagnation.

Each solver hands the loop a symmetric operator A, its fold and its
grid spacing h; the quadratic part of the energy is the one dot
h u.(Au + u), and its gradient in the midpoint metric h x.y is
Au + u - u^p.  Every inner product of the loop is one such dot, and
the Neumann solver sums the flux identity only once the residual has
reached its tolerance.  Every iterate carries A u, so the residual
makes no product; along a trial ray u - alpha q, with q the L-BFGS
direction of the residual, the quadratic part expands from A q, made
once per iteration, so a trial that the fold leaves unchanged makes no
product either.  L-BFGS starts from the inverse P^-1 of the circulant
whose symbol is that of 1 + A on the solver's table
(``_symbol_inverse``): A is a fractional Laplacian whose spectrum grows
like h^(-2s), and the symbol takes that growth out of the curvature
the pairs must learn.  P^-1 is applied once per iteration, to the
residual; the memory of curvature pairs keeps P^-1 of its residual
changes by linearity and gives the direction in compact form
(``_CompactMemory``).  On the line A is
``frac_laplacian_apply``.  For the Neumann problem the unknowns are
interior values only: the Neumann extension is stationary in the
exterior values, so J_d reduces to the interior with A = d c R, R the
reduced operator of ``energy``; ``_reduced_operator`` builds A and
P^-1 and chooses, by the interior's size, between A's two forms, the
dense matrix and the low-rank one with the collar as the factor of
``lowrank``.  Each solver builds its own weight table from its grid
and parameters.  A nonconstant Neumann result's figures are taken
afresh on the extension's Toeplitz path, three products at the full
block length on either form, so they check the descent's A
independently; the constant branch u = 1 has exact figures in closed
form, so a constant-branch solve on the dense form makes no Toeplitz
product at all.  Results keep the interior values only; ``extend``
rebuilds the collar where an output needs it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .energy import (
    _nehari_ray,
    _neumann,
    _neumann_matrix,
    _neumann_operator,
    _tail_term,
    _whole_space,
)
from .grids import _MAX_NODES, Grid, LineGrid, Params, build_grid
from .kernel import (
    KernelTable,
    _frac_laplacian,
    _symbol_inverse,
    _symbol_inverse_matrix,
    kernel_weights,
)
from .lowrank import _collar_factors
from .neumann import extend

__all__ = [
    "SolverConfig",
    "GroundStateResult",
    "LeastEnergyResult",
    "SweepRecord",
    "ConvergenceError",
    "SweepAborted",
    "solve_ground_state",
    "solve_least_energy",
    "sweep",
    "default_grid_policy",
    "transplant_ground_state",
    "record_from_result",
    "J_d_constant",
    "save_snapshot",
    "load_snapshot",
]

# Internal gate on the volume (flux) identity, an order below what the
# identity checks downstream ask for.
_FLUX_TOL = 1e-7

# Step of the first descent iteration, along the residual; once two
# iterates give a positive curvature du . dr, L-BFGS takes over, and a
# search along the residual starts from the Barzilai-Borwein step.
_FIRST_STEP = 0.1

# Curvature pairs the L-BFGS direction keeps, each as du and P^-1 dr in
# ``_CompactMemory``'s block, 2 _MEMORY n floats in all.  From the kernel's
# circulant symbol the first 11 default-ladder points take 178
# iterations with 10 pairs and 209 with 5, the default sweep 214 and
# 247; from a scalar initial Hessian 5 pairs took 440 on the sweep,
# Barzilai-Borwein steps 811.  Near p = 1 more pairs cost iterations
# instead (the ground state at s = 0.45, p = 1.02: 71 against 59).
_MEMORY = 10

# The integrals int u^r a sweep record keeps, as (label, r) with None
# standing for r = p + 1.  The sweep CSV columns, the quantities
# ``scaling_fit`` accepts and the CLI's ``fit --quantity r:...`` names
# all follow from this one table.  int u^r ~ d^(n/2s) holds only above
# the tail threshold r > n/(n+2s); below it the tail u ~ (eps/x)^(n+2s)
# dominates and int u^r ~ d^((n+2s) r/2s), which is 1.5 for L0.5 at
# n = 1, s = 1/4.
_LR_COLUMNS = (("L0.5", 0.5), ("L1", 1.0), ("L2", 2.0), ("Lp1", None), ("L4", 4.0))


class ConvergenceError(RuntimeError):
    """Raised when a descent run fails; carries the residual history."""

    def __init__(self, message: str, history: list[float]):
        super().__init__(message)
        self.history = list(history)


class SweepAborted(RuntimeError):
    """Raised when a sweep member fails; carries the finished records."""

    def __init__(self, message: str, records: list["SweepRecord"]):
        super().__init__(message)
        self.records = list(records)


@dataclass(frozen=True)
class SolverConfig:
    tol_residual: float = 1e-8
    max_iters: int = 50000

    def __post_init__(self) -> None:
        value = self.tol_residual
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"tol_residual must be positive and finite, got {value}")
        if (
            not isinstance(self.max_iters, int)
            or isinstance(self.max_iters, bool)
            or self.max_iters < 1
        ):
            raise ValueError(
                f"max_iters must be an integer of at least 1, got {self.max_iters!r}"
            )


@dataclass(frozen=True, eq=False)
class GroundStateResult:
    w: np.ndarray
    grid: LineGrid
    F_value: float
    pohozaev_residual: float
    decay_exponent_fit: float
    el_residual: float
    iterations: int
    peak_history: np.ndarray = field(repr=False, default=None)


@dataclass(frozen=True, eq=False)
class LeastEnergyResult:
    """A Neumann least-energy solution and its figures.

    ``u`` holds the read-only interior values on ``grid``; the collar
    follows from them by ``extend``.
    """

    u: np.ndarray
    grid: Grid
    c_d: float
    M_d: float
    argmax_x: float
    nehari_residual: float
    flux_residual: float
    iterations: int
    constant_branch: bool
    el_residual: float
    peak_history: np.ndarray = field(repr=False, default=None)


@dataclass(frozen=True)
class SweepRecord:
    """Per-diffusion diagnostics emitted by a continuation sweep.

    ``lr_norms`` maps the labels of ``_LR_COLUMNS`` to the raw integrals
    int_domain u^r for r in {0.5, 1, 2, p+1, 4}; the scaling laws act on
    these integrals directly.  The sup is ``sup_u``.
    """

    d: float
    c_d: float
    sup_u: float
    argmax_x: float
    dist_boundary: float
    lr_norms: dict[str, float]
    nehari_res: float
    flux_res: float
    constant_branch: bool


# ---------------------------------------------------------------------------
# whole-space ground state


class _CompactMemory:
    """The last ``_MEMORY`` curvature pairs of a descent, in compact form.

    A pair is s = du and y = dr, the changes of iterate and residual
    between two iterations, and z = P^-1 y, the change of P^-1 r.  The
    memory stores s and z, never y, as the rows of one (``_MEMORY``, 2,
    n) ``block``: a ring of slots in which a new pair takes the slot of
    the oldest, so no row moves.  Beside it, in the same slot order, it
    keeps R^-1 for R_ij = <s_i, y_j> when pair i is not newer than pair
    j (else 0, so R is upper triangular in the pairs' age order), R's
    diagonal D, and G_ij = <z_i, y_j> = <y_i, P^-1 y_j>, symmetric
    because P^-1 is.  Byrd, Nocedal and Schnabel's compact
    representation (Math. Prog. 63, 1994) of the L-BFGS inverse
    Hessian from gamma P^-1, gamma = D_k / G_kk of the newest pair k,
    gives with a = <S, r>, b = <Z, r> and t = R^-1 a

        H r = gamma P^-1 r + S R^-T (D t + gamma (G t - b)) - gamma Z t,

    the direction of Nocedal's two-loop recursion.  <., .> is the plain
    dot product: the direction does not change when the inner product
    is scaled, so the spacing h drops out.  A direction
    costs two products with the block, one for a and b and one for the
    combination of its rows; an append costs one, with dr, which gives
    R's new column and G's new row and column.  The oldest pair leaves
    R^-1 as its zeroed row and column, since R^-1 of the younger pairs
    is the trailing block of an upper triangular inverse, and the new
    pair's column follows from the bordered update.
    """

    def __init__(self, n: int):
        self.block = np.empty((_MEMORY, 2, n))
        self.rinv = np.empty((_MEMORY, _MEMORY))
        self.g = np.empty((_MEMORY, _MEMORY))
        self.d = np.empty(_MEMORY)
        self.coef = np.empty(2 * _MEMORY)
        self.clear()

    def __len__(self) -> int:
        return self.k

    def clear(self) -> None:
        """Forget every pair; the next one takes slot 0."""
        self.k = 0  # pairs held, in slots 0 to k - 1
        self.newest = -1
        self.gamma = 0.0

    def _fill(self, k: int) -> None:
        """Hold k pairs: views of the first k slots, rows s, z, s, z, ..."""
        self.k = k
        self.rows = self.block[:k].reshape(2 * k, -1)
        self.rinv_k = self.rinv[:k, :k]
        self.g_k = self.g[:k, :k]
        self.d_k = self.d[:k]
        self.coef_k = self.coef[: 2 * k]

    def append(self, du: np.ndarray, dr: np.ndarray, dz: np.ndarray) -> None:
        """Keep the pair (du, dr) with dz = P^-1 dr; drop the oldest when full."""
        j = self.newest = (self.newest + 1) % _MEMORY
        if self.k < _MEMORY:
            self._fill(self.k + 1)
        slot = self.block[j]
        slot[0] = du
        slot[1] = dz
        products = self.rows @ dr
        sy, zy = products[0::2], products[1::2]
        curv = sy[j]
        rinv = self.rinv_k
        # drop the oldest pair's row and column, or a new slot's stale ones
        rinv[j] = 0.0
        rinv[:, j] = 0.0
        rinv[:, j] = (rinv @ sy) / -curv
        rinv[j, j] = 1.0 / curv
        self.g_k[j] = zy
        self.g_k[:, j] = zy
        self.d[j] = curv
        self.gamma = float(curv / zy[j])

    def direction(self, r: np.ndarray, pr: np.ndarray) -> np.ndarray:
        """The L-BFGS direction H r of the residual ``r``, with ``pr`` = P^-1 r."""
        gamma, rows, rinv, coef = self.gamma, self.rows, self.rinv_k, self.coef_k
        products = rows @ r
        t = rinv @ products[0::2]
        coef[0::2] = rinv.T @ (
            self.d_k * t + gamma * (self.g_k @ t - products[1::2])
        )
        coef[1::2] = -gamma * t
        q = coef @ rows
        q += gamma * pr
        return q


def _nehari_descent(u0, apply, precondition, fold, h, p, residual, config, history):
    """Nehari-projected quasi-Newton descent shared by both solvers.

    ``apply(v)`` is the symmetric operator A of the quadratic part
    h v.(Av + v), ``precondition(v)`` applies P^-1 for a symmetric
    positive definite P close to 1 + A (the solver's
    ``kernel._symbol_inverse``, or its matrix on a small Neumann
    interior) and must be linear, ``fold(v)`` maps a field to the
    admissible cone (nonnegative, and even on the line), ``h`` is the
    grid spacing and ``p`` the exponent.  Every iterate is a folded
    field scaled onto the Nehari manifold and carries A u.
    ``residual(u, au)`` returns the Euler-Lagrange residual, its size
    and whether the iterate converged, and appends to ``history``
    itself.  Returns the converged iterate, its A u, the iteration
    count, the residual size and the ray-sup energy of every iteration.
    The loop is an instance of Li and Zhou's minimax descent on the
    Nehari manifold (SIAM J. Sci. Comput. 23, 2001).

    Every inner product of the loop is one dot, h x.y in the midpoint
    metric, and a quadratic part is one dot too, h v.(Av + v); only the
    potential h sum v^(p+1) keeps ``Grid.integrate``'s arithmetic.

    The direction q is L-BFGS (Nocedal, Math. Comp. 35, 1980) over
    the last ``_MEMORY`` pairs (du, dr) of iterate and residual
    changes, keeping a pair only when du.dr > 0, from the initial
    inverse Hessian gamma P^-1 with gamma = du.dr / dr.P^-1 dr of the
    newest pair.  ``_CompactMemory`` holds the pairs and gives the
    two-loop recursion's direction in compact form, from three
    products with one block of du and P^-1 dr, the difference of the
    P^-1 r of a pair's two iterates, so it needs no P^-1 of its own and
    stores no dr.  Its first trial is alpha = 1.  Without a pair, or when
    r.q <= 0, the direction is the residual r itself, not
    preconditioned, the memory is cleared and the first trial is the
    Barzilai-Borwein step du.du / du.dr, ``_FIRST_STEP`` before any pair.

    Each iteration makes A q once and applies P^-1 once, to r, the
    first iteration included.  Along u - alpha q the quadratic part
    expands from A u and A q, so a trial that ``fold`` leaves unchanged
    makes no product; a trial that it changes is projected in full.
    Only an accepted trial forms its scaled t0 v and t0 Av.  Steps
    halve until the Armijo condition on h r.q holds for the
    ray-sup energy, or the energy stays within a round-off band of its
    last value: 1e-14 relative, widened by (p+1)/(5(p-1)) below
    p = 1.5, where the ray amplifies the round-off of the quadratic part
    more than fivefold.

    A search along q that halves to its floor clears the memory and
    searches again along r from the Barzilai-Borwein step, at one more
    product; near p = 1 the curvature pairs can point q where the band
    cannot resolve the energy.  A search along r that halves to its
    floor raises ``ConvergenceError`` at once: it leaves the iterate,
    the residual and the memory unchanged, so every later iteration
    would repeat the same rejected search.

    The Nehari scale (Q/P)^(1/(p-1)) leaves the float range when p is
    near 1 or the domain is tiny: a trial whose scale or peak is not
    finite reads as peaking at +inf and is rejected, and such a start
    raises ``ConvergenceError`` naming p.
    """

    def ray(v, quad):
        """Nehari scale t0 and ray-sup energy of the folded field ``v``."""
        pot = h * float(np.add.reduce(v ** (p + 1.0)))
        if pot <= 0.0 or not math.isfinite(pot):
            raise ConvergenceError("iterate collapsed to the trivial limit", history)
        try:
            # a peak past the float range is inf, a power past it raises
            return _nehari_ray(quad, pot, p)
        except OverflowError:
            return math.inf, math.inf

    def project(v):
        av = apply(v)
        return (v, av, *ray(v, h * float(v @ (av + v))))

    # the ray amplifies the quadratic part's relative round-off by
    # (p+1)/(p-1): 5 at p = 1.5, 101 at p = 1.02
    band = 1e-14 * max(1.0, (p + 1.0) / (5.0 * (p - 1.0)))

    def search(q, rq, alpha):
        """Accepted (t0 v, t0 Av, peak) along u - alpha q, or None at the floor."""
        # the quadratic part of u - alpha q is q0 - 2 alpha q1 + alpha^2 q2,
        # with u.Aq = q.Au by the symmetry of A
        aq = apply(q)
        aqq = aq + q
        q0 = h * float(u @ (au + u))
        q1 = h * float(u @ aqq)
        q2 = h * float(q @ aqq)
        del aqq  # not held through the trials
        floor = 1e-14 * alpha
        while alpha > floor:
            v = u - alpha * q
            w = fold(v)
            if (w == v).all():
                av = None
                t0, tpeak = ray(v, q0 - 2.0 * alpha * q1 + alpha * alpha * q2)
            else:
                v, av, t0, tpeak = project(w)
            # near the energy's round-off floor descent cannot be
            # strict; a one-round-off band lets the step polish the
            # residual while staying non-increasing to within the band
            if tpeak <= peak - 1e-4 * alpha * rq or tpeak <= peak * (1.0 + band):
                if av is None:
                    av = au - alpha * aq
                return t0 * v, t0 * av, tpeak
            alpha *= 0.5
        return None

    v, av, t0, peak = project(fold(u0))
    if peak == math.inf:
        raise ConvergenceError(
            f"the Nehari scale (Q/P)^(1/(p-1)) of the start overflows at p = {p}",
            history,
        )
    u, au = t0 * v, t0 * av
    peaks = [peak]
    memory = _CompactMemory(u.size)
    prev_u: np.ndarray | None = None
    prev_r: np.ndarray | None = None
    prev_pr: np.ndarray | None = None
    step = _FIRST_STEP

    for it in range(config.max_iters):
        r, size, converged = residual(u, au)
        if converged:
            return u, au, it, size, np.array(peaks)

        pr = precondition(r)
        if prev_u is not None:
            du, dr = u - prev_u, r - prev_r
            curv = float(du @ dr)
            if curv > 0.0:
                step = min(max(float(du @ du) / curv, 1e-6), 1e3)
                memory.append(du, dr, pr - prev_pr)
        prev_u, prev_r, prev_pr = u, r, pr

        accepted = None
        if memory:
            q = memory.direction(r, pr)
            rq = h * float(r @ q)
            if rq > 0.0:
                accepted = search(q, rq, 1.0)
        if accepted is None:
            memory.clear()
            accepted = search(r, h * float(r @ r), step)
        if accepted is None:
            raise ConvergenceError(
                f"step rejected at iteration {it} (residual {size:.3e})", history
            )
        u, au, peak = accepted
        peaks.append(peak)

    raise ConvergenceError(
        f"no convergence after {config.max_iters} iterations "
        f"(last residual {history[-1]:.3e})",
        history,
    )


def solve_ground_state(
    params: Params,
    grid: LineGrid,
    config: SolverConfig = SolverConfig(),
) -> GroundStateResult:
    """Least-energy solution of (-Lap)^s w + w = w^p on the line.

    Projected descent: each iterate is replaced by its absolute value,
    symmetrized by averaging with its reflection, and scaled onto the
    Nehari manifold; steps follow the L-BFGS direction of the
    Euler-Lagrange residual, symmetrized too, with backtracking on the
    ray-sup energy.  Convergence is declared when the residual drops
    below ``tol_residual`` in sup norm over the inner half of the window.

    Each iteration makes one Toeplitz product, A q of its direction q,
    however often the step halves; a trial that the fold changes is
    projected afresh, at one more.  L-BFGS starts from the inverse of
    the circulant with the symbol of 1 + c (pair sums + pv second
    difference), one transform pair per iteration at about the
    product's length.  F and the Pohozaev ratio
    of the returned profile come from integrate(w Lw), one product of
    their own.

    Raises
    ------
    ConvergenceError
        When a step is rejected, the iteration cap is reached or the
        iterate collapses to the trivial limit; the residual history
        rides on the exception.
    """
    params.require_whole_space_exponent()
    if not isinstance(grid, LineGrid):
        raise ValueError("ground-state solves need a symmetric line grid")
    if grid.half_width < 40.0:
        raise ValueError(
            f"window half-width {grid.half_width} too small; need at least 40"
        )
    table = kernel_weights(grid, params)
    p = params.p
    x = grid.nodes
    lo, hi = np.flatnonzero(np.abs(x) <= grid.half_width / 2.0)[[0, -1]]
    inner = slice(lo, hi + 1)

    history: list[float] = []

    def apply(v: np.ndarray) -> np.ndarray:
        return _frac_laplacian(v, table)

    def fold(v: np.ndarray) -> np.ndarray:
        v = np.abs(v)
        return 0.5 * (v + v[::-1])

    def residual(u: np.ndarray, au: np.ndarray) -> tuple[np.ndarray, float, bool]:
        # an even residual keeps every unclipped trial bitwise even
        r = au + u
        r -= u**p
        r = r + r[::-1]
        r *= 0.5
        res = float(np.abs(r[inner]).max())
        history.append(res)
        if float(np.abs(u).max()) < 1e-10:
            raise ConvergenceError("iterate collapsed to the trivial limit", history)
        return r, res, res <= config.tol_residual

    start = np.exp(-0.5 * x * x)
    precondition = _symbol_inverse(table, grid.n_nodes, table.c_ns, table.pv_coeff)
    u, _, iterations, res, peaks = _nehari_descent(
        start, apply, precondition, fold, grid.h, p, residual, config, history
    )
    f_val, poh, poh_scale = _whole_space(u, p, table)

    window = (np.abs(x) >= 10.0) & (np.abs(x) <= 30.0) & (u > 0.0)
    slope = np.polyfit(np.log(np.abs(x[window])), np.log(u[window]), 1)[0]
    return GroundStateResult(
        w=u,
        grid=grid,
        F_value=f_val,
        pohozaev_residual=float(abs(poh) / poh_scale),
        decay_exponent_fit=float(-slope),
        el_residual=res,
        iterations=iterations,
        peak_history=peaks,
    )


# ---------------------------------------------------------------------------
# Neumann least-energy solution

# Interior size up to which ``_reduced_operator`` takes the dense forms,
# above it the low-rank one.  Assembly grows as n_I^3, an application as
# n_I^2: with a fresh table, the dense A and P^-1 cost 1.4 ms to build at
# 200 interior nodes and 11 us an iteration (two matvecs), the factor
# 1.0 ms and 45 us (W_II, the thin products and a transform pair; one
# BLAS thread).  Whole solves of 21 to 23 iterations, as the default
# ladder's are, take 3.2 to 3.3 ms dense against 3.7 ms low-rank at 200
# nodes, 1.9 against 3.4 ms at 117, tie at 223 (3.8 ms) and take 4.3
# against 3.8 ms at 250.
_DENSE_INTERIOR = 200


def _reduced_operator(table: KernelTable, dc: float):
    """(apply, precondition): A = dc R and P^-1 of a Neumann solve on ``table``.

    R is the reduced operator of the interior values and P the
    circulant with the symbol of 1 + dc (pair sums) at length
    ``_fast_len(2 n_I)`` (``kernel._symbol``).  This is the one place
    that chooses their form, of two.  On at most ``_DENSE_INTERIOR``
    interior nodes A is the dense matrix dc ``_neumann_matrix`` and
    P^-1 the dense ``_symbol_inverse_matrix``, each assembled here once,
    and each application is one matrix-vector product, with no Toeplitz
    product.  Above it P^-1 is ``_symbol_inverse``, one transform pair
    of that length, and the collar terms S = W_IE D_E^-1 W_EI are
    ``lowrank._collar_factors`` U_L U_L^T and J U_R U_R^T J, built here
    once (U_R = U_L on equal collars), so that

        A v = dc (rs_I v - W_II v - U_L U_L^T v - J U_R U_R^T J v + C T C v),

    one Toeplitz product at ``_fast_len(2 n_I - 1)`` and thin products
    with n_I x r blocks, r about 20.  It agrees with dc
    ``_neumann_operator`` of the extension of v to 1e-14 of
    dc max rs_I |v| from 129 interior nodes up.
    """
    n = table.grid.n_interior
    if n <= _DENSE_INTERIOR:
        dense = dc * _neumann_matrix(table)
        inverse = _symbol_inverse_matrix(table, n, dc)
        return (lambda v: dense @ v), (lambda v: inverse @ v)

    lo, hi = table.grid.interior_range
    rs = table.row_sums(lo, hi, 0, table.n_nodes)
    tail = table.tail[lo:hi]
    left, right = _collar_factors(table)

    def apply(v: np.ndarray) -> np.ndarray:
        av = rs * v
        av -= table.matvec(v, lo, hi, lo, hi)
        if left is right:
            both = left @ (left.T @ np.column_stack((v, v[::-1])))
            av -= both[:, 0]
            av -= both[::-1, 1]
        else:
            av -= left @ (left.T @ v)
            av -= (right @ (right.T @ v[::-1]))[::-1]
        av += _tail_term(v, tail)
        av *= dc
        return av

    return apply, _symbol_inverse(table, n, dc)


def solve_least_energy(
    params: Params,
    grid: Grid,
    *,
    config: SolverConfig = SolverConfig(),
    warm: np.ndarray | None = None,
) -> LeastEnergyResult:
    """Least-energy critical point of J_d on the Neumann problem.

    Unknowns are the interior values; each iterate is made nonnegative
    and Nehari-scaled, and backtracking keeps the ray-sup energy
    non-increasing.  A converged iterate whose relative variance is
    below 1e-10 is snapped to the exact constant branch u = 1.  If the
    found nonconstant critical point sits above the constant's energy
    J_d(1), the constant branch is reported instead: the least energy
    is the smaller of the two.

    The start is ``warm`` (interior values) when given, else a bump of
    width max(2h, d^(1/2s)) at the left boundary; pass
    ``transplant_ground_state(ground, grid.interior_nodes, params)`` as
    ``warm`` to start from a whole-space ground state.  The weight
    table is built here from ``grid`` and ``params``.

    The descent's A = d c R and its L-BFGS preconditioner P^-1 come
    from ``_reduced_operator``, which states their dense and low-rank
    forms.  Each iteration applies A once, to its direction q, however
    often the step halves, A once more per trial that the absolute
    value clips, and P^-1 once.  A nonconstant result's figures are
    those of its interior values, taken on the extension's Toeplitz
    path on every grid, so they check the descent's A independently:
    c_d and the Nehari pair come from ``_neumann`` of their fresh
    extension, and ``el_residual`` from ``_residual`` with A u of that
    same extension, three products.  The constant branch's are exact
    and need none: u = 1 extends to 1, whose seminorm is 0, so quad =
    pot = int 1 and c_d = quad/2 - pot/(p+1) keep the bits of that
    route, and R 1 = 0 makes both residuals 0.  The flux residual is
    summed from u on both branches.
    """
    params.require_neumann_exponent()
    if grid.h > params.intrinsic_scale / 10.0 * (1.0 + 1e-12):
        raise ValueError(
            f"grid spacing {grid.h} does not resolve the intrinsic scale "
            f"{params.intrinsic_scale} (need h <= scale/10)"
        )
    table = kernel_weights(grid, params)
    p = params.p
    xs = grid.interior_nodes

    if warm is not None:
        u = np.asarray(warm, dtype=np.float64)
        if u.shape != xs.shape:
            raise ValueError("warm field length does not match the interior")
        if not np.all(np.isfinite(u)):
            raise ValueError("warm field must be finite")
    else:
        sigma = max(2.0 * grid.h, params.intrinsic_scale)
        u = np.exp(-(((xs - grid.a) / sigma) ** 2))

    history: list[float] = []
    dc = params.d * table.c_ns
    apply, precondition = _reduced_operator(table, dc)

    def residual(u: np.ndarray, au: np.ndarray) -> tuple[np.ndarray, float, bool]:
        r, res = _residual(u, au, p)
        history.append(res)
        # the flux identity is read only once the residual is small
        converged = res <= config.tol_residual
        return r, res, converged and _flux(u, p, grid.integrate) <= _FLUX_TOL

    u, _, iterations, _, peaks = _nehari_descent(
        u, apply, precondition, np.abs, grid.h, p, residual, config, history
    )
    del apply, precondition  # frees the collar factor before the figures

    size = grid.integrate(np.ones_like(u))
    mean = grid.integrate(u) / size
    rel_var = (
        grid.integrate((u - mean) ** 2) / (size * mean * mean)
        if mean != 0.0
        else math.inf
    )
    constant = rel_var < 1e-10
    if not constant:
        ext = extend(u, table)
        c_d, quad, pot = _neumann(ext, params, table)
        # the constant critical point may lie lower
        constant = c_d > J_d_constant(grid, params)
    if constant:
        # u = 1: exact figures without a product (see the docstring)
        u = np.ones_like(u)
        quad = pot = size
        c_d = quad / 2.0 - pot / (p + 1.0)
        res = 0.0
    else:
        au = dc * _neumann_operator(ext.values, table)
        res = _residual(u, au, p)[1]
    flux = _flux(u, p, grid.integrate)
    u.flags.writeable = False

    imax = int(np.argmax(u))
    return LeastEnergyResult(
        u=u,
        grid=grid,
        c_d=c_d,
        M_d=float(np.max(u)),
        argmax_x=float(xs[imax]),
        nehari_residual=float(abs(quad - pot) / quad),
        flux_residual=flux,
        iterations=iterations,
        constant_branch=constant,
        el_residual=res,
        peak_history=peaks,
    )


def _residual(u, au, p) -> tuple[np.ndarray, float]:
    """Neumann residual r = Au + u - u^p at ``u`` and its size.

    The size is sup |r| / max(1, sup u).
    """
    r = au + u
    r -= u**p
    return r, float(np.abs(r).max()) / max(1.0, float(u.max()))


def _flux(u, p, integrate) -> float:
    """The volume identity's residual |int (u - u^p)| / int u at ``u``."""
    total = integrate(u)
    return abs(integrate(u - u**p)) / total if total > 0.0 else math.inf


def J_d_constant(grid: Grid, params: Params) -> float:
    """Energy of the constant branch u = 1: (1/2 - 1/(p+1)) |domain|."""
    return (0.5 - 1.0 / (params.p + 1.0)) * (grid.b - grid.a)


def transplant_ground_state(
    ground: GroundStateResult,
    xs: np.ndarray,
    params: Params,
) -> np.ndarray:
    """Ground-state profile squeezed to the intrinsic scale d^(1/2s).

    The profile is centred at the left boundary point, half a cell
    before the cell-centred nodes ``xs``.  Values are interpolated from
    the stored profile; beyond its window the power tail |y|^(-(1+2s))
    continues the edge sample, matching the profile's decay law.
    """
    center = float(xs[0] - (xs[1] - xs[0]) / 2.0)
    y = (xs - center) / params.intrinsic_scale
    nodes = ground.grid.nodes
    vals = ground.w
    out = np.interp(y, nodes, vals)
    edge = float(nodes[-1])
    far = np.abs(y) > edge
    if np.any(far):
        ref = float(vals[-1])
        out[far] = ref * (edge / np.abs(y[far])) ** (1.0 + 2.0 * params.s)
    return out


# ---------------------------------------------------------------------------
# continuation sweep


def default_grid_policy(params: Params, a: float = 0.0, b: float = 1.0) -> Grid:
    """Domain grid resolving the intrinsic scale: h <= min(0.02, d^(1/2s)/10),
    on at least the 9 cells that :func:`build_grid`'s h < (b - a)/8 needs.

    Raises ValueError naming the bound when a or b is not finite, and
    naming d when that grid, with its default collar, would have more
    than ``grids._MAX_NODES`` nodes."""
    for name, value in (("a", a), ("b", b)):
        if not math.isfinite(value):
            raise ValueError(f"domain bound {name} must be finite, got {value}")
    scale = params.intrinsic_scale
    if not scale > 0.0:
        raise ValueError(f"intrinsic scale d^(1/2s) underflows to 0 at d = {params.d}")
    target = min(0.02, scale / 10.0)
    # the interior and the default collars of 2(b - a) a side
    if 5.0 * (b - a) / target > _MAX_NODES:
        raise ValueError(
            f"at d = {params.d} the spacing {target:.3g} needs more than the "
            f"{_MAX_NODES} nodes a grid may have"
        )
    n_int = max(9, int(math.ceil((b - a) / target - 1e-9)))
    h = (b - a) / n_int
    return build_grid(a, b, h)


def record_from_result(result: LeastEnergyResult, params: Params) -> SweepRecord:
    grid = result.grid
    ui = np.abs(result.u)
    lr_norms = {
        label: grid.integrate(ui ** (params.p + 1.0 if r is None else r))
        for label, r in _LR_COLUMNS
    }
    dist = min(result.argmax_x - grid.a, grid.b - result.argmax_x)
    return SweepRecord(
        d=params.d,
        c_d=result.c_d,
        sup_u=result.M_d,
        argmax_x=result.argmax_x,
        dist_boundary=dist,
        lr_norms=lr_norms,
        nehari_res=result.nehari_residual,
        flux_res=result.flux_residual,
        constant_branch=result.constant_branch,
    )


def _stretched_start(
    prev: LeastEnergyResult, prev_scale: float, xs: np.ndarray, scale: float
) -> np.ndarray:
    """The previous solution stretched about its boundary peak onto ``xs``.

    Solutions concentrate on the intrinsic scale d^(1/2s) at a boundary
    point, so the next d starts from the previous solution evaluated at
    anchor + (x - anchor) * prev_scale / scale, with anchor the domain
    end nearest the previous peak.
    """
    grid = prev.grid
    near_a = prev.argmax_x - grid.a <= grid.b - prev.argmax_x
    anchor = grid.a if near_a else grid.b
    return np.interp(
        anchor + (xs - anchor) * (prev_scale / scale),
        grid.interior_nodes,
        prev.u,
    )


def sweep(
    d_values,
    params: Params,
    grid_policy=default_grid_policy,
    config: SolverConfig = SolverConfig(),
    ground: GroundStateResult | None = None,
) -> list[SweepRecord]:
    """Continuation in decreasing d with warm starts.

    Each d gets a fresh grid from the policy.  The previous nonconstant
    solution, stretched about the domain end nearest its peak by the
    ratio of intrinsic scales d^(1/2s), is the warm start
    (``_stretched_start``).  Until a nonconstant predecessor exists the
    warm start is ``ground`` transplanted onto the grid
    (``transplant_ground_state``), or, without ``ground``, the solver's
    boundary bump.  A failing member aborts the sweep; the records
    finished so far ride on the exception.
    """
    d_list = [float(d) for d in d_values]
    if any(b >= a for a, b in zip(d_list, d_list[1:])):
        raise ValueError("d values must be strictly decreasing")

    records: list[SweepRecord] = []
    prev: tuple[LeastEnergyResult, float] | None = None  # result, its scale
    for d in d_list:
        pd = replace(params, d=d)
        try:
            grid = grid_policy(pd)
            xs = grid.interior_nodes
            warm = None
            if prev is not None:
                warm = _stretched_start(*prev, xs, pd.intrinsic_scale)
            elif ground is not None:
                warm = transplant_ground_state(ground, xs, pd)
            result = solve_least_energy(pd, grid, config=config, warm=warm)
        except (ConvergenceError, ValueError) as exc:
            raise SweepAborted(f"sweep failed at d = {d}: {exc}", records) from exc
        records.append(record_from_result(result, pd))
        if not result.constant_branch:
            prev = (result, pd.intrinsic_scale)
    return records


# ---------------------------------------------------------------------------
# text output and snapshots


def _fmt(x: float) -> str:
    """17 significant digits: the decimal text reads back to the same double."""
    return format(float(x), ".17g")


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through ``<path>.<pid>.tmp`` and a rename.

    The temporary file is deleted when the write or the rename fails.
    The finished file gets the mode a plain ``open(path, "w")`` gives.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_profile(path: str, header, nodes, values) -> None:
    """``# key = value`` lines for ``header``, then one ``x v`` line per node."""
    lines = [f"# {key} = {_fmt(value)}" for key, value in header]
    lines += [f"{_fmt(x)} {_fmt(v)}" for x, v in zip(nodes, values)]
    _atomic_write(path, "\n".join(lines) + "\n")


def save_snapshot(path: str, result: LeastEnergyResult, params: Params) -> None:
    """Plain-text solution snapshot; decimal round-trip is bit exact.

    The rows are every node of the grid, collar included, with the
    values of ``extend(result.u, table)``.
    """
    grid = result.grid
    ext = extend(result.u, kernel_weights(grid, params))
    header = (
        ("s", params.s),
        ("p", params.p),
        ("d", params.d),
        ("a", grid.a),
        ("b", grid.b),
        ("h", grid.h),
        ("R_ext", grid.r_ext),
        ("c_d", result.c_d),
        ("M_d", result.M_d),
        ("argmax_x", result.argmax_x),
    )
    _write_profile(path, header, grid.nodes, ext.values)


def _finite(where: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{where}: expected a finite number, got {text!r}")
    return value


def load_snapshot(path: str) -> tuple[dict[str, float], np.ndarray, np.ndarray]:
    """Header dict plus node and value arrays from a snapshot file.

    Raises ValueError, naming the path and line, unless every header is
    a new ``# key = value`` above the data and every data row holds two
    finite numbers, and when there are no data rows.
    """
    header: dict[str, float] = {}
    xs: list[float] = []
    vs: list[float] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            where, line = f"{path}:{lineno}", line.strip()
            if line.startswith("#"):
                key, eq, val = (part.strip() for part in line[1:].partition("="))
                if not (eq and key) or key in header or xs:
                    raise ValueError(
                        f"{where}: expected a new '# key = value' above the data"
                    )
                header[key] = _finite(where, val)
            elif line:
                fields = line.split()
                if len(fields) != 2:
                    raise ValueError(f"{where}: expected 'node value', got {line!r}")
                xs.append(_finite(where, fields[0]))
                vs.append(_finite(where, fields[1]))
    if not xs:
        raise ValueError(f"{path}: snapshot has no data rows")
    return header, np.array(xs), np.array(vs)
