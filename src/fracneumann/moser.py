"""Moser iteration arithmetic for the uniform bound on solutions.

The bootstrap that upgrades a finite-energy solution to a bounded one
tests the equation against powers u**(2L - 1), applies the fractional
Sobolev embedding, and watches the L**(2* L_j) norms climb a geometric
ladder.  This module reproduces that ladder exactly: the exponent levels
L_j, the norm bounds M_j, and the geometric majorant that shows
sup u <= exp(m L_j) stabilises.  Everything is tracked in log space
because M_j itself overflows double precision near j = 25.

The module also provides the elementary pointwise inequality that makes
the truncated test functions admissible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import _check_dimension

__all__ = [
    "MoserParams",
    "MoserBound",
    "L_closed_form",
    "lambda_term",
    "M_sequence",
    "gamma_majorant",
    "c_star",
    "moser_bound_constant",
    "elementary_inequality_margin",
]

# The empirical growth constant C* is the maximum of lambda_j / (j + 1)
# over this working range of iteration indices.
_CSTAR_WINDOW = 30


@dataclass(frozen=True)
class MoserParams:
    """Inputs of the iteration: exponents plus the two bootstrap constants.

    ``A`` collects the embedding and equation constants multiplying each
    level's norm inflation; ``C0`` is the starting L**(2*) bound.  The
    subcriticality window 1 < p < 2* - 1 is what makes the levels L_j
    increase, so it is enforced here.
    """

    n: int = 1
    s: float = 0.25
    p: float = 1.5
    A: float = 1.0
    C0: float = 1.0

    def __post_init__(self) -> None:
        _check_dimension(self.n)
        for name in ("s", "p", "A", "C0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"parameter {name} must be finite")
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"fractional order s must lie in (0, 1), got {self.s}")
        if self.n <= 2.0 * self.s:
            raise ValueError(
                f"need n > 2s so the critical exponent is finite, got "
                f"n={self.n}, s={self.s}"
            )
        if self.A <= 0.0 or self.C0 <= 0.0:
            raise ValueError("constants A and C0 must be positive")
        if not 1.0 < self.p < self.two_star - 1.0:
            raise ValueError(
                f"exponent p must lie in (1, 2* - 1) = (1, {self.two_star - 1.0:.6g}),"
                f" got p = {self.p}"
            )

    @property
    def two_star(self) -> float:
        """Critical Sobolev exponent 2n/(n - 2s)."""
        return 2.0 * self.n / (self.n - 2.0 * self.s)


@dataclass(frozen=True)
class MoserBound:
    """Output of :func:`moser_bound_constant`.

    ``m`` is the smallest constant with eta_j <= m * L_{j-1} over the
    requested range, so sup u <= exp(m) in the limit; ``limit`` is the
    closed-form value of the majorant ratio gamma_j / (2* L_{j-1}).
    """

    m: float
    limit: float


def L_closed_form(j: int, mp: MoserParams) -> float:
    """Exponent level L_j = [(2*/2)**(j+1) (2* - p - 1) + p - 1] / (2* - 2).

    Raises ValueError, naming j, when L_j overflows double precision.
    """
    if j < 0:
        raise ValueError(f"iteration index must be nonnegative, got {j}")
    ts = mp.two_star
    try:
        level = ((ts / 2.0) ** (j + 1) * (ts - mp.p - 1.0) + mp.p - 1.0) / (ts - 2.0)
    except OverflowError:
        level = math.inf
    if not math.isfinite(level):
        raise ValueError(f"L_j overflows double precision at j = {j}")
    return level


def lambda_term(j: int, mp: MoserParams) -> float:
    """Per-level inflation lambda_j = (2*/2) (log A + log L_j) of the log-norm."""
    return (mp.two_star / 2.0) * (math.log(mp.A) + math.log(L_closed_form(j, mp)))


def M_sequence(j: int, mp: MoserParams) -> float:
    """Log-norm bound eta_j = log M_j after j iteration steps.

    Defined by eta_0 = (2*/2) (log A + log C0) and the recurrence
    eta_{j+1} = (2*/2) eta_j + lambda_j.  Raises ValueError, naming j,
    when eta_j overflows double precision.
    """
    if j < 0:
        raise ValueError(f"iteration index must be nonnegative, got {j}")
    half = mp.two_star / 2.0
    eta = half * (math.log(mp.A) + math.log(mp.C0))
    for i in range(j):
        eta = half * eta + lambda_term(i, mp)
    if not math.isfinite(eta):
        raise ValueError(f"eta_j overflows double precision at j = {j}")
    return eta


def c_star(mp: MoserParams) -> float:
    """Growth constant C* = max_{j <= 30} lambda_j / (j + 1)."""
    return max(lambda_term(j, mp) / (j + 1) for j in range(_CSTAR_WINDOW + 1))


def gamma_majorant(j: int, mp: MoserParams) -> float:
    """Majorant gamma_j of eta_j built from the linear bound on lambda.

    gamma_0 = eta_0 and gamma_{j+1} = (2*/2) gamma_j + C* (j + 1);
    since lambda_j <= C* (j + 1) on the working range, eta_j <= gamma_j
    term by term.  Raises ValueError, naming j, when gamma_j overflows
    double precision.
    """
    if j < 0:
        raise ValueError(f"iteration index must be nonnegative, got {j}")
    half = mp.two_star / 2.0
    cs = c_star(mp)
    gamma = M_sequence(0, mp)
    for i in range(j):
        gamma = half * gamma + cs * (i + 1)
    if not math.isfinite(gamma):
        raise ValueError(f"gamma_j overflows double precision at j = {j}")
    return gamma


def moser_bound_constant(mp: MoserParams, J: int) -> MoserBound:
    """Uniform-bound constant from J iteration steps.

    Returns the smallest m with eta_j <= m * L_{j-1} for 1 <= j <= J,
    together with the closed-form limit of the majorant ratio
    gamma_j / (2* L_{j-1}), namely
    (2* - 2) (eta_0 + 2 C* 2* (2* - 2)**-2) / (2* (2* - p - 1)).
    """
    if J < 2:
        raise ValueError(f"need at least two iteration steps, got J = {J}")
    m = max(M_sequence(j, mp) / L_closed_form(j - 1, mp) for j in range(1, J + 1))
    ts = mp.two_star
    limit = (
        (ts - 2.0)
        * (M_sequence(0, mp) + 2.0 * c_star(mp) * ts / (ts - 2.0) ** 2)
        / (ts * (ts - mp.p - 1.0))
    )
    return MoserBound(m=m, limit=limit)


def elementary_inequality_margin(x, y, k):
    """Margin (x-y)(x**(2k-1) - y**(2k-1)) - (1/k)(x**k - y**k)**2.

    Nonnegative for all x, y >= 0 and k >= 1; this is the pointwise
    inequality that lets truncated powers act as test functions.
    Accepts scalars or arrays and broadcasts.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if np.any(x < 0.0) or np.any(y < 0.0):
        raise ValueError("arguments x and y must be nonnegative")
    if np.any(k < 1.0):
        raise ValueError("power k must be at least 1")
    first = (x - y) * (x ** (2.0 * k - 1.0) - y ** (2.0 * k - 1.0))
    dk = x**k - y**k
    margin = first - dk * dk / k
    if margin.ndim == 0:
        return float(margin)
    return margin
