"""Seeded inputs for the benchmark workloads.

Seed 0 reproduces the package defaults exactly: the domain (0, 1) and
the 13-point ladder ``np.geomspace(2.0, 0.02, 13)`` that ``fracneumann
sweep`` walks.

Any other seed translates the domain to (a, a + 1).  ``a`` is a
multiple of 1/64 in [-8, 8], so b - a, the spacing and every Toeplitz
weight stay bitwise the same while every node coordinate, and with it
the rounding of the kernel tails and of the transplanted start,
changes.  The problem is translation invariant, so c_d, sup u and F
must not move beyond round-off: the gate checks every seed against the
same reference.
Rounding does move the iteration count of the slowest constant-branch
solve (d = 0.294: 118 to 142 iterations over seeds 0 to 5).

Seeds keep the grid sizes on purpose.  Moving each d by up to half a
ladder step (and each ground-state spacing by up to half its factor-2
step) changed the pass time by up to 2.4x between seeds, because the FFT
Toeplitz product costs what the factorisation of rows + cols - 1
allows, and one such seed left ``solve_ground_state`` iterating for
more than eight minutes.  That spread would hide any change the
benchmark is meant to show; README.md records the measurements.

The package only ever sees the generated numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Defaults of ``fracneumann sweep``.
D_MAX = 2.0
D_MIN = 0.02
POINTS = 13

# Half-width and spacing of the ground state every CLI sweep starts from.
GROUND_L = 60.0
GROUND_H = 0.05

# Domain offsets are SHIFT_UNIT * k for |k| <= SHIFT_STEPS.
SHIFT_UNIT = 1.0 / 64.0
SHIFT_STEPS = 512


@dataclass(frozen=True)
class Inputs:
    seed: int
    a: float
    b: float
    ladder: tuple[float, ...]


def make_inputs(seed: int) -> Inputs:
    """The deterministic inputs belonging to ``seed``."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    ladder = tuple(float(d) for d in np.geomspace(D_MAX, D_MIN, POINTS))
    a = 0.0
    if seed:
        rng = np.random.default_rng(seed)
        a = SHIFT_UNIT * int(rng.integers(-SHIFT_STEPS, SHIFT_STEPS + 1))
    return Inputs(seed=seed, a=a, b=a + 1.0, ladder=ladder)
