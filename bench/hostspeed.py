"""Host speed: a fixed reference task, timed between the passes of a run.

The benchmark's host is a 2-core VM on a shared machine, and its speed
drifts over minutes with the load of its neighbours.  The same
``sweep-cli`` pass took a median of 11.8 s over five runs and 15.0 s
over three runs twenty minutes later.  A pure-Python reference task
timed between the passes slows and speeds up with them: with a second
process competing for the VM, the median ``sweep-cli`` pass of seed 1
rose by 9 % and the pass divided by the reference time by 0.7 %.

So every pass and every set-up sample is divided by the host slowdown
measured on both sides of it: the mean time of one reference unit in
the samples just before and just after it, over ``UNIT_S``.  The result
is seconds on a host that runs one unit in ``UNIT_S``; the unscaled
times are printed beside it.  The task is
integer arithmetic on small ints in the interpreter.  It allocates
nothing, touches no numpy or scipy cache and calls nothing in
fracneumann, so no change to the package moves it.  An earlier task
that allocated an int per step ran about 15 % slower after a ``sweep-cli``
pass than before the first one, in the same process, while the passes
themselves held steady.
"""

from __future__ import annotations

import time

# Median time of one unit between the passes of the 20 runs of the
# ten-seed baseline in README.md (2-core Xeon VM), so that a typical
# run there has a slowdown near 1.
UNIT_S = 0.0065

_LOOPS = 1000
# Small ints are preallocated singletons, so a unit allocates nothing
# and its speed does not depend on the state of the heap.
_BYTES = tuple(range(256))


def _unit() -> int:
    acc = 0
    for _ in range(_LOOPS):
        for x in _BYTES:
            acc ^= x
    return acc


class HostSpeed:
    """Reference-task samples of one run, and the slowdowns they give."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.units = 0
        self.last = 1.0  # slowdown of the latest sample

    def sample(self, budget: float) -> float:
        """Run whole reference units for about ``budget`` seconds.

        Returns the slowdown this sample measured: its mean unit time
        over ``UNIT_S``, above 1 on a slower host.
        """
        start = time.perf_counter()
        units = 0
        while True:
            _unit()
            units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= budget:
                break
        self.seconds += elapsed
        self.units += units
        self.last = elapsed / units / UNIT_S
        return self.last

    def after(self, budget: float) -> float:
        """Sample, then return the mean slowdown of the last two samples.

        Called right after a timed interval, this is the slowdown
        measured on both sides of it.
        """
        before = self.last
        return (before + self.sample(budget)) / 2.0

    def slowdown(self) -> float:
        """Mean unit time over all samples of the run, over ``UNIT_S``."""
        return self.seconds / self.units / UNIT_S
