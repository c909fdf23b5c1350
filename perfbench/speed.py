"""How fast the box runs right now, from a fixed reference computation.

On a shared 2-core sandbox the same pure-Python work took anywhere from 1.0
to 2.0 times its best time, in stretches of 5 to 30 seconds. A reference
computation that imports nothing from the package (``oracle.pal_count`` on
fixed words), timed every 50 ms next to the work, slows down by the same
factor, nearly: work time divided by the reference time moved by about a
tenth while the raw time doubled. The benchmark divides each measured time by
the mean factor (reference time over ``NOMINAL_NS``) measured while it ran,
so its gated times read as if the box ran at the speed where the reference
takes ``NOMINAL_NS``.
"""

from __future__ import annotations

import random
from time import perf_counter_ns

import oracle

NOMINAL_NS = 500_000
PERIOD_NS = 50_000_000


class Speed:
    def __init__(self):
        rng = random.Random(0)
        self._words = [oracle.random_rich(rng, 3, 60) for _ in range(4)]
        self.factors: list[float] = []  # every measurement, in order
        self._next = 0

    def measure(self) -> None:
        start = perf_counter_ns()
        for s in self._words:
            oracle.pal_count(s)
        end = perf_counter_ns()
        self.factors.append((end - start) / NOMINAL_NS)
        self._next = end + PERIOD_NS

    def tick(self) -> int:
        """Re-measure once a period has passed; returns the index of the
        current factor in ``factors``."""
        if perf_counter_ns() >= self._next:
            self.measure()
        return len(self.factors) - 1

    def since(self, index: int) -> float:
        """Mean factor from ``factors[index]`` (current when a stretch of work
        began) to the latest one."""
        recent = self.factors[index:]
        return sum(recent) / len(recent)
