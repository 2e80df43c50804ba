"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark runs on shared machines whose speed drifts by tens of percent
over minutes, the same for every kind of pure-Python work.  Timing this
kernel between jobs, in the same process, gives the speed the jobs ran at.
It does not touch streamfec, so no change to the program moves it.

The kernel mixes what the program's hot paths do: big-integer multiplies
(Kronecker field products), small tuples and lists, and dictionary lookups
over a working set larger than the CPU's private caches.
"""
from __future__ import annotations

import gc
import random
import statistics
import time

_TABLE_SIZE = 1 << 15   # ~4 MiB of tuples: larger than L2, like a verify pass
_STEPS = 6000
NOMINAL_S = 0.020       # the kernel's time in a typical state of a 2-CPU Xeon VM


class Reference:
    def __init__(self, seed: int = 0):
        rng = random.Random(seed)
        self._table = [(rng.getrandbits(40), rng.getrandbits(40)) for _ in range(_TABLE_SIZE)]
        self._index = [rng.randrange(_TABLE_SIZE) for _ in range(_STEPS)]
        self.samples: list[float] = []

    def _kernel(self) -> int:
        table, acc, seen = self._table, 0, {}
        for i in self._index:
            a, b = table[i]
            prod = (a * b) ^ (acc << 3)
            limbs = [(prod >> s) & 0x3FF for s in (0, 10, 20, 30, 40)]
            seen[limbs[0]] = tuple(v % 7 for v in limbs)
            acc = (acc + sum(limbs)) & 0xFFFFFFFF
        return acc + len(seen)

    def sample(self) -> None:
        """Time the kernel once, the cyclic garbage collector held off.

        A collection would scan the program's live objects too, and tie the
        kernel's time to the size of the program's heap.
        """
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if was_enabled:
                gc.enable()

    def scale(self) -> float:
        """How much slower than nominal the machine ran: mean sample / NOMINAL_S."""
        return statistics.mean(self.samples) / NOMINAL_S
