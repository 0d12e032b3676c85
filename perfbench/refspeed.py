"""How fast the machine runs while a workload runs.

On a shared machine the CPU's speed swings by 10-40% over seconds to
minutes, as other tenants come and go, in wall time and CPU time alike. A
fixed reference loop, timed in short slices between the workload's calls,
slows down with the workload; the benchmark's bounded timings are scaled by
the slices taken around them (``RefClock.factor``) to what they would read
on a machine where one unit of the loop takes ``REF_UNIT_US``. The loop
never calls into ``vadasr``, so a change to the package moves the scaled
timings as much as the raw ones.

Like the workloads, one unit is interpreter-bound: a few small matrix
products and ``tanh`` on a 5-frame window, then Python objects and a dict.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# One unit's time on the machine the benchmark was defined on (2-vCPU
# Intel Xeon VM, Python 3.11, numpy 2.4); any constant would do, this one
# keeps scaled timings close to raw ones there.
REF_UNIT_US = 70.0

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((5, 40))
_W1 = _rng.standard_normal((40, 64)) * 0.1
_W2 = _rng.standard_normal((64, 64)) * 0.1
_B = np.zeros(64)


class _Item:
    def __init__(self, v: int):
        self.v = v


def _unit() -> float:
    h = np.tanh(_X @ _W1 + _B)
    for _ in range(3):
        h = np.tanh(h @ _W2 + _B)
    acc: dict[int, float] = {}
    for item in [_Item(i) for i in range(60)]:
        acc[item.v % 7] = acc.get(item.v % 7, 0.0) + item.v * 0.5
    return float(h.mean(axis=0).max()) + sum(acc.values())


class RefClock:
    """Timed slices of the reference loop, in the order they were taken."""

    def __init__(self):
        self.slices: list[tuple[float, int]] = []   # (seconds, units)

    def slice(self, units: int) -> None:
        t = perf_counter()
        for _ in range(units):
            _unit()
        self.slices.append((perf_counter() - t, units))

    def unit_us(self, start: int = 0, stop: int | None = None) -> float:
        """Mean time of one unit over ``slices[start:stop]``."""
        part = self.slices[start:stop]
        return sum(s for s, _ in part) / sum(n for _, n in part) * 1e6

    def factor(self, start: int = 0, stop: int | None = None) -> float:
        """Multiply a timing taken while ``slices[start:stop]`` were taken
        by this to get it at reference speed."""
        return REF_UNIT_US / self.unit_us(start, stop)
