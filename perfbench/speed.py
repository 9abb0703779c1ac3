"""Scale measured times to a reference interpreter speed.

On a shared host the speed of this process swings within seconds as
neighbours come and go, and drifts by up to 2x over tens of minutes: the
same 5 s search took 2.85 s in one half hour and 5.1 s in another.
``Gauge`` times a fixed pure-Python kernel (tuples, a dict, ``Fraction``
sums, no spherecalc code) in bursts of ``BURST``, at least every
``PROBE_EVERY_S`` between operations, and scales each operation's wall
time by ``REF_NOMINAL_S`` over the kernel's median time around that
operation.  On a steady machine this is a constant factor near 1.  On a
shared 2-vCPU VM the scaled times of that search were 5.1 s and 5.7 s,
and scaling cut the quartile spread of ten chunk medians of one
operation from 15% to 2%.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

#: Nominal duration of the reference kernel: scaled times read as if the
#: kernel took exactly this long.
REF_NOMINAL_S = 0.002
PROBE_EVERY_S = 0.05
#: Probes per sampling point; one 2 ms probe alone is too noisy.
BURST = 3
#: Probes this close to an operation's start or end count for it.
WINDOW_S = 0.25


def reference_kernel() -> dict:
    table = {}
    for i in range(400):
        key = (i % 61, i % 7)
        table[key] = table.get(key, Fraction(0)) + Fraction(i, 7)
    return table


class Gauge:
    def __init__(self):
        self.at: list[float] = []  # midpoints of the probes, increasing
        self.took: list[float] = []
        self._last = float("-inf")

    def probe(self) -> None:
        for _ in range(BURST):
            start = perf_counter()
            reference_kernel()
            end = perf_counter()
            self.at.append((start + end) / 2)
            self.took.append(end - start)
        self._last = end

    def maybe_probe(self) -> None:
        """Probe unless the last probe is recent; call between operations."""
        if perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the reference speed.

        The factor comes from the probes within ``WINDOW_S`` of the
        interval, or else the nearest probe on each side.
        """
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, start + seconds + WINDOW_S)
        near = self.took[lo:hi] or self.took[max(0, lo - 1):lo + 1]
        return seconds * REF_NOMINAL_S / statistics.median(near)
