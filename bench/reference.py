"""A fixed reference loop, run alongside the measured work to gauge CPU share.

The benchmark shares a small host with other tenants, which take the CPU away
from it in slices of a few milliseconds; how much they take changes from
minute to minute.  Measured work and the reference loop lose the same share
of the CPU when the loop runs interleaved with the work, so the ratio of
their times stays steady while both wall times move.  ``run.py`` reports
times as that ratio times ``REFERENCE_S``, the loop's time on an uncontended
core.

Imports only ``math`` and ``time``, so that a set-up child can load it before
timing the package's import without importing anything the package needs.
"""

import math
from time import perf_counter

#: Fastest run of ``reference_loop`` on the baseline machine (2 vCPUs, Intel
#: Xeon at 2.1 GHz, Python 3.11.7), that is its time on an uncontended core.
#: A fixed scale: it turns reference units back into seconds.
REFERENCE_S = 0.00208

_LOOP_STEPS = 6000


def reference_loop():
    """A fixed amount of pure-interpreter work that uses no package code."""
    acc = 0
    table = {}
    for i in range(1, _LOOP_STEPS):
        a = (i * 2654435761) % 1000003
        g = math.gcd(a, i + 7)
        table[a % 61] = table.get(a % 61, 0) + g
        acc += a // g
    return acc + len(sorted(table.values()))


class Reference:
    """Reference-loop runs interleaved with measured work, and their times."""

    def __init__(self):
        self.samples = []
        self._owed = 0.0

    def keep_pace(self, busy_s, share):
        """Run the loop until its total time reaches `share` of the work so far.

        `busy_s` is the measured work done since the last call.  Runs the
        loop at least once per call that owes time.
        """
        self._owed += busy_s * share
        while self._owed > 0:
            t0 = perf_counter()
            reference_loop()
            t = perf_counter() - t0
            self.samples.append(t)
            self._owed -= t

    @property
    def mean_s(self):
        return math.fsum(self.samples) / len(self.samples)

    def corrected(self, seconds):
        """`seconds` of measured work, rescaled to an uncontended core."""
        return seconds / self.mean_s * REFERENCE_S
