"""Calibration probe: a fixed piece of work timed between workload items.

The machines this benchmark runs on are shared, and their speed drifts by up
to 2x over minutes (a pure Python loop on a 2-core VM measured 1.1x to 1.8x
its best time in the same minute).  Every timed interval is therefore also
expressed in reference milliseconds: its wall time scaled by REFERENCE_MS
over the duration of the probes run just before and just after it.  The
probe mixes the two kinds of work cvdistill does (Python dict algebra and
small dense linear algebra) and does not use cvdistill.  It does run in the
program's process, so a change that slows the whole process (a larger heap
for the garbage collector to scan, threads or workers left running) slows
the probe too and divides out; perfbench/compare.py therefore checks that
the probe's median duration did not move between the two commits.  On one
fixed input, normalizing cut the interquartile spread of n_trunc 8 point
latencies from 0.50 to 0.09 of the median.

A probe does the work three times and keeps the median duration: a single
7 ms piece of work now and then lands in a brief slow spell that the
workload around it did not see, and one such reading would mis-scale a
whole item.

The probe must never change: its work defines the unit of every reported
time.
"""

from __future__ import annotations

import bisect
import time

# Median probe duration on the 2-core x86 VM the benchmark was defined on
# (Python 3.11, numpy 2.4, one OpenBLAS thread).  Only a unit: any constant
# works as long as it is the same on both sides of a comparison.
REFERENCE_MS = 7.0
REPEATS = 3


class Probe:
    """Runs the calibration work on demand and converts wall time into
    reference time."""

    def __init__(self, clock=time.perf_counter):
        import numpy as np
        self.clock = clock
        rng = np.random.default_rng(20130401)
        a = rng.standard_normal((36, 36)) + 1j * rng.standard_normal((36, 36))
        self._mat = a + a.conj().T
        self._eigvalsh = np.linalg.eigvalsh
        self.starts = []  # when each probe started and ended
        self.ends = []
        self.medians = []  # median duration of its repeats

    def _work(self):
        acc = {}
        for i in range(12000):
            key = (i % 7, i % 5, i % 3, i & 1)
            acc[key] = acc.get(key, 0.0) + 1.5 * i
        for _ in range(20):
            self._eigvalsh(self._mat)
            self._mat @ self._mat

    def run(self):
        """Do the fixed work REPEATS times; record when the probe started
        and ended and the median duration of the repeats."""
        start = self.clock()
        times = []
        for _ in range(REPEATS):
            t = self.clock()
            self._work()
            times.append(self.clock() - t)
        self.starts.append(start)
        self.ends.append(self.clock())
        self.medians.append(sorted(times)[REPEATS // 2])

    def durations(self):
        return list(self.medians)

    def split(self, a, b):
        """(wall seconds, reference seconds) of the interval [a, b], both
        leaving out the probes that ran inside it.

        The interval is cut at every probe inside it; each piece is scaled
        by REFERENCE_MS over the mean of the median durations of the probes
        on either side of it (one side only at the ends of the record)."""
        if not self.starts:
            raise ValueError("no probe has run")
        ref = REFERENCE_MS * 1e-3
        wall = scaled = 0.0
        i = bisect.bisect_right(self.ends, a)  # first probe ending after a
        t = a
        while t < b:
            nxt = min(self.starts[i], b) if i < len(self.starts) else b
            sides = [k for k in (i - 1, i) if 0 <= k < len(self.starts)]
            dur = sum(self.medians[k] for k in sides) / len(sides)
            wall += nxt - t
            scaled += (nxt - t) * ref / dur
            if nxt >= b:
                break
            t = self.ends[i]
            i += 1
        return wall, scaled
