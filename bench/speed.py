"""Machine-speed calibration for timings taken on a shared machine.

A fixed calibration kernel, exact rational accumulation into a sparse
dictionary and the JSON work of a small report, is timed between timed
intervals.
An interval's calibrated time is its wall time scaled by NOMINAL_S over
the mean kernel time just before and just after it, so a stretch where a
neighbour slows the processor slows the kernel alike and cancels out.  A
change to defcalc moves the interval and not the kernel, so it shows in
full.  Calibrated seconds equal wall seconds when the kernel takes
NOMINAL_S, its time on an idle 2-CPU machine with Python 3.11.
"""

from __future__ import annotations

import gc
import json
import time
from fractions import Fraction

NOMINAL_S = 0.007
INTERVAL_S = 0.05  # longest stretch of timed work between two calibrations
ZERO = Fraction(0)


def kernel(n=700):
    """Exact rational accumulation into a sparse dictionary, and the JSON
    and string work of a small report, as defcalc's inner loops and its
    command line do; the mix gives the kernel a code footprint like the
    program's, so a neighbour that crowds the caches slows both alike."""
    acc = {}
    for i in range(n):
        key = (i % 7, i % 11)
        value = acc.get(key, ZERO) + Fraction(i % 5 + 1, i % 3 + 1) * Fraction(i % 4 - 2)
        if value:
            acc[key] = value
        else:
            acc.pop(key, None)
    report = {
        f"{a}*E{b}": [{"monomial": [a, b], "name": f"e{a}", "coeff": str(c)}]
        for (a, b), c in sorted(acc.items())
    }
    for _ in range(n // 140):
        report = json.loads(json.dumps(report, indent=2, sort_keys=True))
    return report


class Speed:
    """Calibrates timed intervals against the kernel run around them."""

    def __init__(self):
        self.last = self.measure()
        self.pending = []  # (raw seconds, callback) since the last calibration
        self.since = 0.0

    @staticmethod
    def measure():
        # the collector would scan the caller's heap, whose size is no
        # measure of the processor's speed
        enabled = gc.isenabled()
        gc.disable()
        try:
            # a short untimed run first: right after other code the first
            # pass through the kernel runs from cold caches, by an amount
            # that depends on that code and not on the processor's speed
            kernel(100)
            start = time.perf_counter()
            kernel()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def add(self, raw, store):
        """Queue a raw interval; store(calibrated) is called at the next
        calibration, which happens once INTERVAL_S of work is queued."""
        self.pending.append((raw, store))
        self.since += raw
        if self.since >= INTERVAL_S:
            self.flush()

    def flush(self):
        if not self.pending:
            return
        now = self.measure()
        factor = NOMINAL_S / ((self.last + now) / 2)
        for raw, store in self.pending:
            store(raw * factor)
        self.last = now
        self.pending = []
        self.since = 0.0
