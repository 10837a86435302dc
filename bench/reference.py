"""
Correction for the drifting speed of the machine.

The 2-vCPU virtual machine (Intel Xeon, Python 3.11.7) the baseline was
recorded on changes speed by up to 2x within seconds, in CPU time as much as
in wall time.  Raw seconds therefore differ by 10-40% between runs of the same
code.

A sample times ``reference()``, a fixed stdlib computation, on a wall-clock
timer every ``INTERVAL_S`` while the verdict runs (under 1 ms each, so under
1% overhead), and reports its times scaled to the speed at which the
reference takes ``NOMINAL_S``:

    normalized = raw * NOMINAL_S / harmonic_mean(reference times)

The harmonic mean of times taken at even wall-clock intervals is the inverse
of the mean speed, which is what a long verdict spanning fast and slow phases
runs at.

The reference is exact rational arithmetic with ``fractions.Fraction``, the
arithmetic under orbigw's cyclotomic and series coefficients, so the program
slows with it.  Over 12 verdicts of ``verify-identities --n 5`` and 14 of
``verify_hae(5, 2)``, each in a fresh interpreter, the corrected times spread
(Q3 - Q1 over the median) 2.2% and 5.0% against 18.3% and 17.9% raw.  A
reference of dict inserts, tuples and a sort did worse on the same samples:
6.1% and 5.7%.

The reference is timed in CPU time of the calling thread
(``time.thread_time``), not in wall time.  A thread that waits for the GIL or
for a core uses no CPU time, so worker threads of the program cannot make the
reference look slower than the machine is.  The probe must run inside the
sample: timed in another process on the other vCPU, the reference correlated
with the verdict at -0.6, because the two vCPUs compete for the same host
core.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1
NOMINAL_S = 0.0008  # about the reference's time on the baseline machine


def reference() -> Fraction:
    """
    The fixed unit of work: sums and products of ``Fraction``s, in stdlib
    code only.  It must never change, or earlier figures lose their meaning.
    """
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    return acc


def time_reference() -> float:
    collecting = gc.isenabled()
    gc.disable()  # a collection would scan the program's heap, not time the reference
    start = time.thread_time()
    reference()
    elapsed = time.thread_time() - start
    if collecting:
        gc.enable()
    return elapsed


class SpeedProbe:
    """Times the reference on a wall-clock timer while the block runs."""

    def __init__(self):
        self.times: list[float] = []

    def _tick(self, signum, frame):
        self.times.append(time_reference())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.times:
            self.times.append(time_reference())
        return False

    @property
    def typical(self) -> float:
        """The reference time at the mean speed over the block."""
        return statistics.harmonic_mean(self.times)
