"""Machine-speed probe: a fixed pure-Python reference loop, timed every
half second and at every input boundary of a pass.

The machine the benchmark was defined on runs the same code up to 1.8 times
slower for phases of 5 to 40 seconds, whatever the process does.  Passes
are too long to dodge those phases, so every time the benchmark reports is
scaled to the reference speed: a duration measured while the probe read c
seconds is reported as ``duration * REFERENCE_S / c``.  The probe's own time
is taken out of every duration first.  The loop mixes rational arithmetic,
float arithmetic and small containers, like the program's exact and jet
paths, and uses nothing from the program, so no change to the program can
move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Median probe time on the reference machine (2 vCPUs, Python 3.11.7) in
# its fast phases.
REFERENCE_S = 0.0079
INTERVAL_S = 0.5
_HALF = Fraction(1, 2)


def reference_work():
    acc = Fraction(0)
    table = {}
    x = 0.5
    for i in range(700):
        f = Fraction(i % 7 - 3, i % 5 + 1)
        acc = acc * _HALF + f * f
        table[(i % 13, i % 11)] = [acc, f]
        x = x * 0.999 + (i % 3) * 0.25
    return acc, x


class SpeedProbe:
    """Samples the reference loop; ``spent`` is the probe's total time, to be
    taken out of any duration that contains samples."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.tracer = None      # open spans are paused while the probe runs
        self._busy = False

    def _measure(self):
        self._busy = True
        start = time.perf_counter()
        reference_work()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took
        self._busy = False
        return len(self.samples) - 1

    def sample(self) -> int:
        """Take a sample now; return its index."""
        if self.tracer is not None:
            return self.tracer.paused(self._measure)
        return self._measure()

    def _on_alarm(self, _signum, _frame):
        if not self._busy:
            self.sample()

    def start(self) -> int:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self.sample()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, first: int, last: int) -> float:
        """Reference-speed factor over samples ``first..last`` inclusive."""
        return REFERENCE_S / statistics.mean(self.samples[first:last + 1])
