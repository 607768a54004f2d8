"""A clock that reads seconds at a fixed reference speed.

The benchmark shares a few cores of a host with other tenants, and the speed
a single-threaded Python process gets there drifts by a third or more, in
steps that last seconds, whatever the process does.  Wall time alone then
measures the neighbours.  This clock measures the speed while the program
runs: every PERIOD seconds a SIGALRM handler runs reference(), a fixed
pure-Python loop written here (a carry-less multiply and reduction, the kind
of work f2dyn does), so that no change to f2dyn changes it.  The program's
elapsed time, less the time spent in the handler, is read in stretches
between samples, and each stretch is scaled by NOMINAL over the median of the
last WINDOW reference times.  A reading is therefore the time the program
would take on a machine where reference() takes NOMINAL seconds; a program
that does more work reads more, at any speed of the machine.

A process's start and imports run before its clock can; run.py scales
those by reference() runs of its own just before the start and just after
the child reports ready.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PERIOD = 0.05      # seconds between speed samples
WINDOW = 3         # samples in the running median of the reference time
NOMINAL = 0.0008   # seconds reference() takes at the reference speed
WARMUP = 30        # untimed reference() runs before the first sample


def reference() -> int:
    """Carry-less products reduced modulo a degree-41 polynomial."""
    a, modulus = 0x1D3F5A7B9C, (1 << 41) | 0b1001
    x, seen = a, {}
    for i in range(80):
        product, y, shifted = 0, x ^ i, a
        while y:
            if y & 1:
                product ^= shifted
            y >>= 1
            shifted <<= 1
        while product.bit_length() > 41:
            product ^= modulus << (product.bit_length() - 42)
        seen[product & 255] = product
        x = product
    return x


class ReferenceClock:
    """Scaled seconds since start(); one instance per process."""

    def __init__(self):
        # (scaled seconds up to the last sample, seconds spent in the
        # handler, unpaused time of the last sample, current scale),
        # replaced whole so that now() reads one consistent state
        self.state = (0.0, 0.0, 0.0, 1.0)
        self.samples: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        entered = perf_counter()
        scaled, paused, last, scale = self.state
        unpaused = entered - paused
        reference()
        self.samples.append(perf_counter() - entered)
        self.state = (scaled + (unpaused - last) * scale,
                      paused + perf_counter() - entered, unpaused,
                      NOMINAL / statistics.median(self.samples[-WINDOW:]))

    def start(self) -> None:
        for _ in range(WARMUP):
            reference()
        self.state = (0.0, 0.0, perf_counter(), 1.0)
        for _ in range(WINDOW):
            self._sample()
        _, paused, last, scale = self.state
        self.state = (0.0, paused, last, scale)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        while True:  # a sample taken between the two reads: read again
            state = self.state
            t = perf_counter()
            if state is self.state:
                break
        scaled, paused, last, scale = state
        return scaled + (t - paused - last) * scale
