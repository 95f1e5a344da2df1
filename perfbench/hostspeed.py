"""Operation cost in units of a fixed reference kernel timed beside it.

The speed of the benchmark's host drifts by up to 2x over seconds to
minutes, with the process never descheduled (process time tracks wall
time), so an operation's wall time drifts with it.  While the run phase
lasts, an interval timer interrupts it every ``SAMPLE_EVERY_S`` seconds
and times ``reference()``: fixed pure-Python arithmetic and small-array
numpy calls, the two kinds of work most of a mixedfbm operation is
made of.  An operation's cost is its wall time, less the time spent in
those interruptions, divided by the mean reference time sampled within
``WINDOW_S`` of it.  The host's drift slows both alike and mostly
cancels; a change to the program moves only the numerator.

The timer is a signal, not a thread: the handler runs in the main
thread between bytecodes, so a long call into compiled code only
delays a sample.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

SAMPLE_EVERY_S = 0.2
WINDOW_S = 1.0

_X = np.linspace(0.01, 1.0, 200)


def reference() -> float:
    """About a millisecond of fixed work; the result is discarded."""
    acc = 0.0
    for k in range(40):
        y = np.sqrt(_X * (k + 1.0)) + np.exp(-_X)
        acc += float(np.dot(y, _X))
    for i in range(3000):
        acc += (i * 0.5) % 7.0
    return acc


class Sampler:
    """Times ``reference()`` on a timer while the ``with`` block runs.

    ``samples`` holds (midpoint, seconds) of each timing, one taken on
    entry and one on exit besides those of the timer; ``spent`` is the
    total time taken by the timings.
    """

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        self._old = None
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:        # a timer signal during a timing
            return
        self._busy = True
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.samples.append(((start + end) / 2.0, end - start))
        self.spent += end - start
        self._busy = False

    def __enter__(self) -> "Sampler":
        self.sample()
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self.sample()

    def reference_s(self, start: float, end: float) -> float:
        """Mean reference time within WINDOW_S of [start, end].

        Falls back to the nearest sample when none lies that close.
        """
        mids = [m for m, _ in self.samples]
        lo = bisect.bisect_left(mids, start - WINDOW_S)
        hi = bisect.bisect_right(mids, end + WINDOW_S)
        if lo < hi:
            return statistics.fmean(d for _, d in self.samples[lo:hi])
        near = min(self.samples, key=lambda s: min(abs(s[0] - start),
                                                   abs(s[0] - end)))
        return near[1]

    def cost(self, start: float, end: float, busy_s: float) -> float:
        """``busy_s`` seconds of work between start and end, in references."""
        return busy_s / self.reference_s(start, end)
