"""Machine speed, measured with a fixed pure-Python loop.

On a small shared VM the speed of the same code changes by up to 40% for
seconds at a time and drifts by 20% or more between minutes, as other
tenants come and go, so that a slowdown can last a whole run.  The
benchmark therefore times this loop every 0.1 s while it measures, and
reports every time scaled to the speed at which the loop takes
REFERENCE_S: a time t measured while the loop took c seconds is reported
as t * REFERENCE_S / c.  The loop runs no mlharq code, so no change to the
package can move it; a change that makes the package faster or slower
moves the scaled times just as the raw ones.
"""

import bisect
import signal
import statistics
import time

LOOPS = 100_000
# The loop's median time on the 2-vCPU VM (Intel Xeon, Python 3.11) the
# seed-state figures of ledger.json come from.
REFERENCE_S = 0.008


def loop_time():
    """Seconds one run of the calibration loop takes now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i * i
    return time.perf_counter() - t0


def slowdown(loop_times):
    """How much slower than the reference the machine ran, from the loop
    times taken while it ran; the median, so that one interrupted loop
    does not count."""
    return statistics.median(loop_times) / REFERENCE_S


class Sampler:
    """Times the loop every `every_s` seconds of wall time, on a timer
    signal, also in the middle of a long operation; with every_s None,
    only on entry and exit.

    The loop's own time is not work of the operation it interrupts:
    busy_during() gives it, for the caller to take out.
    """

    def __init__(self, every_s):
        self.every_s = every_s
        self.began = []     # perf_counter() when each loop began
        self.at = []        # perf_counter() when each loop ended
        self.took = []      # seconds each loop took

    def sample(self, *_):
        t0 = time.perf_counter()
        took = loop_time()
        self.at.append(time.perf_counter())
        self.began.append(t0)
        self.took.append(took)

    def __enter__(self):
        self.sample()
        if self.every_s:
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc):
        if self.every_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def busy_during(self, start, end):
        """Seconds the loop took between start and end."""
        first = bisect.bisect_left(self.began, start)
        last = bisect.bisect_right(self.at, end)
        return sum(self.at[i] - self.began[i] for i in range(first, last))

    def slowdown_during(self, start, end):
        """Slowdown while an operation ran from start to end: the loops
        timed during it and the nearest one on either side."""
        first = max(0, bisect.bisect_right(self.at, start) - 1)
        last = bisect.bisect_left(self.at, end)
        return slowdown(self.took[first:last + 1])
