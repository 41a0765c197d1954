"""Host-speed calibration of the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same pure-Python loop takes 5.5 ms in one second and 9 to 10 ms in the next,
and differs between the two cores, in CPU time as much as in wall time, so
the change is in the cores' speed and not in scheduling.  Medians over a run
cannot remove a drift that lasts much of the run.

While a workload runs, a timer signal runs a fixed pure-Python reference loop
every ``PERIOD_S`` seconds of wall time.  The workload's timings are taken on
``clock()``, which stops while the loop runs, so the loop costs the timed
calls nothing.  A call's calibrated time is its time on ``clock()`` times
``REF_S`` over the mean time of the reference loops run during the call,
with the nearest ones around it when there are fewer than ``MIN_LOOPS``:
the time the call would take on a host that runs the loop in exactly
``REF_S``.  Over five seeds per workload on a 2-core
x86-64 host, the run-to-run spread (IQR / median) of the uncalibrated times
was 0.06-0.45 and that of the calibrated times 0.01-0.06.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

# The reference loop's nominal time: calibrated times are what the calls
# would take on a host that runs the loop in exactly this long.
REF_S = 0.010
PERIOD_S = 0.25
# One loop's time can change by 1.8 times from one loop to the next, so the
# factor of a call that is shorter than a period would rest on two noisy
# loops: every factor averages at least this many, about three seconds'
# worth.  Over six analyze runs this took the spread of the p50 (3 ms
# calls) from 0.084 to 0.061 and left the p90 and the throughput steady.
MIN_LOOPS = 12

_reference_s = 0.0  # wall seconds spent in reference loops so far


def reference_loop() -> int:
    """Dict updates, integer arithmetic, small tuples and a set: the kind of
    work the package's pure-Python code does.  About 10 ms on a 2-core
    x86-64 host with Python 3.11."""
    d = {}
    s = 0
    for i in range(20000):
        d[i % 500] = d.get(i % 500, 0) + i
        s += i * i % 7
    seen = set()
    for t in [tuple(range(i % 10)) for i in range(5000)]:
        seen.add(t)
    return s + len(seen)


def clock() -> float:
    """Wall seconds, less the time spent in reference loops."""
    while True:
        stolen = _reference_s
        now = perf_counter()
        if stolen == _reference_s:
            return now - stolen


class Speedometer:
    """Runs the reference loop at the start, every ``PERIOD_S`` seconds while
    active, and at the end; ``factor`` turns a call's time into its
    calibrated time."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (wall start, seconds)
        self.reference_s = 0.0  # wall seconds spent in this meter's loops
        self._busy = False
        self._old_handler = None

    def calibrate(self) -> None:
        """Run the reference loop once, with the collector off, and record it."""
        global _reference_s
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        if collecting:
            gc.enable()
        self.samples.append((t0, t1 - t0))
        spent = perf_counter() - t0
        self.reference_s += spent
        _reference_s += spent
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self.calibrate()

    def __enter__(self) -> Speedometer:
        self.calibrate()
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.calibrate()

    def factor(self, start: float, end: float) -> float:
        """REF_S over the mean time of the loops run between wall times
        ``start`` and ``end``, widened to the nearest ones around until there
        are MIN_LOOPS of them (or all there are)."""
        starts = [t for t, _ in self.samples]
        lo, hi = bisect_left(starts, start), bisect_right(starts, end)
        while hi - lo < MIN_LOOPS and (lo > 0 or hi < len(starts)):
            if hi == len(starts) or (lo > 0 and start - starts[lo - 1] <= starts[hi] - end):
                lo -= 1
            else:
                hi += 1
        return REF_S / statistics.fmean(s for _, s in self.samples[lo:hi])

    def ref_ms(self) -> float:
        return statistics.median(s for _, s in self.samples) * 1e3
