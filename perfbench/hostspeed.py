"""Host-speed sampling for the untraced runs.

The shared host these runs are taken on changes speed by up to half
for seconds to minutes at a time, because other tenants contend for
the same cores.  Interpreted code on it slows by about the same factor
whatever it does, so the slowdown can be measured from inside the
measuring process.  A timer signal runs a fixed reference loop every
50 ms and records how long the loop took.  The reference loop is the
benchmark's own code, so a change to the program cannot move it.

A window of the measuring process's wall time is then restated at a
fixed host speed:

    host seconds = (window - time spent in the loop)
                   x NOMINAL_NS / median(loop time within the window)

On a host that runs the loop in ``NOMINAL_NS``, host seconds equal
wall seconds.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

#: Median reference-loop time, in ns, that defines the nominal host
#: speed.  This is the slower of the two levels seen on a shared
#: 2-vCPU Intel Xeon VM.
NOMINAL_NS = 300_000
#: Seconds between samples; each sample costs under 1% of that.
INTERVAL_S = 0.05


def _reference_loop() -> int:
    total = 0
    for i in range(3000):
        total += i * i % 7
    return total


class HostSpeed:
    """Samples the reference loop from ``SIGALRM`` while started."""

    def __init__(self) -> None:
        self._starts = array("q")
        self._costs = array("q")

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        _reference_loop()
        self._starts.append(start)
        self._costs.append(time.perf_counter_ns() - start)

    def start(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start_ns: int, end_ns: int) -> float:
        """Host seconds per wall second over ``[start_ns, end_ns)`` of
        ``time.perf_counter_ns``; 1.0 when no sample fell inside."""
        costs = [
            cost
            for started, cost in zip(self._starts, self._costs)
            if start_ns <= started < end_ns
        ]
        if not costs or end_ns <= start_ns:
            return 1.0
        busy = (end_ns - start_ns - sum(costs)) / (end_ns - start_ns)
        return busy * NOMINAL_NS / statistics.median(costs)
