"""Idle-loop sample traces and CPU-utilization series.

A :class:`SampleTrace` is the list of trace-record timestamps produced
by the idle-loop instrument, plus the calibrated loop time.  Everything
the paper derives from its traces lives here:

* per-interval CPU utilization — "if the system spends 10 ms collecting
  a sample, and the sample includes 1 ms of idle time, the CPU
  utilization for that time interval is (10 - 1)/10 = 90%" (Section
  2.5, Figure 3);
* utilization averaged over fixed windows (Figure 4b's 10 ms averaging
  of the 1 ms-resolution data in Figure 4a);
* total busy/idle accounting over a window.

The records are held as the runs of :mod:`repro.sim.trace`: inside a
run every interval is the run's step, so elongations, slices, windows
and totals are derived from run boundaries, and :attr:`SampleTrace.times`
expands every record only for the readers that want each one.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..sim.trace import expand_runs

__all__ = ["SampleTrace"]


class SampleTrace:
    """Timestamps of idle-loop trace records, with derived series."""

    def __init__(self, record_times_ns: Sequence[int], loop_ns: int) -> None:
        times = np.asarray(record_times_ns, dtype=np.int64)
        # Each record is a run of one.
        self._init_runs(
            times, np.zeros_like(times), np.ones_like(times), loop_ns
        )
        self._times = times

    @classmethod
    def from_runs(cls, starts, steps, counts, loop_ns: int) -> "SampleTrace":
        """A trace of the runs ``(starts[i], steps[i], counts[i])``, each
        the records ``start, start + step, …`` (counts positive)."""
        trace = cls.__new__(cls)
        trace._init_runs(
            np.asarray(starts, dtype=np.int64),
            np.asarray(steps, dtype=np.int64),
            np.asarray(counts, dtype=np.int64),
            loop_ns,
        )
        return trace

    def _init_runs(self, starts, steps, counts, loop_ns: int) -> None:
        if loop_ns <= 0:
            raise ValueError(f"loop_ns must be positive, got {loop_ns}")
        lasts = starts + (counts - 1) * steps
        inner_steps = steps[counts > 1]
        if np.any(inner_steps < 0) or np.any(starts[1:] < lasts[:-1]):
            raise ValueError("sample times must be non-decreasing")
        self.loop_ns = loop_ns
        self._starts = starts
        self._steps = steps
        self._counts = counts
        self._lasts = lasts
        self._len = int(counts.sum())
        #: Longest interval inside any run: below a threshold, only the
        #: gaps between runs can exceed it.
        self._max_step = int(inner_steps.max()) if len(inner_steps) else 0
        self._times = None

    def __len__(self) -> int:
        return self._len

    @property
    def times(self) -> np.ndarray:
        """Every record's timestamp (int64), expanded once on first read."""
        if self._times is None:
            self._times = expand_runs(self._starts, self._steps, self._counts)
        return self._times

    @property
    def first_ns(self) -> int:
        """Timestamp of the first record (the trace must not be empty)."""
        return int(self._starts[0])

    @property
    def last_ns(self) -> int:
        """Timestamp of the last record (the trace must not be empty)."""
        return int(self._lasts[-1])

    @property
    def intervals_ns(self) -> np.ndarray:
        """Elapsed time between consecutive records."""
        return np.diff(self.times)

    @property
    def busy_ns_per_interval(self) -> np.ndarray:
        """Non-idle time inside each interval (interval minus loop time).

        Small negative values cannot occur on the simulator but are
        clamped anyway, mirroring the paper's compensation for loop
        overhead.
        """
        return np.maximum(self.intervals_ns - self.loop_ns, 0)

    def _intervals_over(self, threshold: float) -> Tuple[np.ndarray, np.ndarray]:
        """(start, end) arrays of the intervals longer than ``threshold``,
        in time order.  Unless a run's step exceeds the threshold, only
        the gaps between runs can; otherwise every record is read."""
        if self._max_step > threshold:
            times = self.times
            lo, hi = times[:-1], times[1:]
        else:
            lo, hi = self._lasts[:-1], self._starts[1:]
        keep = hi - lo > threshold
        return lo[keep], hi[keep]

    def per_sample_utilization(self) -> Tuple[np.ndarray, np.ndarray]:
        """(record time, CPU utilization of the preceding interval).

        This is the Figure 3 / Figure 4a representation at full
        (one-record-per-idle-millisecond) resolution.
        """
        intervals = self.intervals_ns
        if len(intervals) == 0:
            return np.array([], dtype=np.int64), np.array([], dtype=float)
        busy = np.maximum(intervals - self.loop_ns, 0)
        utilization = busy / intervals
        return self.times[1:], utilization

    def utilization_windows(
        self, window_ns: int, start_ns: int = 0, end_ns: int = 0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Average CPU utilization over fixed windows (Figure 4b).

        Each interval's busy time is spread uniformly across the
        interval, then integrated per window.  Returns (window start
        times, utilization in [0, 1]).
        """
        if window_ns <= 0:
            raise ValueError("window_ns must be positive")
        if len(self) < 2:
            return np.array([], dtype=np.int64), np.array([], dtype=float)
        t0 = start_ns if start_ns else self.first_ns
        t1 = end_ns if end_ns else self.last_ns
        if t1 <= t0:
            return np.array([], dtype=np.int64), np.array([], dtype=float)
        n_windows = int(np.ceil((t1 - t0) / window_ns))
        busy_per_window = np.zeros(n_windows, dtype=float)
        # Only intervals longer than the loop carry busy time.
        busy_lo, busy_hi = self._intervals_over(self.loop_ns)
        for lo, hi in zip(busy_lo.tolist(), busy_hi.tolist()):
            # Busy-ns per ns, spread uniformly.
            density = (hi - lo - self.loop_ns) / (hi - lo)
            first = max(0, (lo - t0) // window_ns)
            last = min(n_windows - 1, (hi - 1 - t0) // window_ns)
            for w in range(int(first), int(last) + 1):
                w_lo = t0 + w * window_ns
                w_hi = min(w_lo + window_ns, t1)
                overlap = min(hi, w_hi) - max(lo, w_lo)
                if overlap > 0:
                    busy_per_window[w] += overlap * density
        starts = t0 + window_ns * np.arange(n_windows, dtype=np.int64)
        return starts, np.clip(busy_per_window / window_ns, 0.0, 1.0)

    def total_busy_ns(self) -> int:
        """Total non-idle time covered by the trace."""
        loop = self.loop_ns
        gaps = self._starts[1:] - self._lasts[:-1]
        inside = (self._counts - 1) * np.maximum(self._steps - loop, 0)
        return int(np.maximum(gaps - loop, 0).sum() + inside.sum())

    def total_span_ns(self) -> int:
        """Wall time between first and last record."""
        if len(self) < 2:
            return 0
        return self.last_ns - self.first_ns

    def slice(self, start_ns: int, end_ns: int) -> "SampleTrace":
        """Records whose timestamps fall in [start_ns, end_ns]."""
        if end_ns < start_ns:
            raise ValueError("end_ns must be >= start_ns")
        starts, steps, counts = self._starts, self._steps, self._counts
        # Per run, the index of its first record at or after start_ns
        # and of its last record at or before end_ns.  A run with no
        # positive step is one timestamp, kept whole or not at all.
        ramp = steps > 0
        step = np.where(ramp, steps, 1)
        first = np.where(
            ramp,
            np.maximum(-((starts - start_ns) // step), 0),
            np.where(starts < start_ns, counts, 0),
        )
        last = np.where(
            ramp,
            np.minimum((end_ns - starts) // step, counts - 1),
            np.where(starts > end_ns, -1, counts - 1),
        )
        kept = last - first + 1
        keep = kept > 0
        return SampleTrace.from_runs(
            (starts + first * steps)[keep], steps[keep], kept[keep], self.loop_ns
        )

    def elongated(self, factor: float = 1.5) -> List[Tuple[int, int, int]]:
        """Intervals longer than ``factor * loop_ns``.

        Returns (interval start, interval end, busy_ns) triples — the raw
        material for event extraction.
        """
        lo, hi = self._intervals_over(self.loop_ns * factor)
        busy = np.maximum(hi - lo - self.loop_ns, 0)
        return list(zip(lo.tolist(), hi.tolist(), busy.tolist()))
