"""Bounded trace buffers for instrumentation records.

The paper's idle-loop instrument writes one record per millisecond of
idle time into a pre-allocated buffer ("while space_left_in_the_buffer",
Section 2.3).  :class:`TraceBuffer` models that: a capacity-bounded,
append-only log that drops, and counts, the records that arrive once it
is full, because buffer sizing versus loop calibration (the N parameter)
is one of the paper's stated trade-offs.

:class:`IntTraceBuffer` is the specialization the idle trace actually
uses.  Its records are integer nanosecond timestamps, held as *runs*:
``(start, step, count)`` stands for the records ``start, start + step,
…``, ``count`` of them.  The fast-forward path completes whole idle
stretches as arithmetic ramps, so a trace's size follows its
elongations, not its idle milliseconds.  This module owns the run
format: :func:`expand_runs` turns runs back into every record.
"""

from __future__ import annotations

from array import array
from typing import Generic, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

__all__ = ["TraceBuffer", "IntTraceBuffer", "TraceOverflow", "expand_runs"]

T = TypeVar("T")


class TraceOverflow(RuntimeError):
    """Raised when a ramp would not fit in the buffer's space left."""


def expand_runs(starts, steps, counts) -> np.ndarray:
    """Every record of the runs ``(starts[i], steps[i], counts[i])``, in
    order, as one int64 array.  Counts must be positive."""
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    steps = np.asarray(steps, dtype=np.int64)
    if not len(counts):
        return np.zeros(0, dtype=np.int64)
    # Each record is its predecessor plus the run's step, and the first
    # record of a run its predecessor plus the gap before the run, so
    # one cumulative sum yields every timestamp exactly.
    deltas = np.repeat(steps, counts)
    heads = np.cumsum(counts) - counts
    previous = np.zeros_like(starts)
    previous[1:] = starts[:-1] + (counts[:-1] - 1) * steps[:-1]
    deltas[heads] = starts - previous
    return np.cumsum(deltas, out=deltas)


class TraceBuffer(Generic[T]):
    """Append-only record buffer with a fixed capacity.

    Once full, further records are dropped (the instrument's
    space_left_in_the_buffer check) and ``dropped`` counts them.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: Records lost to the capacity bound.  A non-zero count means
        #: the buffer no longer holds the full history — downstream
        #: integrity checks that need every record (see
        #: :mod:`repro.verify.invariants`) must treat their result as
        #: *skipped*, not *passed*.
        self.dropped = 0
        self._records: List[T] = []

    def __len__(self) -> int:
        return len(self._records)

    @property
    def full(self) -> bool:
        return len(self) >= self.capacity

    @property
    def space_left(self) -> int:
        return max(0, self.capacity - len(self))

    @property
    def lossy(self) -> bool:
        """True when the buffer dropped records: analyses over it are
        still valid for the retained window, but integrity invariants
        that require the full record stream are not evaluable."""
        return self.dropped > 0

    def append(self, record: T) -> bool:
        """Add a record.  Returns False when it was dropped."""
        if self.full:
            self.dropped += 1
            return False
        self._records.append(record)
        return True

    def records(self) -> List[T]:
        """Records in chronological order, as a fresh list.

        Every call copies; callers that only need to *read* the records
        should prefer :meth:`view` or plain iteration.
        """
        return list(self.view())

    def view(self) -> Sequence[T]:
        """Zero-copy chronological read view of the records: the live
        internal storage.  Do not mutate it; re-call after appending."""
        return self._records

    def __iter__(self) -> Iterator[T]:
        return iter(self.view())

    def last(self) -> Optional[T]:
        """Most recent record, or None when empty — O(1)."""
        if not len(self):
            return None
        return self._records[-1]

    def extend_ramp(self, start: T, step: T, count: int) -> None:
        """Append ``count`` records ``start, start+step, ...`` at once.

        Generic reference for arithmetic record types; the
        :class:`IntTraceBuffer` override stores the ramp as one run.
        The run must fit: the caller bounds ``count`` by
        :attr:`space_left` (the fast-forward batch protocol does exactly
        that).
        """
        if count <= 0:
            return
        if count > self.space_left:
            raise TraceOverflow(
                f"ramp of {count} records exceeds space_left={self.space_left}"
            )
        value = start
        append = self._records.append
        for _ in range(count):
            append(value)
            value = value + step  # type: ignore[operator]

    def clear(self) -> None:
        """Empty the buffer and forget its losses."""
        self.__init__(self.capacity)  # type: ignore[misc]


class IntTraceBuffer(TraceBuffer[int]):
    """Integer-timestamp trace buffer that stores runs of records.

    Three ``array('q')`` columns hold each run's start, step and count.
    A record appended on its own is a run of one; a fast-forward ramp is
    one run however many records it completes.  Capacity,
    :attr:`space_left`, ``dropped`` and ``len`` count records, so the
    paper's buffer-size trade-off is unchanged.
    """

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._starts = array("q")
        self._steps = array("q")
        self._counts = array("q")
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def append(self, record: int) -> bool:
        """Add one record as a run of one.  Returns False when dropped."""
        if self._len >= self.capacity:
            self.dropped += 1
            return False
        self._starts.append(record)
        self._steps.append(0)
        self._counts.append(1)
        self._len += 1
        return True

    def extend_ramp(self, start: int, step: int, count: int) -> None:
        """Append the arithmetic run ``start, start+step, ...``."""
        if count > 0:
            self.extend_ramps(((start, count),), step)

    def extend_ramps(self, ramps: Sequence[Tuple[int, int]], step: int) -> None:
        """Append each ``(start, count)`` ramp, ``count`` positive, as a
        run at ``step`` — a fast-forward jump's records in one call.
        Nothing is appended unless every record fits."""
        total = sum([count for _start, count in ramps])
        if total > self.space_left:
            raise TraceOverflow(
                f"ramp of {total} records exceeds space_left={self.space_left}"
            )
        add_start, add_step = self._starts.append, self._steps.append
        add_count = self._counts.append
        for start, count in ramps:
            add_start(start)
            add_step(step)
            add_count(count)
        self._len += total

    def runs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A snapshot of the runs: int64 ``(starts, steps, counts)``.

        Copies the run columns (never the records) so the buffer can
        keep growing while the snapshot is read.
        """
        return (
            np.array(self._starts, dtype=np.int64),
            np.array(self._steps, dtype=np.int64),
            np.array(self._counts, dtype=np.int64),
        )

    def view(self) -> List[int]:
        """Every record, expanded from the runs into a fresh list."""
        return expand_runs(self._starts, self._steps, self._counts).tolist()

    def last(self) -> Optional[int]:
        if not self._len:
            return None
        return self._starts[-1] + (self._counts[-1] - 1) * self._steps[-1]
