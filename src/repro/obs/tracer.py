"""Span tracing on a dual clock (simulated ns + host wall time).

A :class:`Tracer` records begin/end spans and instant events into a
bounded :class:`~repro.sim.trace.TraceBuffer` — the same overflow-
explicit structure the idle-loop instrument uses, so a lossy trace is
always visible (``dropped`` count, surfaced as an obs gauge) rather
than silently truncated.

The event vocabulary mirrors the Chrome trace-event format that
:mod:`~repro.obs.perfetto` exports: ``"B"``/``"E"`` duration spans and
``"i"`` instants, addressed by ``(pid, tid)`` — one *process* per
simulated OS personality, one *track* (tid) per simulated thread plus
a few reserved system tracks (cpu, irq, io, faults).

Timestamps are the *simulated* clock (integer nanoseconds), which is
what makes traces deterministic and comparable across runs; the host
wall clock at record time rides along in each event's ``wall_ns`` so
that harness-side stalls (a slow worker, a GC pause) remain
diagnosable.  The wall clock is injectable for tests.

:class:`NullTracer` is the pay-for-use off switch: the identical API,
every method a no-op, so instrumented code never branches on "is
tracing on?" beyond a single attribute check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..sim.trace import TraceBuffer

__all__ = ["NULL_TRACER", "NullTracer", "TraceEvent", "Tracer"]

#: Default trace-buffer capacity (events).  Big enough for a full
#: figure experiment; small enough that a runaway sweep cannot eat the
#: machine.  Overflow drops (and counts) rather than grows.
DEFAULT_CAPACITY = 1_000_000


@dataclass(frozen=True)
class TraceEvent:
    """One trace record (phase ``B``/``E``/``i``, Chrome vocabulary)."""

    phase: str
    name: str
    sim_ns: int
    wall_ns: int
    pid: int
    tid: int
    category: str = ""
    args: Optional[dict] = None


class Tracer:
    """Bounded recorder of spans and instants on (pid, tid) tracks."""

    enabled = True

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        wall_clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self._buffer: TraceBuffer[TraceEvent] = TraceBuffer(capacity)
        self._wall = wall_clock
        self._processes: Dict[int, str] = {}
        self._threads: Dict[Tuple[int, int], str] = {}
        self._process_names: Dict[str, int] = {}
        self._next_pid = 1
        self._next_tid: Dict[int, int] = {}
        #: Open-span depth per (pid, tid); ``end`` on a track with no
        #: open span is ignored, which keeps exports well-nested even
        #: when an instrumented path ends a span it never saw begin
        #: (e.g. a thread finishing outside a run segment).
        self._depth: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Track registry (processes = OS personalities, tracks = threads)
    # ------------------------------------------------------------------
    def register_process(self, name: str) -> int:
        """Allocate a pid for ``name``; repeats get a ``#n`` suffix."""
        if name in self._process_names:
            base = name
            serial = 2
            while f"{base}#{serial}" in self._process_names:
                serial += 1
            name = f"{base}#{serial}"
        pid = self._next_pid
        self._next_pid += 1
        self._processes[pid] = name
        self._process_names[name] = pid
        self._next_tid[pid] = 1
        return pid

    def register_thread(
        self, pid: int, name: str, tid: Optional[int] = None
    ) -> int:
        """Allocate (or pin) a track for one simulated thread."""
        if pid not in self._processes:
            raise ValueError(f"unknown pid {pid}")
        if tid is None:
            tid = self._next_tid[pid]
        while (pid, tid) in self._threads:
            tid += 1
        self._next_tid[pid] = max(self._next_tid[pid], tid + 1)
        self._threads[(pid, tid)] = name
        return tid

    def processes(self) -> Dict[int, str]:
        return dict(self._processes)

    def threads(self) -> Dict[Tuple[int, int], str]:
        return dict(self._threads)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record(self, event: TraceEvent) -> None:
        self._buffer.append(event)

    def begin(
        self,
        name: str,
        pid: int,
        tid: int,
        sim_ns: int,
        category: str = "",
        args: Optional[dict] = None,
    ) -> None:
        """Open a span on track ``(pid, tid)`` at simulated ``sim_ns``."""
        key = (pid, tid)
        self._depth[key] = self._depth.get(key, 0) + 1
        self._record(
            TraceEvent("B", name, sim_ns, self._wall(), pid, tid, category, args)
        )

    def end(
        self,
        pid: int,
        tid: int,
        sim_ns: int,
        name: str = "",
        args: Optional[dict] = None,
    ) -> None:
        """Close the innermost open span on ``(pid, tid)``; no-op if none."""
        key = (pid, tid)
        if self._depth.get(key, 0) <= 0:
            return
        self._depth[key] -= 1
        self._record(
            TraceEvent("E", name, sim_ns, self._wall(), pid, tid, "", args)
        )

    def open_spans(self, pid: int, tid: int) -> int:
        """Current open-span depth on one track."""
        return self._depth.get((pid, tid), 0)

    def instant(
        self,
        name: str,
        pid: int,
        tid: int,
        sim_ns: int,
        category: str = "",
        args: Optional[dict] = None,
    ) -> None:
        """One zero-duration marker on track ``(pid, tid)``."""
        self._record(
            TraceEvent("i", name, sim_ns, self._wall(), pid, tid, category, args)
        )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def events(self) -> List[TraceEvent]:
        """Recorded events in chronological (recording) order."""
        return self._buffer.records()

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def dropped(self) -> int:
        """Events lost to the capacity bound (trace is lossy if > 0)."""
        return self._buffer.dropped

    @property
    def lossy(self) -> bool:
        return self._buffer.lossy


class NullTracer:
    """API-compatible no-op tracer: the disabled path of every hook."""

    enabled = False
    dropped = 0
    lossy = False

    def register_process(self, name: str) -> int:
        return 0

    def register_thread(self, pid: int, name: str, tid: Optional[int] = None) -> int:
        return 0

    def processes(self) -> Dict[int, str]:
        return {}

    def threads(self) -> Dict[Tuple[int, int], str]:
        return {}

    def begin(self, name, pid, tid, sim_ns, category="", args=None) -> None:
        pass

    def end(self, pid, tid, sim_ns, name="", args=None) -> None:
        pass

    def instant(self, name, pid, tid, sim_ns, category="", args=None) -> None:
        pass

    def open_spans(self, pid: int, tid: int) -> int:
        return 0

    def events(self) -> List[TraceEvent]:
        return []

    def __len__(self) -> int:
        return 0


#: Shared no-op instance; safe because it holds no state.
NULL_TRACER = NullTracer()
