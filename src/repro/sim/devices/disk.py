"""Disk model.

Parameterized on the testbed's dedicated 1 GB Fujitsu M1606SAU SCSI-II
drive (Section 2.1).  The model is first-order — seek proportional to
distance, stochastic rotational latency from a named RNG stream, fixed
transfer rate — which is enough for what the paper needs from the disk:
multi-millisecond long-latency events (Table 1) and a buffer-cache
warming effect across repeated OLE edit sessions.

The disk services one request at a time from a FIFO queue and raises the
``disk`` interrupt vector when a request completes; the I/O manager
(:mod:`repro.winsys.iomgr`) turns that into thread wakeups.

Service-time *modifiers* are the drive's degradation hook: an installed
modifier sees each request as service begins and may add latency (a
firmware hiccup, a thermal-recalibration stall, a bus retry).  The
fault-injection layer (:mod:`repro.faults`) uses this to produce seeded
latency spikes without touching the queueing or completion logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional
from collections import deque

from ..engine import Simulator
from ..rng import RngStreams
from ..timebase import ns_from_ms, ns_from_us

__all__ = ["DiskGeometry", "DiskRequest", "Disk"]


@dataclass(frozen=True)
class DiskGeometry:
    """Static performance parameters of a drive."""

    name: str = "Fujitsu M1606SAU"
    block_size: int = 4096
    total_blocks: int = 262_144  # 1 GB of 4 KB blocks
    min_seek_ns: int = ns_from_ms(2)
    max_seek_ns: int = ns_from_ms(18)
    rotation_ns: int = ns_from_ms(11)  # ~5400 rpm
    transfer_ns_per_block: int = ns_from_us(800)  # ~5 MB/s sustained
    controller_overhead_ns: int = ns_from_us(500)


@dataclass
class DiskRequest:
    """One block-range transfer."""

    block: int
    count: int
    is_write: bool = False
    tag: object = None
    submitted_ns: int = 0
    completed_ns: int = 0
    service_ns: int = 0
    on_complete: Optional[Callable[["DiskRequest"], None]] = field(
        default=None, repr=False
    )


class Disk:
    """FIFO-queue disk with seek + rotation + transfer service times."""

    VECTOR = "disk"

    def __init__(
        self,
        sim: Simulator,
        rngs: RngStreams,
        geometry: Optional[DiskGeometry] = None,
        raise_interrupt: Optional[Callable[[str, object], None]] = None,
    ) -> None:
        self.sim = sim
        self.geometry = geometry or DiskGeometry()
        self._rng = rngs.stream(f"disk:{self.geometry.name}")
        self._raise_interrupt = raise_interrupt
        self._queue: Deque[DiskRequest] = deque()
        self._active: Optional[DiskRequest] = None
        self._head_block = 0
        #: Installed service-time modifiers, applied in order as each
        #: request starts service (see module docstring).
        self._service_modifiers: List[Callable[[DiskRequest, int], int]] = []
        #: Totals for diagnostics.
        self.requests_completed = 0
        self.blocks_transferred = 0
        self.busy_ns = 0
        #: Extra nanoseconds added by service-time modifiers (diagnostics).
        self.injected_service_ns = 0

    def add_service_time_modifier(
        self, modifier: Callable[[DiskRequest, int], int]
    ) -> None:
        """Install a modifier called as ``modifier(request, base_ns)``.

        The return value (clamped to >= 0) is *added* to the request's
        service time.  Modifiers stack; each sees the unmodified base
        service time.
        """
        self._service_modifiers.append(modifier)

    def remove_service_time_modifier(
        self, modifier: Callable[[DiskRequest, int], int]
    ) -> None:
        """Uninstall a previously added modifier (missing ones are ignored)."""
        if modifier in self._service_modifiers:
            self._service_modifiers.remove(modifier)

    @property
    def queue_depth(self) -> int:
        return len(self._queue) + (1 if self._active else 0)

    def submit(self, request: DiskRequest) -> None:
        """Queue a request; service begins immediately if the disk is idle."""
        if request.block < 0 or request.block + request.count > self.geometry.total_blocks:
            raise ValueError(
                f"request [{request.block}, {request.block + request.count}) "
                f"outside disk of {self.geometry.total_blocks} blocks"
            )
        if request.count <= 0:
            raise ValueError(f"request count must be positive, got {request.count}")
        request.submitted_ns = self.sim.now
        self._queue.append(request)
        if self._active is None:
            self._start_next()

    def service_time_ns(self, request: DiskRequest) -> int:
        """Compute the service time for ``request`` from the head position."""
        geometry = self.geometry
        distance = abs(request.block - self._head_block)
        if distance == 0:
            seek = 0
        else:
            span = geometry.max_seek_ns - geometry.min_seek_ns
            fraction = distance / geometry.total_blocks
            seek = geometry.min_seek_ns + round(span * fraction)
        rotation = self._rng.randrange(geometry.rotation_ns)
        transfer = geometry.transfer_ns_per_block * request.count
        return geometry.controller_overhead_ns + seek + rotation + transfer

    def _start_next(self) -> None:
        if not self._queue:
            return
        request = self._queue.popleft()
        base_ns = self.service_time_ns(request)
        extra_ns = 0
        for modifier in self._service_modifiers:
            extra_ns += max(0, int(modifier(request, base_ns)))
        self.injected_service_ns += extra_ns
        request.service_ns = base_ns + extra_ns
        self._active = request
        self.sim.schedule(
            request.service_ns, self._complete_active, label="disk-complete"
        )

    def _complete_active(self) -> None:
        request = self._active
        assert request is not None
        self._active = None
        request.completed_ns = self.sim.now
        self._head_block = request.block + request.count
        self.requests_completed += 1
        self.blocks_transferred += request.count
        self.busy_ns += request.service_ns
        if self._raise_interrupt is not None:
            self._raise_interrupt(self.VECTOR, request)
        elif request.on_complete is not None:
            request.on_complete(request)
        self._start_next()
