"""I/O manager: synchronous file I/O over the disk.

Synchronous I/O is one of the three FSM inputs of Figure 2 ("status for
outstanding synchronous I/O"), because a user waits through synchronous
reads even while the CPU idles.  The manager therefore maintains an
``outstanding_sync`` count and lets observers subscribe to its
transitions — the "additional system support for monitoring I/O" the
paper asks for in Section 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..sim.devices.disk import Disk, DiskRequest
from ..sim.work import Work
from .filesystem import BufferCache, FileSystem, SimFile

__all__ = ["IoPlan", "IoManager"]


@dataclass
class IoPlan:
    """Planned servicing of one read/write: CPU cost + disk requests."""

    cpu_work: Work
    requests: List[DiskRequest] = field(default_factory=list)

    @property
    def all_cached(self) -> bool:
        return not self.requests


@dataclass
class _PendingOp:
    remaining: int
    on_done: Callable[[], None]


class IoManager:
    """Plans reads/writes through the buffer cache and tracks completions."""

    def __init__(self, disk: Disk, cache: BufferCache, personality) -> None:
        self.disk = disk
        self.cache = cache
        self.personality = personality
        self._pending: Dict[int, _PendingOp] = {}
        self._next_op_id = 1
        self.outstanding_sync = 0
        self._observers: List[Callable[[int], None]] = []
        #: Cumulative simulated time with outstanding_sync > 0 — the
        #: user-*wait* attributable to synchronous I/O per Figure 2
        #: (an injected disk stall shows up here in full).
        self._sync_wait_total_ns = 0
        self._sync_active_since: Optional[int] = None

    def add_sync_observer(self, observer: Callable[[int], None]) -> None:
        """Subscribe to outstanding-sync-I/O count changes (FSM input)."""
        self._observers.append(observer)

    def _set_outstanding(self, value: int) -> None:
        now = self.disk.sim.now
        if self.outstanding_sync == 0 and value > 0:
            self._sync_active_since = now
        elif self.outstanding_sync > 0 and value == 0:
            if self._sync_active_since is not None:
                self._sync_wait_total_ns += now - self._sync_active_since
            self._sync_active_since = None
        self.outstanding_sync = value
        for observer in self._observers:
            observer(value)

    @property
    def sync_wait_ns(self) -> int:
        """Total time spent with synchronous I/O outstanding, so far."""
        total = self._sync_wait_total_ns
        if self._sync_active_since is not None:
            total += self.disk.sim.now - self._sync_active_since
        return total

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _coalesce(self, blocks: List[int], is_write: bool) -> List[DiskRequest]:
        """Merge sorted block runs into contiguous disk requests."""
        requests: List[DiskRequest] = []
        run_start: Optional[int] = None
        run_len = 0
        for block in sorted(set(blocks)):
            if run_start is not None and block == run_start + run_len:
                run_len += 1
                continue
            if run_start is not None:
                requests.append(
                    DiskRequest(block=run_start, count=run_len, is_write=is_write)
                )
            run_start, run_len = block, 1
        if run_start is not None:
            requests.append(
                DiskRequest(block=run_start, count=run_len, is_write=is_write)
            )
        return requests

    def plan_read(self, file: SimFile, offset: int, length: int) -> IoPlan:
        """Plan a read: cache-hit CPU cost plus requests for missed blocks."""
        blocks = file.blocks(offset, length, self.personality.block_size)
        hits, misses = self.cache.probe(blocks)
        cpu = self.personality.io_syscall_work.plus(
            self.personality.cache_copy_work.scaled(len(hits)),
            label="io-read",
        )
        return IoPlan(cpu_work=cpu, requests=self._coalesce(misses, is_write=False))

    def plan_write(self, file: SimFile, offset: int, length: int) -> IoPlan:
        """Plan a write-through write: all touched blocks go to disk."""
        blocks = file.blocks(offset, length, self.personality.block_size)
        self.cache.insert(blocks)
        cpu = self.personality.io_syscall_work.plus(
            self.personality.cache_copy_work.scaled(len(blocks)),
            label="io-write",
        )
        return IoPlan(cpu_work=cpu, requests=self._coalesce(blocks, is_write=True))

    # ------------------------------------------------------------------
    # Submission and completion
    # ------------------------------------------------------------------
    def submit(self, plan: IoPlan, on_done: Callable[[], None]) -> None:
        """Send a plan's disk requests; ``on_done`` fires when all complete.

        The operation counts in ``outstanding_sync`` until then.  A plan
        with no requests completes immediately (pure cache hit).
        """
        if plan.all_cached:
            on_done()
            return
        op_id = self._next_op_id
        self._next_op_id += 1
        self._pending[op_id] = _PendingOp(remaining=len(plan.requests), on_done=on_done)
        self._set_outstanding(self.outstanding_sync + 1)
        for request in plan.requests:
            request.tag = op_id
            self.disk.submit(request)

    def on_disk_complete(self, request: DiskRequest) -> None:
        """Disk-interrupt post-action: cache fill + pending-op accounting."""
        if not request.is_write:
            self.cache.insert(range(request.block, request.block + request.count))
        op = self._pending.get(request.tag)
        if op is None:
            return
        op.remaining -= 1
        if op.remaining == 0:
            del self._pending[request.tag]
            self._set_outstanding(self.outstanding_sync - 1)
            op.on_done()

    @property
    def pending_ops(self) -> int:
        return len(self._pending)
