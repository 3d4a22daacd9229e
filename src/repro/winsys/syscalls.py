"""Syscall request objects.

Application and system threads are Python generators; every interaction
with the kernel is expressed by *yielding* one of these request objects
and receiving the result when the kernel resumes the generator.  All
simulated time is explicit: a thread only consumes CPU through
:class:`Compute` (or through the costs the Win32 layer attaches to its
API calls), so cost models live in one auditable place.

The vocabulary is exactly what the experiments use: computation (and
the idle loop's batchable segments), message retrieval, GDI,
synchronous file I/O, timers and the cycle counter.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.work import Work

__all__ = [
    "Syscall",
    "Compute",
    "IdleCompute",
    "GetMessage",
    "PeekMessage",
    "GdiOp",
    "GdiFlush",
    "SyncRead",
    "SyncWrite",
    "SetTimer",
    "KillTimer",
    "ReadCycleCounter",
]


class Syscall:
    """Base class for all yieldable kernel requests."""

    __slots__ = ()


@dataclass
class Compute(Syscall):
    """Execute ``work`` on the CPU (application-private computation)."""

    work: Work


@dataclass
class IdleCompute(Compute):
    """One idle-loop busy-wait segment, batchable by the fast-forward path.

    Identical to :class:`Compute` except that the issuer declares the
    segment *stateless and repeating*: if the kernel finds the machine
    otherwise quiescent it may complete a run of consecutive segments
    in closed form (jumping the clock instead of executing each
    busy-wait), crossing the clock ticks and periodic DPCs that land in
    them unless ``tickless`` is False.  The syscall result says what
    happened:

    * ``None`` — the segment executed normally; its record is ``now``;
    * a list of ``(start, count)`` ramps — the kernel completed
      segments in closed form, and the records they would have produced
      are, ramp by ramp, ``start, start + step, …`` (``count`` of them,
      ``step`` being the segment's uncontended duration).  Each ramp
      after the first starts with the elongated record of a crossed
      tick or DPC.

    ``max_batch`` caps the records a jump may produce: the instrument's
    remaining buffer space, so a jump can never run past the point where
    the real loop would have stopped ("while space_left_in_the_buffer").
    ``tickless=False`` confines a jump to the uncontended segments
    before the next tick — an issuer that reads state at each record
    (the interrupt-cost probe reads a counter) needs that.  With
    ``max_batch=0`` (or the kernel's ``fast_forward`` flag off) the
    syscall degenerates to ``Compute``, which is the bit-identical slow
    path the A/B tests compare against.
    """

    max_batch: int = 0
    tickless: bool = True


@dataclass
class GetMessage(Syscall):
    """Block until a message is available, then retrieve it.

    The Win32 layer attaches the per-personality call overhead, flushes
    the thread's GDI batch, and fires API hooks — this is the
    interposition point of Section 2.4.
    """


@dataclass
class PeekMessage(Syscall):
    """Non-blocking retrieval (PM_REMOVE): the next message, or None."""


@dataclass
class GdiOp(Syscall):
    """Issue one batched graphics operation of ``base`` cost.

    The operation enters the thread's GDI batch; actual execution cost
    (with the OS personality's crossing/16-bit annotations) is charged
    when the batch flushes (Section 1.1's batching discussion).
    """

    base: Work
    pixels: int = 0


@dataclass
class GdiFlush(Syscall):
    """Force the thread's GDI batch to the server/driver now."""


@dataclass
class SyncRead(Syscall):
    """Synchronous file read; blocks if any block misses the buffer cache."""

    file: object  # filesystem.SimFile
    offset: int
    length: int


@dataclass
class SyncWrite(Syscall):
    """Synchronous file write (write-through to disk)."""

    file: object
    offset: int
    length: int


@dataclass
class SetTimer(Syscall):
    """Request periodic WM_TIMER messages every ``period_ns`` (tick-rounded)."""

    timer_id: int
    period_ns: int


@dataclass
class KillTimer(Syscall):
    """Cancel a periodic timer created with SetTimer."""

    timer_id: int


@dataclass
class ReadCycleCounter(Syscall):
    """RDTSC: returns the free-running cycle counter (user-mode readable).

    This is what the 'traditional' getchar-timestamp measurement of
    Figure 1 uses.
    """
