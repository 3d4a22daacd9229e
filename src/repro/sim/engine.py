"""Discrete-event simulation engine.

The engine is a deterministic event calendar: callbacks scheduled at
integer-nanosecond timestamps, executed in (time, sequence) order.  The
sequence number breaks ties in scheduling order, which — together with
the integer time base and the seeded RNG streams — makes every simulation
bit-reproducible.

Two calendar entry shapes share one heap and one ``(time, seq)`` key
space (see ``docs/performance.md`` for the measurements behind each):

* **Generic events** (:meth:`Simulator.schedule`) are stored as
  ``(time, seq, ScheduledEvent)`` tuples on a binary heap.  Tuple keys
  matter: heap sift compares run at C speed on the leading ints instead
  of calling a Python ``__lt__`` per comparison, and because ``seq`` is
  unique the third element is never compared at all.  The
  :class:`ScheduledEvent` payload is the cancellation handle.
* **Kind events** (:meth:`Simulator.schedule_kind` and friends) replace
  the per-event handle + label with a small-int *handler id* resolved
  through a precompiled handler table — ``(time, seq, hid)`` or
  ``(time, seq, hid, payload)`` tuples on the same heap.  The periodic
  clock re-arm, the kernel's zero-delay dispatch, CPU segment
  completions and ISR-return events use these; the few that must be
  withdrawn are cancelled by ``seq`` (:meth:`Simulator.cancel_kind`).

In front of the heap sits a one-entry **next-event slot**: a pending
entry whose timestamp is strictly earlier than everything on the heap.
The dominant scheduling pattern — each event schedules its successor a
short delay ahead (chained work segments, zero-delay dispatch) — then
never touches the heap at all: the successor drops into the slot on
schedule and is lifted out on pop, replacing an O(log n) sift-up plus
sift-down with two pointer moves.  An entry that would violate the slot
invariant displaces the slot back onto the heap, so correctness never
depends on the pattern holding.

Events are cancellable: :meth:`Simulator.schedule` returns a
:class:`ScheduledEvent` handle whose :meth:`~ScheduledEvent.cancel`
removes it logically (the heap entry is left in place and skipped on
pop, the standard lazy-deletion technique).  Cancellation is what lets
the CPU model preempt an in-flight work segment and re-schedule its
completion.  When cancelled entries come to dominate the heap — every
clock tick that steals time from an in-flight segment leaves one behind
— the calendar compacts itself in place; since live events are totally
ordered by their unique ``(time, seq)`` key, rebuilding the heap cannot
change the pop order.

The engine also carries the state the idle fast-forward path (see
:mod:`repro.winsys.kernel` and ``docs/performance.md``) needs to stay
bit-identical to ordinary execution: the active run horizon, and a
:meth:`Simulator.fast_forward` jump that advances the clock *and* the
sequence/executed counters exactly as executing the skipped events one
by one would have.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from contextvars import ContextVar
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Iterator, List, Optional

__all__ = [
    "ScheduledEvent",
    "Simulator",
    "SimulationError",
    "fast_forward_default",
    "fast_forward_scope",
]


class SimulationError(RuntimeError):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""


#: Idle fast-forward setting of the current scope.  Booted kernels read
#: it once; the job executors (and ``--no-fast-forward``) open a scope
#: with :func:`fast_forward_scope`.  The output is bit-identical either
#: way — the switch exists so that the equivalence is *checkable*, not
#: because the results differ.
_fast_forward: ContextVar[bool] = ContextVar("fast_forward", default=True)


def fast_forward_default() -> bool:
    """Whether kernels booted in the current scope enable the idle fast-forward."""
    return _fast_forward.get()


@contextmanager
def fast_forward_scope(enabled: bool) -> Iterator[None]:
    """Boot kernels with fast-forward ``enabled`` until the block exits,
    then restore the enclosing scope's setting."""
    token = _fast_forward.set(bool(enabled))
    try:
        yield
    finally:
        _fast_forward.reset(token)


#: Compaction threshold: never compact tiny calendars (the rebuild would
#: cost more than the skipped pops it saves).
_COMPACT_MIN_QUEUE = 64


class ScheduledEvent:
    """Handle for a pending callback on the event calendar."""

    __slots__ = ("time", "seq", "callback", "label", "cancelled", "_sim")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[[], None],
        label: str,
        sim: "Optional[Simulator]" = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Logically remove the event; it will be skipped when popped."""
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                # Inlined bookkeeping: this runs once per cancellation,
                # hot enough in calendar churn that an extra frame shows.
                cancelled = sim._cancelled + 1
                sim._cancelled = cancelled
                n = len(sim._queue) + (sim._next is not None)
                if n >= _COMPACT_MIN_QUEUE and cancelled * 2 > n:
                    sim._compact()

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent {self.label!r} @{self.time}ns {state}>"


class Simulator:
    """Deterministic event-calendar simulator.

    The simulator only understands time and callbacks; machines, kernels
    and applications are layered on top.  A single simulator instance is
    shared by every component of one simulated machine.
    """

    __slots__ = (
        "_now",
        "_seq",
        "_queue",
        "_next",
        "_running",
        "_stop_requested",
        "_horizon",
        "_ff_allowed",
        "_cancelled",
        "_handler_fns",
        "_kind_cancelled",
        "events_executed",
        "events_fast_forwarded",
        "compactions",
        "calendar_high_water",
    )

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        #: Heap of (time, seq, payload[, arg]) tuples; payload is either
        #: a ScheduledEvent (generic) or an int handler id (kind event).
        self._queue: List[tuple] = []
        #: Next-event slot: one entry strictly earlier (by time) than the
        #: whole heap, or None.  Fills when a schedule lands in front of
        #: the heap head; chained schedule-pop-schedule patterns live
        #: entirely in this slot and skip both heap sifts.
        self._next: Optional[tuple] = None
        self._running = False
        self._stop_requested = False
        #: Horizon of the active :meth:`run` call (``until_ns``), or None.
        self._horizon: Optional[int] = None
        #: False while a ``max_events``-bounded run is active — fast
        #: forward would execute segments the bound should count.
        self._ff_allowed = True
        #: Cancelled ScheduledEvent entries still on the calendar (lazy
        #: deletion; the slot entry counts here too).
        self._cancelled = 0
        #: Handler table: handler id -> callable.
        self._handler_fns: List[Callable[..., None]] = []
        #: Seqs of cancelled kind entries (lazy deletion — checked when
        #: the entry reaches the head).
        self._kind_cancelled: set = set()
        #: Number of callbacks executed; useful for engine diagnostics.
        #: Fast-forwarded segments count here too, so the tally matches
        #: a run with the optimisation disabled.
        self.events_executed = 0
        #: Of ``events_executed``, how many were synthesized analytically.
        self.events_fast_forwarded = 0
        #: In-place calendar rebuilds triggered by cancelled-entry pile-up.
        self.compactions = 0
        #: Maximum calendar length observed (live + cancelled entries,
        #: slot and heap combined).
        self.calendar_high_water = 0

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # ------------------------------------------------------------------
    # Generic scheduling (per-event handle objects)
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay_ns: int,
        callback: Callable[[], None],
        label: str = "",
        *,
        _new=object.__new__,
        _cls=ScheduledEvent,
        _heappush=_heappush,
        len=len,
    ) -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay_ns`` from now.

        ``delay_ns`` may be zero (runs after already-pending events at the
        same timestamp) but never negative.
        """
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns} ns in the past")
        # Inlined schedule_at: this is the hottest allocation site in the
        # engine, so it avoids the extra frame and the __init__ call (the
        # object.__new__ + direct slot stores construct the same handle;
        # the keyword-only defaults turn global lookups into local loads).
        time_ns = self._now + delay_ns
        seq = self._seq
        self._seq = seq + 1
        event = _new(_cls)
        event.time = time_ns
        event.seq = seq
        event.callback = callback
        event.label = label
        event.cancelled = False
        event._sim = self
        queue = self._queue
        nxt = self._next
        if nxt is None:
            if queue and time_ns >= queue[0][0]:
                _heappush(queue, (time_ns, seq, event))
            else:
                # Strictly earlier than the whole heap (ties go to the
                # heap: the new seq is the largest, so a tie loses).
                self._next = (time_ns, seq, event)
        elif time_ns < nxt[0]:
            self._next = (time_ns, seq, event)
            _heappush(queue, nxt)
        else:
            _heappush(queue, (time_ns, seq, event))
        depth = len(queue) + (self._next is not None)
        if depth > self.calendar_high_water:
            self.calendar_high_water = depth
        return event

    def schedule_at(
        self,
        time_ns: int,
        callback: Callable[[], None],
        label: str = "",
        *,
        _new=object.__new__,
        _cls=ScheduledEvent,
        _heappush=_heappush,
        len=len,
    ) -> ScheduledEvent:
        """Schedule ``callback`` at absolute time ``time_ns``."""
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ns} ns; now is {self._now} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        event = _new(_cls)
        event.time = time_ns
        event.seq = seq
        event.callback = callback
        event.label = label
        event.cancelled = False
        event._sim = self
        queue = self._queue
        nxt = self._next
        if nxt is None:
            if queue and time_ns >= queue[0][0]:
                _heappush(queue, (time_ns, seq, event))
            else:
                self._next = (time_ns, seq, event)
        elif time_ns < nxt[0]:
            self._next = (time_ns, seq, event)
            _heappush(queue, nxt)
        else:
            _heappush(queue, (time_ns, seq, event))
        depth = len(queue) + (self._next is not None)
        if depth > self.calendar_high_water:
            self.calendar_high_water = depth
        return event

    # ------------------------------------------------------------------
    # Kind scheduling (precompiled handler table, no per-event objects)
    # ------------------------------------------------------------------
    def register_handler(self, fn: Callable[..., None]) -> int:
        """Register ``fn`` in the handler table; returns its handler id.

        One handler id must stick to one scheduling entry point, which
        fixes its call convention: :meth:`schedule_kind` /
        :meth:`schedule_kind_at` call ``fn()``; :meth:`schedule_call`
        calls ``fn(payload)``.
        """
        self._handler_fns.append(fn)
        return len(self._handler_fns) - 1

    def schedule_kind(self, delay_ns: int, hid: int) -> int:
        """Schedule handler ``hid`` (no-argument form) after ``delay_ns``.

        Returns the entry's ``seq`` (usable with :meth:`cancel_kind`).
        No handle object or label is allocated — this is the zero-cost
        path for high-frequency re-arm events (dispatch, clock ticks).
        """
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns} ns in the past")
        time_ns = self._now + delay_ns
        seq = self._seq
        self._seq = seq + 1
        queue = self._queue
        nxt = self._next
        if nxt is None:
            if queue and time_ns >= queue[0][0]:
                _heappush(queue, (time_ns, seq, hid))
            else:
                self._next = (time_ns, seq, hid)
        elif time_ns < nxt[0]:
            self._next = (time_ns, seq, hid)
            _heappush(queue, nxt)
        else:
            _heappush(queue, (time_ns, seq, hid))
        depth = len(queue) + (self._next is not None)
        if depth > self.calendar_high_water:
            self.calendar_high_water = depth
        return seq

    def schedule_kind_at(self, time_ns: int, hid: int) -> int:
        """Schedule handler ``hid`` (no-argument form) at absolute time."""
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ns} ns; now is {self._now} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        queue = self._queue
        nxt = self._next
        if nxt is None:
            if queue and time_ns >= queue[0][0]:
                _heappush(queue, (time_ns, seq, hid))
            else:
                self._next = (time_ns, seq, hid)
        elif time_ns < nxt[0]:
            self._next = (time_ns, seq, hid)
            _heappush(queue, nxt)
        else:
            _heappush(queue, (time_ns, seq, hid))
        depth = len(queue) + (self._next is not None)
        if depth > self.calendar_high_water:
            self.calendar_high_water = depth
        return seq

    def schedule_call(self, delay_ns: int, hid: int, payload: Any) -> int:
        """Schedule handler ``hid`` called with ``payload`` after ``delay_ns``.

        Replaces the ``lambda: handler(payload)`` closure + handle pair
        with one heap tuple (ISR returns use this).
        """
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule {delay_ns} ns in the past")
        time_ns = self._now + delay_ns
        seq = self._seq
        self._seq = seq + 1
        queue = self._queue
        nxt = self._next
        if nxt is None:
            if queue and time_ns >= queue[0][0]:
                _heappush(queue, (time_ns, seq, hid, payload))
            else:
                self._next = (time_ns, seq, hid, payload)
        elif time_ns < nxt[0]:
            self._next = (time_ns, seq, hid, payload)
            _heappush(queue, nxt)
        else:
            _heappush(queue, (time_ns, seq, hid, payload))
        depth = len(queue) + (self._next is not None)
        if depth > self.calendar_high_water:
            self.calendar_high_water = depth
        return seq

    def cancel_kind(self, seq: int) -> None:
        """Cancel a pending kind entry by its ``seq``.

        Lazy like :meth:`ScheduledEvent.cancel`: the entry stays in place
        and is skipped when it reaches the head.  ``seq`` must identify a
        pending kind-scheduled entry; cancelling one that already fired
        leaves a stale marker behind and skews :meth:`pending_count`.
        Cancelling twice is harmless.
        """
        self._kind_cancelled.add(seq)

    def stop(self) -> None:
        """Request that the current :meth:`run` call return promptly."""
        self._stop_requested = True

    def peek_next_time(self) -> Optional[int]:
        """Timestamp of the next pending event, or None if the calendar is empty."""
        self._discard_cancelled()
        nxt = self._next
        if nxt is not None:
            return nxt[0]
        return self._queue[0][0] if self._queue else None

    def _discard_cancelled(self) -> None:
        """Drop dead entries (cancelled handles, cancelled kind seqs) from
        the slot and the heap head."""
        kc = self._kind_cancelled
        nxt = self._next
        if nxt is not None:
            payload = nxt[2]
            if payload.__class__ is ScheduledEvent:
                if payload.cancelled:
                    self._next = None
                    self._cancelled -= 1
            elif kc and nxt[1] in kc:
                self._next = None
                kc.discard(nxt[1])
        queue = self._queue
        while queue:
            head = queue[0]
            payload = head[2]
            if payload.__class__ is ScheduledEvent:
                if not payload.cancelled:
                    break
                _heappop(queue)
                self._cancelled -= 1
            elif kc and head[1] in kc:
                _heappop(queue)
                kc.discard(head[1])
            else:
                break

    def _compact(self) -> None:
        """Drop cancelled entries and rebuild the heap, in place.

        In place matters: :meth:`run` holds a local alias of the queue
        list, so the list object must survive.  Determinism is free —
        live events carry unique ``(time, seq)`` keys, so any valid heap
        over the same set pops in the same order.
        """
        kc = self._kind_cancelled
        nxt = self._next
        if nxt is not None:
            # The slot entry may itself be cancelled; _cancelled is reset
            # to zero below, so it must be swept here too.
            payload = nxt[2]
            if payload.__class__ is ScheduledEvent:
                if payload.cancelled:
                    self._next = None
            elif nxt[1] in kc:
                self._next = None
                kc.discard(nxt[1])
        queue = self._queue
        if kc:
            live = []
            for entry in queue:
                payload = entry[2]
                if payload.__class__ is ScheduledEvent:
                    if not payload.cancelled:
                        live.append(entry)
                elif entry[1] in kc:
                    kc.discard(entry[1])
                else:
                    live.append(entry)
            queue[:] = live
        else:
            try:
                # Fast path: every payload is a ScheduledEvent (int handler
                # ids have no .cancelled — the except replays carefully).
                queue[:] = [entry for entry in queue if not entry[2].cancelled]
            except AttributeError:
                queue[:] = [
                    entry
                    for entry in queue
                    if entry[2].__class__ is not ScheduledEvent
                    or not entry[2].cancelled
                ]
        heapq.heapify(queue)
        self._cancelled = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # Calendar statistics (observability gauges)
    # ------------------------------------------------------------------
    def calendar_depth(self) -> int:
        """Current calendar length, cancelled entries included
        (slot + heap)."""
        return len(self._queue) + (self._next is not None)

    @property
    def calendar_cancelled(self) -> int:
        """Cancelled entries still pending lazy discard (handles and kinds)."""
        return self._cancelled + len(self._kind_cancelled)

    def cancelled_fraction(self) -> float:
        """Fraction of calendar entries that are cancelled (0.0 if empty)."""
        n = len(self._queue) + (self._next is not None)
        if not n:
            return 0.0
        return (self._cancelled + len(self._kind_cancelled)) / n

    def pending_count(self) -> int:
        """Number of live (non-cancelled) events on the calendar — O(1)."""
        return (
            len(self._queue)
            + (self._next is not None)
            - self._cancelled
            - len(self._kind_cancelled)
        )

    # ------------------------------------------------------------------
    # Fast-forward support (see repro.winsys.kernel._try_fast_forward)
    # ------------------------------------------------------------------
    def fast_forward_budget(self, step_ns: int) -> int:
        """Largest ``k`` such that jumping ``k * step_ns`` is invisible.

        The jump must land strictly before the next live calendar event
        (a segment that would span it must execute normally so the event
        — typically a clock tick stealing time — elongates it exactly as
        on the slow path) and at or before the active run horizon (the
        slow path executes events at the horizon itself).  Returns 0
        when no bound exists (empty calendar and no horizon — nothing to
        fast-forward *to*), when a ``max_events`` run is active, or when
        a stop was requested mid-callback.
        """
        if step_ns <= 0 or not self._ff_allowed or self._stop_requested:
            return 0
        self._discard_cancelled()
        nxt = self._next
        if nxt is not None:
            next_time = nxt[0]
        else:
            next_time = self._queue[0][0] if self._queue else None
        budget = None
        if next_time is not None:
            # An event at or before now + step (e.g. an isr-return at the
            # current timestamp) leaves no room for even one segment.
            budget = (next_time - self._now - 1) // step_ns
            if budget <= 0:
                return 0
        horizon = self._horizon
        if horizon is not None:
            by_horizon = (horizon - self._now) // step_ns
            if budget is None or by_horizon < budget:
                budget = by_horizon
        return budget if budget is not None and budget > 0 else 0

    def fast_forward(self, delta_ns: int, events: int) -> None:
        """Jump the clock by ``delta_ns``, accounting ``events`` callbacks.

        The sequence counter advances by ``events`` too, so every event
        scheduled afterwards receives the exact ``(time, seq)`` key it
        would have had if the skipped callbacks had each performed one
        ``schedule`` + execution round — which is what keeps ordering
        (and therefore every downstream trace) bit-identical.
        """
        if delta_ns < 0 or events < 0:
            raise SimulationError(
                f"cannot fast-forward by {delta_ns} ns / {events} events"
            )
        target = self._now + delta_ns
        if self._horizon is not None and target > self._horizon:
            raise SimulationError(
                f"fast-forward to {target} ns crosses run horizon "
                f"{self._horizon} ns"
            )
        if self._next is not None and target >= self._next[0]:
            raise SimulationError(
                f"fast-forward to {target} ns crosses pending event at "
                f"{self._next[0]} ns"
            )
        if self._queue and target >= self._queue[0][0]:
            raise SimulationError(
                f"fast-forward to {target} ns crosses pending event at "
                f"{self._queue[0][0]} ns"
            )
        self._now = target
        self._seq += events
        self.events_executed += events
        self.events_fast_forwarded += events

    def run(
        self,
        until_ns: Optional[int] = None,
        until: Optional[Callable[[], bool]] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run the calendar.

        Stops when any of the following holds:

        * the calendar is exhausted,
        * the next event lies beyond ``until_ns`` (the clock is then
          advanced exactly to ``until_ns``),
        * the predicate ``until`` returns True after an event,
        * ``max_events`` callbacks have executed, or
        * :meth:`stop` was called from inside a callback.

        Returns the simulated time at which the run stopped.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        self._stop_requested = False
        self._horizon = until_ns
        self._ff_allowed = max_events is None
        executed = 0
        heap_done = 0  # deferred events_executed increments, flushed below
        # The hot loop: local bindings, no per-event peek indirection.  The
        # queue list is aliased locally — compaction mutates it in place.
        # Heap entries compare on their leading (time, seq) ints at C
        # speed; the payload is reached only after the pop.  The slot
        # (self._next) is re-read every iteration: callbacks displace it.
        queue = self._queue
        fns = self._handler_fns
        event_cls = ScheduledEvent
        try:
            while True:
                if self._stop_requested:
                    break
                if until is not None and until():
                    break
                if max_events is not None and executed >= max_events:
                    break
                head = self._next
                if head is not None:
                    time = head[0]
                    if until_ns is not None and time > until_ns:
                        self._now = until_ns
                        break  # the slot entry stays pending
                    self._next = None
                elif queue:
                    head = queue[0]
                    time = head[0]
                    if until_ns is not None and time > until_ns:
                        self._now = until_ns
                        break
                    _heappop(queue)
                else:
                    break
                payload = head[2]
                if payload.__class__ is event_cls:
                    if payload.cancelled:
                        self._cancelled -= 1
                        continue
                    self._now = time
                    heap_done += 1
                    payload.callback()
                    executed += 1
                else:
                    kc = self._kind_cancelled
                    if kc and head[1] in kc:
                        kc.discard(head[1])
                        continue
                    self._now = time
                    heap_done += 1
                    if len(head) == 3:
                        fns[payload]()
                    else:
                        fns[payload](head[3])
                    executed += 1
            if (
                until_ns is not None
                and self._now < until_ns
                and self._next is None
                and not queue
            ):
                # Nothing left to do before the horizon; advance the clock.
                self._now = until_ns
        finally:
            # Executions are counted in a local and flushed once: every
            # reader of events_executed observes it between runs (or via
            # fast_forward, which adds to the attribute directly — integer
            # adds commute with this flush).
            self.events_executed += heap_done
            self._running = False
            self._horizon = None
            self._ff_allowed = True
        return self._now
