"""CPU execution model.

The simulated CPU executes one :class:`~repro.sim.work.Work` segment at a
time on behalf of a *context* (a kernel thread).  Three things can
happen to an in-flight segment:

* it **completes** — the completion callback fires and the segment's
  hardware events are fully charged;
* it is **preempted** — the kernel takes the CPU away; the consumed
  fraction is charged and the remainder handed back for re-queueing;
* time is **stolen** by an interrupt service routine — the segment's
  completion is pushed back by the ISR's duration while the ISR's own
  events are charged.

Time-stealing is the mechanism behind the paper's idle-loop methodology
(Section 2.3): the instrument's calibrated 1 ms busy-wait takes longer
than 1 ms of wall time exactly when ISRs or higher-priority work steal
the processor, and the elongation *is* the measurement.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from .engine import SimulationError, Simulator
from .perf import PerfCounters
from .timebase import DEFAULT_CPU_HZ, NS_PER_SEC, cycles_to_ns
from .work import Work

__all__ = ["CPU"]


class CPU:
    """Single simulated processor with pro-rata event accounting."""

    __slots__ = (
        "sim",
        "perf",
        "hz",
        "busy_ns",
        "_work",
        "_context",
        "_on_complete",
        "_start_ns",
        "_stolen_ns",
        "_charged_fraction",
        "_completion_seq",
        "_completion_ns",
        "_complete_hid",
        "_duration_ns",
    )

    def __init__(self, sim: Simulator, perf: PerfCounters, hz: int = DEFAULT_CPU_HZ):
        self.sim = sim
        self.perf = perf
        self.hz = hz
        #: Cumulative nanoseconds the CPU spent executing work or ISRs.
        self.busy_ns = 0
        self._work: Optional[Work] = None
        self._context: object = None
        self._on_complete: Optional[Callable[[object], None]] = None
        self._start_ns = 0
        self._stolen_ns = 0
        self._charged_fraction = 0.0
        # Completions are engine *kind* events (one heap tuple each, no
        # handle object): the pending entry is tracked by its seq for
        # cancellation plus its absolute due time for ISR push-back.
        self._completion_seq: Optional[int] = None
        self._completion_ns = 0
        self._complete_hid = sim.register_handler(self._complete)
        #: Base duration of the in-flight segment (cached at start so the
        #: hot completion path does not recompute it).
        self._duration_ns = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while a work segment is executing."""
        return self._work is not None

    def duration_ns(self, work: Work) -> int:
        """Wall duration of ``work`` at this CPU's clock rate."""
        return cycles_to_ns(work.cycles, self.hz)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(
        self,
        work: Work,
        context: object,
        on_complete: Callable[[object], None],
    ) -> None:
        """Begin executing ``work`` for ``context``.

        ``on_complete(context)`` fires when the segment (plus any stolen
        time) has elapsed.  The CPU must be free.
        """
        if self._work is not None:
            raise SimulationError("CPU.start while busy; preempt first")
        sim = self.sim
        self._work = work
        self._context = context
        self._on_complete = on_complete
        now = sim._now
        self._start_ns = now
        self._stolen_ns = 0
        self._charged_fraction = 0.0
        duration = (work.cycles * NS_PER_SEC) // self.hz
        self._duration_ns = duration
        self._completion_ns = now + duration
        self._completion_seq = sim.schedule_kind(duration, self._complete_hid)

    def _executed_ns(self) -> int:
        """Nanoseconds of actual progress on the current segment."""
        elapsed = self.sim.now - self._start_ns
        return max(0, elapsed - self._stolen_ns)

    def _charge_progress(self, fraction: float) -> None:
        """Charge the segment's events up to ``fraction`` of completion."""
        assert self._work is not None
        delta = fraction - self._charged_fraction
        if delta > 0:
            self.perf.charge_events(self._work.events, delta)
            self._charged_fraction = fraction

    def _complete(self) -> None:
        work, context, callback = self._work, self._context, self._on_complete
        assert work is not None and callback is not None
        # Uncontested segments (nothing preempted or partially charged
        # them) are the common case: their events are exact integers, so
        # the whole-count add skips the pro-rata float path entirely
        # (inlined charge_events_whole — this runs once per segment).
        if self._charged_fraction == 0.0:
            tally = self.perf._tally
            for event, count in work.events.items():
                if count:
                    tally[event] += count
        else:
            self._charge_progress(1.0)
        self.busy_ns += self._duration_ns
        self._work = None
        self._context = None
        self._on_complete = None
        self._completion_seq = None
        callback(context)

    def credit_idle_batch(self, work: Work, duration_ns: int, count: int) -> None:
        """Account ``count`` back-to-back completions of ``work`` at once.

        The idle fast-forward path (see
        :meth:`repro.winsys.kernel.Kernel._try_fast_forward`) skips the
        execution of ``count`` identical idle-loop segments and calls
        this instead.  It must be bit-identical to ``count`` sequential
        :meth:`start`/:meth:`_complete` rounds: a completed segment
        charges its events at fraction 1.0 — whole counts that never
        touch the fractional residual — so the batch add below matches
        exactly.  The CPU must be free (the kernel guarantees it).
        """
        if self._work is not None:
            raise SimulationError("credit_idle_batch while busy")
        self.busy_ns += duration_ns * count
        self.perf.charge_events_whole(work.events, count)

    def preempt(self) -> Tuple[object, Optional[Work]]:
        """Take the CPU away from the current segment.

        Returns ``(context, remaining_work)``; ``remaining_work`` is None
        if the segment happened to be exactly finished.  Raises if the
        CPU is idle.
        """
        if self._work is None:
            raise SimulationError("CPU.preempt while idle")
        assert self._completion_seq is not None
        self.sim.cancel_kind(self._completion_seq)
        work, context = self._work, self._context
        total_ns = self._duration_ns
        executed_ns = min(self._executed_ns(), total_ns)
        fraction = executed_ns / total_ns if total_ns else 1.0
        self._charge_progress(fraction)
        self.busy_ns += executed_ns
        remaining_cycles = work.cycles - round(work.cycles * fraction)
        self._work = None
        self._context = None
        self._on_complete = None
        self._completion_seq = None
        if remaining_cycles <= 0:
            return context, None
        remaining = Work(
            cycles=remaining_cycles,
            events={
                ev: count - round(count * fraction)
                for ev, count in work.events.items()
            },
            label=work.label,
        )
        return context, remaining

    def abort(self) -> object:
        """Stop the current segment and discard its remainder.

        Used for open-ended busy-waits (e.g. the Windows 95 mouse-click
        spin) that end on an external signal rather than by running out
        of cycles.  Returns the context that was executing.
        """
        context, _remaining = self.preempt()
        return context

    def steal(self, isr_work: Work) -> int:
        """An ISR steals the processor for the duration of ``isr_work``.

        The ISR's hardware events are charged immediately and the current
        segment's completion (if any) is pushed back.  Returns the ISR
        duration in nanoseconds so the caller can schedule the ISR's
        post-action (delivering a message, waking a thread) at the moment
        the ISR retires.
        """
        duration = self.duration_ns(isr_work)
        self.perf.charge_events_whole(isr_work.events, 1)
        self.busy_ns += duration
        if self._completion_seq is not None:
            self._stolen_ns += duration
            sim = self.sim
            sim.cancel_kind(self._completion_seq)
            pushed = self._completion_ns + duration
            self._completion_ns = pushed
            self._completion_seq = sim.schedule_kind_at(pushed, self._complete_hid)
        return duration
