"""Pentium-style performance counters.

Models the counter file the paper reads (Section 2.2): one free-running
64-bit cycle counter plus two 40-bit *configurable* event counters.  The
simulator internally accounts every hardware event, but reads through
the public interface honour the Pentium restriction — at most two event
kinds are observable at a time, and the event counters are only
accessible from system mode.  The measurement harness in
``repro.core.counters`` therefore re-runs an operation once per counter
configuration, exactly as the paper did ("We repeated the test 10 times
for each performance counter").

The counter file is also where injected degradation surfaces: the
fault-injection layer (:mod:`repro.faults`) charges TLB-flush and
TLB-miss events for its memory-pressure storms through the ordinary
:meth:`PerfCounters.charge` path, so a degraded run is distinguishable
from a healthy one by exactly the measurements the paper had access to.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .timebase import DEFAULT_CPU_HZ, ns_to_cycles
from .work import HwEvent

__all__ = ["CounterAccessError", "PerfCounters", "CounterSnapshot"]

_EVENT_COUNTER_BITS = 40
_EVENT_COUNTER_MASK = (1 << _EVENT_COUNTER_BITS) - 1


class CounterAccessError(RuntimeError):
    """Raised when event counters are touched from user mode."""


class CounterSnapshot(dict):
    """Mapping of HwEvent -> count, plus the cycle counter under 'cycles'."""

    @property
    def cycles(self) -> int:
        return self["cycles"]


class PerfCounters:
    """The simulated machine's hardware counter file.

    ``clock`` is any object with a ``now`` attribute in nanoseconds (the
    :class:`~repro.sim.engine.Simulator`).  The cycle counter is derived
    from it, so it free-runs across idle time like real hardware.
    """

    def __init__(self, clock, hz: int = DEFAULT_CPU_HZ) -> None:
        self._clock = clock
        self.hz = hz
        # Full internal accounting, one tally per event kind.
        self._tally: Dict[HwEvent, int] = {ev: 0 for ev in HwEvent}
        # Residual fractional event charges from pro-rata Work accounting.
        self._residual: Dict[HwEvent, float] = {ev: 0.0 for ev in HwEvent}
        # The two configurable counters: (event, base) or None.
        self._config: Tuple[Optional[HwEvent], Optional[HwEvent]] = (None, None)

    # ------------------------------------------------------------------
    # Charging (simulator-internal; not part of the measured surface)
    # ------------------------------------------------------------------
    def charge(self, event: HwEvent, count: float) -> None:
        """Record ``count`` occurrences of ``event``.

        Fractional charges (from partially-executed Work segments)
        accumulate in a residual so that totals are exact over time.
        """
        whole = int(count)
        frac = count - whole
        self._tally[event] += whole
        if frac:
            self._residual[event] += frac
            if self._residual[event] >= 1.0:
                spill = int(self._residual[event])
                self._tally[event] += spill
                self._residual[event] -= spill

    def charge_events(self, events: Dict[HwEvent, int], fraction: float = 1.0) -> None:
        """Charge a Work segment's event annotations, scaled by ``fraction``."""
        if fraction == 1.0:
            # A full charge of an integer count adds exactly that integer
            # and never touches the residual (int(c * 1.0) == c, zero
            # fractional part), so add it straight to the tally.  A
            # non-integer count still takes the residual-tracking path.
            tally = self._tally
            for event, count in events.items():
                if count:
                    if type(count) is int:
                        tally[event] += count
                    else:
                        self.charge(event, count)
            return
        # charge() inlined: a preemption's split charges every event
        # kind of its segment, once per preemption, with the same
        # float operations in the same order.
        tally = self._tally
        residual = self._residual
        for event, count in events.items():
            if count:
                scaled = count * fraction
                whole = int(scaled)
                frac = scaled - whole
                tally[event] += whole
                if frac:
                    left = residual[event] + frac
                    if left >= 1.0:
                        spill = int(left)
                        tally[event] += spill
                        left -= spill
                    residual[event] = left

    def charge_splits(
        self,
        events: Dict[HwEvent, int],
        fractions: Sequence[float],
        chained: bool,
    ) -> Dict[HwEvent, int]:
        """Charge a sequence of preemption splits in one step, and return
        the event counts they leave.

        Bit-identical to, for each fraction in turn, ``CPU.split`` and
        ``CPU.charge_split`` of a segment with these event counts: each
        split's pro-rata share passes through the fractional residual
        with exactly the float steps of :meth:`charge_events`, and the
        residual depends on order, so ``fractions`` run in calendar
        order.  With ``chained``, each split cuts the remainder of the
        one before (a busy thread preempted again and again) and the
        result is the last remainder's counts; otherwise each cuts a
        fresh segment with ``events`` (the idle-loop instrument's) and
        the result is the remainders' counts summed.  The kernel's jumps
        charge the splits they cross here.
        """
        tally = self._tally
        residual = self._residual
        left_over: Dict[HwEvent, int] = {}
        for event, count in events.items():
            left = residual[event]
            added = rounded = 0
            for fraction in fractions:
                scaled = count * fraction
                whole = int(scaled)
                frac = scaled - whole
                added += whole
                if frac:
                    left += frac
                    if left >= 1.0:
                        spill = int(left)
                        added += spill
                        left -= spill
                # CPU.split's rounding of the count the split leaves.
                if chained:
                    count -= round(scaled)
                else:
                    rounded += round(scaled)
            tally[event] += added
            residual[event] = left
            left_over[event] = count if chained else count * len(fractions) - rounded
        return left_over

    def charge_events_whole(self, events: Dict[HwEvent, int], times: int = 1) -> None:
        """Charge integer event annotations ``times`` times over, exactly.

        Bit-identical to ``times`` calls of ``charge_events(events, 1.0)``:
        a whole-count charge adds the integer straight to the tally and
        leaves the fractional residual untouched, so batching the adds
        cannot change any counter value.  This is what lets the idle
        fast-forward credit a run of completed segments in one step.
        """
        tally = self._tally
        for event, count in events.items():
            if count:
                tally[event] += count * times

    # ------------------------------------------------------------------
    # Measured surface
    # ------------------------------------------------------------------
    def read_cycle_counter(self) -> int:
        """RDTSC: the free-running cycle counter (readable from user mode)."""
        return ns_to_cycles(self._clock.now, self.hz)

    def configure(
        self,
        counter0: Optional[HwEvent],
        counter1: Optional[HwEvent] = None,
        system_mode: bool = True,
    ) -> None:
        """Select which two hardware events the event counters follow.

        Mirrors the Pentium MSR interface: system mode only.
        """
        if not system_mode:
            raise CounterAccessError("event counters are system-mode only")
        self._config = (counter0, counter1)

    def read_event_counter(self, index: int, system_mode: bool = True) -> int:
        """Read configurable counter 0 or 1 (40-bit wrap, system mode only)."""
        if not system_mode:
            raise CounterAccessError("event counters are system-mode only")
        if index not in (0, 1):
            raise ValueError(f"Pentium has event counters 0 and 1, not {index}")
        event = self._config[index]
        if event is None:
            return 0
        return self._tally[event] & _EVENT_COUNTER_MASK

    # ------------------------------------------------------------------
    # Omniscient access (for simulator validation and tests only)
    # ------------------------------------------------------------------
    def snapshot(self) -> CounterSnapshot:
        """Full view of every tally — a debugging aid the paper lacked."""
        snap = CounterSnapshot({ev: n for ev, n in self._tally.items()})
        snap["cycles"] = self.read_cycle_counter()
        return snap

    def total(self, event: HwEvent) -> int:
        """Internal tally for ``event`` (no width mask, no mode check)."""
        return self._tally[event]
