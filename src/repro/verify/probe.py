"""Integrity probes: short, fully instrumented runs that yield evidence.

A probe run boots one personality, installs the whole measurement
stack (idle-loop instrument, message-API monitor, queue and sync-I/O
probes, hardware-counter baseline), optionally arms a named fault
scenario, types a few characters through a small editor-like app, and
returns :class:`~repro.verify.evidence.RunEvidence` for the invariant
checker.  One probe takes a few hundredths of a second, so the full
``personality x scenario`` matrix is cheap enough for
``--strict-invariants`` sweeps and CI (``make verify-integrity``).

The probe app autosaves through *synchronous* write-through I/O so that
disk faults land in the outstanding-sync-I/O FSM input — the same
design as the fleet's editor app that ``ext-faults`` runs, with smaller
costs and saves of its own.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..apps.base import InteractiveApp
from ..core.session import instrumented
from ..faults import FaultInjector, get_scenario
from ..sim.timebase import ns_from_ms
from ..winsys.syscalls import SyncWrite, Syscall
from .evidence import RunEvidence, build_evidence

__all__ = ["PERSONALITIES", "IntegrityProbeApp", "gather_probe_evidence"]

#: The three measured personalities (kept local: verify must not import
#: the experiments package, which imports this one through the runner).
PERSONALITIES = ("nt351", "nt40", "win95")

KEY_PERIOD_MS = 50.0
DRAIN_MS = 300.0


class IntegrityProbeApp(InteractiveApp):
    """Minimal editor: compute + draw per keystroke, periodic sync save."""

    name = "integrity-probe"
    AUTOSAVE_EVERY = 3
    AUTOSAVE_BYTES = 4 * 1024

    def __init__(self, system) -> None:
        super().__init__(system)
        self.chars_handled = 0
        self.autosaves = 0
        self.scratch = system.filesystem.ensure(
            "integrity-probe.tmp", 512 * 1024
        )

    def on_char(self, char: str) -> Iterator[Syscall]:
        self.chars_handled += 1
        yield self.app_compute(40_000, label="probe-edit")
        yield self.draw(18_000, pixels=600, label="probe-echo")
        if self.chars_handled % self.AUTOSAVE_EVERY == 0:
            self.autosaves += 1
            offset = (self.autosaves * 7 * self.AUTOSAVE_BYTES) % max(
                self.scratch.size_bytes - self.AUTOSAVE_BYTES, self.AUTOSAVE_BYTES
            )
            yield SyncWrite(self.scratch, offset, self.AUTOSAVE_BYTES)


def gather_probe_evidence(
    os_name: str,
    seed: int = 0,
    scenario: Optional[str] = None,
    chars: int = 8,
    buffer_capacity: int = 2_000_000,
) -> RunEvidence:
    """One instrumented probe run; ``scenario=None`` means healthy.

    Deterministic in ``(os_name, seed, scenario, chars)`` like every
    other simulated run.  ``buffer_capacity`` is exposed so tests can
    force a lossy (overflowing) trace.
    """
    rig = instrumented(
        os_name,
        IntegrityProbeApp,
        seed=seed,
        probes=True,
        buffer_capacity=buffer_capacity,
    )
    system, app = rig.system, rig.app
    counters_before = dict(system.perf.snapshot())

    system.run_for(ns_from_ms(150.0))
    start_ns = system.now
    if scenario is not None:
        FaultInjector(system, get_scenario(scenario)).install()
    for index in range(chars):
        system.machine.keyboard.keystroke(chr(ord("a") + index % 26))
        system.run_for(ns_from_ms(KEY_PERIOD_MS))
    system.run_for(ns_from_ms(DRAIN_MS))
    end_ns = system.now

    trace = rig.instrument.trace().slice(start_ns, end_ns)
    # Clip I/O spans to the accounted window so every extracted episode
    # lies inside [start, end] — the window the invariants reconcile.
    io_spans = [
        (max(lo, start_ns), min(hi, end_ns))
        for lo, hi in rig.io_probe.busy_spans(until_ns=end_ns)
        if min(hi, end_ns) > max(lo, start_ns)
    ]
    extraction = rig.extract(
        trace, io_wait_spans=io_spans, name=f"{os_name}:integrity-probe"
    )

    # A full buffer means the instrument halted mid-run (the
    # paper's while-space_left loop): the tail of the window is simply
    # unobserved, which is as lossy as dropped records.
    buffer = rig.instrument.buffer
    trace_lossy = buffer.lossy or buffer.full

    cpu_spans: List[Tuple[int, int]] = [
        (span_start, span_end) for span_start, span_end, _busy in trace.elongated()
    ]
    return build_evidence(
        os_name=os_name,
        seed=seed,
        start_ns=start_ns,
        end_ns=end_ns,
        loop_ns=trace.loop_ns,
        record_times_ns=list(trace.times),
        extraction=extraction,
        cpu_spans=cpu_spans,
        queue_spans=rig.queue_probe.nonempty_spans(until_ns=end_ns),
        io_spans=io_spans,
        queue=app.thread.queue,
        trace_lossy=trace_lossy,
        counters_before=counters_before,
        counters_after=system.perf.snapshot(),
        meta={
            "scenario": scenario or "",
            "chars": chars,
            "autosaves": app.autosaves,
        },
    )
