"""Measurement sessions: one-call orchestration of a full experiment.

A session assembles what the paper assembled for every benchmark run:
a freshly booted system (cold caches, Section 5.2), the application
under test, the replacement idle loop (Section 2.3), the message-API
monitor (Section 2.4), the optional system-state probes (Section 6),
and an input driver — runs the script, and extracts the latency
profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..sim.timebase import ns_from_ms, sec_from_ns
from ..winsys import boot
from ..winsys.system import WindowsSystem
from ..workload.mstest import MsTestDriver
from ..workload.script import InputScript
from ..workload.typist import TypistDriver, TypistModel
from .extract import EventExtractor, ExtractionResult
from .idleloop import IdleLoopInstrument
from .latency import LatencyEvent, LatencyProfile
from .msgmon import MessageApiMonitor
from .probes import QueueProbe, SyncIoProbe
from .samples import SampleTrace

__all__ = ["SessionResult", "MeasurementSession", "label_events"]


def label_events(
    profile: LatencyProfile,
    marks: List[Tuple[str, int]],
    window_ns: int = 60 * 10**9,
    slack_ns: int = ns_from_ms(10),
) -> None:
    """Attach script-mark labels to the first event starting after each
    mark (within ``window_ns``).  Mutates the events in place.

    ``slack_ns`` tolerates the extractor's start-estimate error: a busy
    period is anchored at the preceding idle-loop record, which can be
    up to one loop time *before* the mark that triggered the event.
    """
    events = sorted(profile.events, key=lambda e: e.start_ns)
    for mark_label, mark_time in marks:
        for event in events:
            if event.label:
                continue
            if mark_time - slack_ns <= event.start_ns <= mark_time + window_ns:
                event.label = mark_label
                break


@dataclass
class SessionResult:
    """Everything a completed session produced."""

    system: WindowsSystem
    app: object
    driver: MsTestDriver
    instrument: IdleLoopInstrument
    monitor: MessageApiMonitor
    io_probe: SyncIoProbe
    queue_probe: QueueProbe
    trace: SampleTrace
    extraction: ExtractionResult
    start_ns: int
    end_ns: int

    @property
    def profile(self) -> LatencyProfile:
        return self.extraction.profile

    @property
    def elapsed_ns(self) -> int:
        """Wall time of the benchmark run (the bracketed numbers in the
        paper's cumulative-latency figures)."""
        return self.end_ns - self.start_ns

    @property
    def elapsed_s(self) -> float:
        return sec_from_ns(self.elapsed_ns)


class MeasurementSession:
    """Boot → instrument → drive → extract, with per-run overrides."""

    def __init__(
        self,
        os_name: str,
        app_factory: Callable[[WindowsSystem], object],
        seed: int = 0,
        loop_ms: float = 1.0,
        settle_ms: float = 200.0,
    ) -> None:
        self.os_name = os_name
        self.app_factory = app_factory
        self.seed = seed
        self.loop_ms = loop_ms
        self.settle_ms = settle_ms

    def run(
        self,
        script: InputScript,
        driver_kind: str = "mstest",
        queuesync: bool = True,
        default_pause_ms: float = 150.0,
        typist_model: Optional[TypistModel] = None,
        merge_gap_ns: int = ns_from_ms(2),
        use_io_probe: bool = True,
        merge_timer_periods: bool = False,
        remove_queuesync: bool = False,
        min_event_ns: int = 0,
        max_seconds: float = 3600.0,
        label_from_marks: bool = True,
    ) -> SessionResult:
        """Execute the whole pipeline once and return the results."""
        system = boot(self.os_name, seed=self.seed)
        app = self.app_factory(system)
        app.start(foreground=True)

        instrument = IdleLoopInstrument(system, loop_ms=self.loop_ms)
        instrument.install()
        monitor = MessageApiMonitor(system, thread_name=app.name)
        monitor.attach()
        io_probe = SyncIoProbe(system)
        io_probe.attach()
        queue_probe = QueueProbe(system, app.thread)
        queue_probe.attach()

        # Let boot-time activity settle before the script begins.
        system.run_for(ns_from_ms(self.settle_ms))
        start_ns = system.now

        if driver_kind == "mstest":
            driver = MsTestDriver(
                system, script, queuesync=queuesync, default_pause_ms=default_pause_ms
            )
        elif driver_kind == "typist":
            driver = TypistDriver(system, script, model=typist_model)
        else:
            raise ValueError(f"unknown driver kind {driver_kind!r}")
        end_ns = driver.run_to_completion(max_seconds=max_seconds)

        trace = instrument.trace().slice(start_ns, system.now)
        extractor = EventExtractor(
            monitor=monitor,
            merge_gap_ns=merge_gap_ns,
            io_wait_spans=io_probe.busy_spans() if use_io_probe else None,
            merge_timer_periods=merge_timer_periods,
            remove_queuesync=remove_queuesync,
            min_event_ns=min_event_ns,
            name=f"{self.os_name}:{app.name}",
        )
        extraction = extractor.extract(trace)
        if label_from_marks:
            label_events(extraction.profile, driver.marks)
        return SessionResult(
            system=system,
            app=app,
            driver=driver,
            instrument=instrument,
            monitor=monitor,
            io_probe=io_probe,
            queue_probe=queue_probe,
            trace=trace,
            extraction=extraction,
            start_ns=start_ns,
            end_ns=end_ns,
        )
