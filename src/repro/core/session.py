"""The measurement rig, and one-call orchestration of a full experiment.

:func:`instrumented` assembles what the paper assembled for every
benchmark run: a freshly booted system (cold caches, Section 5.2), the
application under test in the foreground, the replacement idle loop
(Section 2.3), the message-API monitor (Section 2.4) and, on request,
the queue and sync-I/O probes (the "additional system support" of
Section 6).  It is the one place that knows the attach order; every
experiment, the fleet and the integrity probe start from it.

:class:`MeasurementSession` adds an input driver on top of the rig:
settle, run the script, and extract the latency profile.  A run that
outlives its session is kept as a :class:`Measurement`, which holds no
booted system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..sim.timebase import ns_from_ms, sec_from_ns
from ..winsys import boot
from ..winsys.system import WindowsSystem
from ..workload.mstest import MsTestDriver
from ..workload.script import InputScript
from ..workload.typist import TypistDriver
from .extract import EventExtractor, ExtractionResult
from .idleloop import IdleLoopInstrument
from .latency import LatencyProfile
from .msgmon import MessageApiMonitor
from .probes import QueueProbe, SyncIoProbe
from .samples import SampleTrace

__all__ = [
    "Measurement",
    "MeasurementSession",
    "Rig",
    "SessionResult",
    "instrumented",
    "label_events",
]


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


@dataclass(frozen=True)
class Measurement:
    """A finished run: what was extracted from the script's window,
    and the window itself."""

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


@dataclass(frozen=True)
class Rig:
    """A booted system with the app under test and the instruments on it.

    ``io_probe`` and ``queue_probe`` are ``None`` unless the rig was
    built with ``probes=True``.
    """

    system: WindowsSystem
    app: object
    instrument: IdleLoopInstrument
    monitor: MessageApiMonitor
    io_probe: Optional[SyncIoProbe]
    queue_probe: Optional[QueueProbe]

    def extract(
        self, trace: Optional[SampleTrace] = None, **options
    ) -> ExtractionResult:
        """Extract events from ``trace`` (default: the whole idle-loop
        trace so far) with the rig's monitor; ``options`` go to
        :class:`~repro.core.extract.EventExtractor`."""
        if trace is None:
            trace = self.instrument.trace()
        return EventExtractor(monitor=self.monitor, **options).extract(trace)


def instrumented(
    os_name: str,
    app_factory: Callable[[WindowsSystem], object],
    seed: int = 0,
    probes: bool = False,
    loop_ms: float = 1.0,
    buffer_capacity: int = 2_000_000,
) -> Rig:
    """Boot ``os_name``, start the app in the foreground and attach the
    idle loop, the monitor and (with ``probes``) the sync-I/O and queue
    probes, in that order.  Simulated time does not advance: the caller
    settles the system as its experiment requires."""
    system = boot(os_name, seed=seed)
    app = app_factory(system)
    app.start(foreground=True)
    instrument = IdleLoopInstrument(
        system, loop_ms=loop_ms, buffer_capacity=buffer_capacity
    )
    instrument.install()
    monitor = MessageApiMonitor(system, thread_name=app.name)
    monitor.attach()
    io_probe = queue_probe = None
    if probes:
        io_probe = SyncIoProbe(system)
        io_probe.attach()
        queue_probe = QueueProbe(system, app.thread)
        queue_probe.attach()
    return Rig(system, app, instrument, monitor, io_probe, queue_probe)


@dataclass(frozen=True)
class SessionResult(Rig, Measurement):
    """Everything a completed session produced: the rig, the driver
    that ran the script, the script window's trace, and the
    :class:`Measurement` extracted from it."""

    driver: MsTestDriver
    trace: SampleTrace

    def measurement(self) -> Measurement:
        """The finished run without the rig, driver and trace."""
        return Measurement(self.extraction, self.start_ns, self.end_ns)


class MeasurementSession:
    """Rig → settle → drive → extract, with per-run overrides."""

    def __init__(
        self,
        os_name: str,
        app_factory: Callable[[WindowsSystem], object],
        seed: int = 0,
    ) -> None:
        self.os_name = os_name
        self.app_factory = app_factory
        self.seed = seed

    def run(
        self,
        script: InputScript,
        driver_kind: str = "mstest",
        queuesync: bool = True,
        default_pause_ms: float = 150.0,
        remove_queuesync: bool = False,
        max_seconds: float = 3600.0,
    ) -> SessionResult:
        """Execute the whole pipeline once and return the results."""
        rig = instrumented(self.os_name, self.app_factory, seed=self.seed, probes=True)
        system = rig.system
        # Let boot-time activity settle before the script begins.
        system.run_for(ns_from_ms(200))
        start_ns = system.now

        if driver_kind == "mstest":
            driver = MsTestDriver(
                system, script, queuesync=queuesync, default_pause_ms=default_pause_ms
            )
        elif driver_kind == "typist":
            driver = TypistDriver(system, script)
        else:
            raise ValueError(f"unknown driver kind {driver_kind!r}")
        end_ns = driver.run_to_completion(max_seconds=max_seconds)

        trace = rig.instrument.trace().slice(start_ns, system.now)
        extraction = rig.extract(
            trace,
            io_wait_spans=rig.io_probe.busy_spans(),
            remove_queuesync=remove_queuesync,
            name=f"{self.os_name}:{rig.app.name}",
        )
        label_events(extraction.profile, driver.marks)
        return SessionResult(
            **vars(rig),
            driver=driver,
            trace=trace,
            extraction=extraction,
            start_ns=start_ns,
            end_ns=end_ns,
        )
