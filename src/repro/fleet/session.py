"""One simulated fleet session, measured end to end.

A session is the paper's methodology in miniature: boot the spec's OS
personality, start an interactive app drawn from the population's app
mix, type with a humanized cadence (speed, jitter and think-pauses all
from the spec), and measure per-keystroke wait time with the *same*
pipeline every figure uses — idle-loop instrument, message-API monitor,
FSM event extraction.  Optionally a seeded fault scenario degrades the
machine underneath, exactly as in ``ext-faults``.

The result is deliberately tiny — a list of wait times and a few
per-stage totals — because fleet aggregation is streaming: the shard
folds it into its sketches and drops it.  No trace, profile or system
object survives the call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..apps.base import InteractiveApp
from ..core import EventExtractor, IdleLoopInstrument, MessageApiMonitor
from ..faults import FaultInjector, get_scenario
from ..obs.runtime import observed
from ..sim.timebase import ns_from_ms
from ..winsys import boot
from ..winsys.syscalls import SyncWrite, Syscall
from .population import APP_PROFILES, SessionSpec

__all__ = ["FleetSessionApp", "SessionResult", "run_session"]

#: Post-typing drain so the last keystroke's work completes before
#: extraction (ms of simulated time).
_DRAIN_MS = 300.0
#: Warm-up before the first keystroke (boot transients settle).
_WARMUP_MS = 150.0
#: Shneiderman floor, as in :mod:`repro.workload.typist`.
_MIN_KEYSTROKE_MS = 120.0


class FleetSessionApp(InteractiveApp):
    """Parameterized interactive probe driven by an app-profile dict.

    Structure follows ``ext-faults``'s probe (compute + echo per
    keystroke, periodic synchronous write-through autosave) with the
    costs supplied by the session's :data:`~repro.fleet.population.APP_PROFILES`
    entry, so ``editor``/``ide``/``terminal`` sessions stress the
    latency pipeline differently.
    """

    name = "fleetapp"
    AUTOSAVE_BYTES = 8 * 1024

    def __init__(self, system, profile: dict) -> None:
        super().__init__(system)
        self.profile = profile
        self.chars_handled = 0
        self.autosaves = 0
        self.scratch = None
        if profile["autosave_every"]:
            self.scratch = system.filesystem.ensure(
                "fleetapp-scratch.tmp", 2 * 1024 * 1024
            )

    def on_char(self, char: str) -> Iterator[Syscall]:
        profile = self.profile
        self.chars_handled += 1
        yield self.app_compute(profile["compute_cycles"], label="fleet-edit")
        yield self.draw(
            profile["draw_cycles"],
            pixels=profile["draw_pixels"],
            label="fleet-echo",
        )
        every = profile["autosave_every"]
        if every and self.chars_handled % every == 0:
            self.autosaves += 1
            span = self.scratch.size_bytes - self.AUTOSAVE_BYTES
            offset = (self.autosaves * 13 * self.AUTOSAVE_BYTES) % max(
                span, self.AUTOSAVE_BYTES
            )
            yield self.app_compute(25_000, label="fleet-serialize")
            yield SyncWrite(self.scratch, offset, self.AUTOSAVE_BYTES)


@dataclass
class SessionResult:
    """What one session contributes to the fleet aggregate."""

    index: int
    os_name: str
    profile: str
    scenario: Optional[str]
    #: Per-keystroke wait time (ms), the paper's core metric.
    wait_ms: List[float] = field(default_factory=list)
    #: Total simulated span of the session (ms).
    span_ms: float = 0.0
    #: Per-stage totals (ms) folded into the fleet stage histogram.
    stage_ms: Dict[str, float] = field(default_factory=dict)
    faults_injected: int = 0
    #: Per-stage envelope sketches (stage -> quantile-sketch payload)
    #: harvested from the session's :class:`~repro.obs.envelope.EnvelopeRecorder`
    #: — per-event stage *distributions*, where ``stage_ms`` only has
    #: per-session totals.  Empty when no recorder was attached.
    envelopes: Dict[str, dict] = field(default_factory=dict)
    envelope_events: int = 0

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "os": self.os_name,
            "profile": self.profile,
            "scenario": self.scenario,
            "wait_ms": [round(float(w), 6) for w in self.wait_ms],
            "span_ms": round(float(self.span_ms), 6),
            "stage_ms": {k: round(float(v), 6) for k, v in self.stage_ms.items()},
            "faults_injected": self.faults_injected,
            "envelopes": self.envelopes,
            "envelope_events": self.envelope_events,
        }


def _harvest_envelopes(system) -> Tuple[Dict[str, dict], int]:
    """Collapse the boot's stage-envelope attribution into per-stage
    quantile-sketch payloads.  The sketches merge commutatively, so the
    fleet aggregate — and its digest — is shard-shape independent."""
    recorder = getattr(getattr(system, "obs", None), "envelopes", None)
    if recorder is None:
        return {}, 0
    sketches = recorder.attribution.stage_sketches()
    return (
        {stage: sketches[stage].to_dict() for stage in sorted(sketches)},
        recorder.finished,
    )


def _run_remote_session(spec: SessionSpec, profile: dict) -> SessionResult:
    """Remote-profile sessions: the wait is the network's, not the app's.

    Keystrokes travel through the resilient transport of
    :mod:`repro.remote`; the resulting per-keystroke waits (frame-echo
    round trips, retransmission stalls, give-ups) fold into the fleet
    sketches exactly like local waits.  ``sync_io_wait`` is zero by
    construction — a thin client does no local autosave I/O.
    """
    from ..remote import LinkConfig, RemoteSession, TransportConfig

    system = boot(spec.os_name, seed=spec.seed)
    recorder = getattr(getattr(system, "obs", None), "envelopes", None)
    if recorder is not None:
        recorder.scenario = spec.scenario or "healthy"
    link = LinkConfig.symmetric(
        "fleet-remote",
        rtt_ms=profile["rtt_ms"],
        jitter_ms=profile["jitter_ms"],
        loss=profile["loss"],
    )
    session = RemoteSession(
        system,
        link,
        transport=TransportConfig(prediction=profile["prediction"]),
        scenario=spec.scenario,
    )
    base_gap_ms = max(_MIN_KEYSTROKE_MS, 60_000.0 / (spec.wpm * 5.0))
    remote = session.run(chars=spec.chars, cadence_ms=base_gap_ms)
    keystroke_wait_ms = float(sum(remote.wait_ms))
    envelopes, envelope_events = _harvest_envelopes(system)
    return SessionResult(
        index=spec.index,
        os_name=spec.os_name,
        profile=spec.profile,
        scenario=spec.scenario,
        wait_ms=[float(w) for w in remote.wait_ms],
        span_ms=remote.span_ms,
        stage_ms={
            "keystroke_wait": keystroke_wait_ms,
            "other_event_wait": 0.0,
            "sync_io_wait": 0.0,
            "session_span": remote.span_ms,
        },
        faults_injected=(
            session.injector.summary()["total"]
            if session.injector is not None
            else 0
        ),
        envelopes=envelopes,
        envelope_events=envelope_events,
    )


def run_session(spec: SessionSpec) -> SessionResult:
    """Run and measure one session; deterministic in ``spec`` alone.

    All randomness (typing cadence, think pauses, fault arrivals) flows
    from named streams of the session's own master seed, so two calls
    with equal specs return equal results — the property batch caching
    and the shard-permutation determinism test rely on.

    Every session runs in its own trace-less, metric-less
    :func:`~repro.obs.runtime.observed` scope with default envelopes,
    so stage envelopes are always recorded in full: the per-stage
    sketches in :attr:`SessionResult.envelopes` are what the fleet
    aggregate's bottleneck attribution is built from.  The scope hides
    any session the caller has open, so the caller's sample rate or
    budgets never change the result, and the session adds nothing to
    the caller's trace, metrics or stage roll-up.
    """
    with observed(trace=False, metrics=False):
        if APP_PROFILES[spec.profile].get("remote"):
            return _run_remote_session(spec, APP_PROFILES[spec.profile])
        return _run_local_session(spec)


def _run_local_session(spec: SessionSpec) -> SessionResult:
    system = boot(spec.os_name, seed=spec.seed)
    recorder = getattr(getattr(system, "obs", None), "envelopes", None)
    if recorder is not None:
        recorder.scenario = spec.scenario or "healthy"
    app = FleetSessionApp(system, APP_PROFILES[spec.profile])
    app.start(foreground=True)
    instrument = IdleLoopInstrument(system)
    instrument.install()
    monitor = MessageApiMonitor(system, thread_name=app.name)
    monitor.attach()
    system.run_for(ns_from_ms(_WARMUP_MS))

    injector = None
    if spec.scenario is not None:
        injector = FaultInjector(system, get_scenario(spec.scenario)).install()

    cadence = system.machine.rngs.stream("fleet-typist")
    base_gap_ms = max(_MIN_KEYSTROKE_MS, 60_000.0 / (spec.wpm * 5.0))
    started_ns = system.now
    for position in range(spec.chars):
        system.machine.keyboard.keystroke(chr(ord("a") + position % 26))
        gap_ms = base_gap_ms * cadence.uniform(
            1.0 - spec.jitter, 1.0 + spec.jitter
        )
        # A think pause roughly once per six keystrokes, exponentially
        # distributed around the spec's mean — the paper's think-time
        # component of the wait/think decomposition.
        if cadence.random() < 1.0 / 6.0:
            gap_ms += cadence.expovariate(1.0 / spec.think_mean_s) * 1000.0
        system.run_for(ns_from_ms(max(_MIN_KEYSTROKE_MS, gap_ms)))
    system.run_for(ns_from_ms(_DRAIN_MS))
    span_ms = (system.now - started_ns) / 1e6

    extraction = EventExtractor(
        monitor=monitor, merge_gap_ns=ns_from_ms(2)
    ).extract(instrument.trace())
    keystrokes = extraction.profile.filter(
        lambda e: any("WM_KEYDOWN" in kind for kind in e.message_kinds)
    )
    wait_ms = [float(x) for x in keystrokes.latencies_ms]
    all_wait_ms = float(extraction.profile.latencies_ms.sum())
    keystroke_wait_ms = float(sum(wait_ms))
    sync_io_ms = system.iomgr.sync_wait_ns / 1e6
    envelopes, envelope_events = _harvest_envelopes(system)
    return SessionResult(
        index=spec.index,
        os_name=spec.os_name,
        profile=spec.profile,
        scenario=spec.scenario,
        wait_ms=wait_ms,
        span_ms=span_ms,
        stage_ms={
            "keystroke_wait": keystroke_wait_ms,
            "other_event_wait": max(0.0, all_wait_ms - keystroke_wait_ms),
            "sync_io_wait": sync_io_ms,
            "session_span": span_ms,
        },
        faults_injected=(
            injector.summary()["total"] if injector is not None else 0
        ),
        envelopes=envelopes,
        envelope_events=envelope_events,
    )
