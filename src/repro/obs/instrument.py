"""Attaching the observability session to one booted system.

:func:`instrument_system` is called by :func:`repro.winsys.boot` inside
an :func:`~repro.obs.runtime.observed` scope, before any thread exists.
It binds each hook site to the consumers that read it — the live
tracer, the live metrics registry and the
:class:`~repro.obs.envelope.EnvelopeRecorder` — and leaves a site that
none reads ``None``.  ``kernel.obs``, read by the kernel, the app
framework, the remote layer and the fault injector, is the
:class:`SystemInstrumentation` only when a tracer or registry is live;
``kernel.envelopes`` is the recorder only when the session records
envelopes; the interrupt controller's one ``obs`` slot calls whichever
of the two read deliveries, and each subscribes to the message queues
and the sync-I/O count itself.  So a session with trace and metrics off
calls no tracer or metric method, and builds an API-call record only for
an API hook that measurement code registers itself.
Nothing here imports :mod:`repro.winsys` — the instrumentation is
duck-typed over the booted system, which keeps the dependency arrow
pointing one way (winsys → obs).

Track layout per simulated OS (one Perfetto *process* per boot):

===========  ==========================================================
track        contents
===========  ==========================================================
``cpu``      what the processor executes: ``run:<thread>`` and
             ``dpc:<label>`` spans, serialized (depth 1)
``irq``      one instant per interrupt delivery (genuine and spurious)
``io``       ``sync-io-wait`` spans while synchronous I/O is
             outstanding (the Figure 2 FSM input)
``faults``   one instant per fault injection
per-thread   ``handle:<WM_*>`` app-event spans plus ``post:``/``get:``
             message instants — one track per simulated thread
===========  ==========================================================

Every hook reads the simulated clock and records; none schedules
events, draws random numbers, or mutates kernel state, which is why
payloads stay byte-identical with observability on
(``tests/test_obs_determinism.py``).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional

from .envelope import INPUT_VECTORS, EnvelopeRecorder
from .metrics import NULL_REGISTRY
from .runtime import ObsSession
from .tracer import NULL_TRACER

__all__ = ["SystemInstrumentation", "instrument_system"]

#: Reserved track ids within each simulated process.
CPU_TRACK = 1
IRQ_TRACK = 2
IO_TRACK = 3
FAULTS_TRACK = 4
FIRST_THREAD_TRACK = 5

_DPC_OWNER = object()  # cpu-track owner sentinel while a DPC executes


def _message_kind(message) -> str:
    kind = getattr(message, "kind", message)
    return getattr(kind, "name", str(kind))


class SystemInstrumentation:
    """One boot's trace-and-metrics sink, and the handle (``system.obs``)
    through which harvesters reach the boot's envelope recorder."""

    def __init__(self, system, os_name: str, session: ObsSession) -> None:
        self.system = system
        self.os = os_name
        self._sim = system.machine.sim
        tracer = session.tracer if session.tracer is not None else NULL_TRACER
        registry = (
            session.registry if session.registry is not None else NULL_REGISTRY
        )
        self.tracer = tracer
        self.registry = registry
        self.pid = tracer.register_process(os_name)
        tracer.register_thread(self.pid, "cpu", tid=CPU_TRACK)
        tracer.register_thread(self.pid, "irq", tid=IRQ_TRACK)
        tracer.register_thread(self.pid, "io", tid=IO_TRACK)
        tracer.register_thread(self.pid, "faults", tid=FAULTS_TRACK)
        #: SimThread.tid -> trace track id.
        self._thread_tracks: Dict[int, int] = {}
        self._next_thread_track = FIRST_THREAD_TRACK
        self._cpu_owner: object = None
        self._io_span_open = False
        #: The boot's stage-envelope recorder when the session's envelope
        #: config is enabled, None otherwise (set by instrument_system).
        self.envelopes: Optional[EnvelopeRecorder] = None
        #: stage name -> trace track id ("stage:input", ...), lazy.
        self._stage_tracks: Dict[str, int] = {}

        self._ctx_switches = registry.counter(
            "repro_sim_context_switches_total",
            "Involuntary context switches (preemption, quantum expiry).",
        )
        self._interrupts = registry.counter(
            "repro_sim_interrupts_total",
            "Interrupts serviced, by vector; spurious deliveries labeled.",
        )
        self._dpcs = registry.counter(
            "repro_sim_dpcs_total", "Deferred procedure calls retired."
        )
        self._messages = registry.counter(
            "repro_sim_messages_total",
            "Message-queue transitions (post and get).",
        )
        self._queue_depth = registry.gauge(
            "repro_sim_queue_depth_high_water",
            "Maximum message-queue depth observed, per thread.",
        )
        self._api_calls = registry.counter(
            "repro_sim_api_calls_total",
            "Intercepted USER32-style API calls (GetMessage/PeekMessage).",
        )
        self._app_events = registry.counter(
            "repro_sim_app_events_total",
            "Application message-handler dispatches, by message kind.",
        )
        self._threads_created = registry.counter(
            "repro_sim_threads_created_total", "Simulated threads created."
        )
        self._faults = registry.counter(
            "repro_sim_faults_injected_total",
            "Fault injections fired, by fault name and kind.",
        )
        self._io_waits = registry.counter(
            "repro_sim_sync_io_waits_total",
            "Transitions into the outstanding-synchronous-I/O state.",
        )
        self._io_high_water = registry.gauge(
            "repro_sim_sync_io_outstanding_high_water",
            "Maximum concurrent outstanding synchronous I/O operations.",
        )
        self._ff_batches = registry.counter(
            "repro_sim_fast_forward_batches_total",
            "Idle fast-forward batches (analytic idle-loop jumps).",
        )
        self._ff_segments = registry.counter(
            "repro_sim_fast_forward_segments_total",
            "Idle-loop segments completed analytically by fast-forward.",
        )
        self._ff_ns = registry.counter(
            "repro_sim_fast_forward_ns_total",
            "Simulated nanoseconds crossed by idle fast-forward jumps.",
        )
        self._calendar_depth = registry.gauge(
            "repro_sim_calendar_depth_high_water",
            "Maximum event-calendar length (live + cancelled entries).",
        )
        self._calendar_cancelled = registry.gauge(
            "repro_sim_calendar_cancelled_fraction",
            "Cancelled fraction of the event calendar at snapshot time.",
        )
        self._calendar_compactions = registry.gauge(
            "repro_sim_calendar_compactions",
            "Lazy-deletion compactions performed by the event calendar.",
        )
        self._remote_packets = registry.counter(
            "repro_remote_packets_total",
            "Lossy-link packets offered, by direction and outcome.",
        )
        self._remote_retransmits = registry.counter(
            "repro_remote_retransmits_total",
            "ARQ retransmissions of remote input events.",
        )
        self._remote_give_ups = registry.counter(
            "repro_remote_give_ups_total",
            "Remote inputs abandoned after the retry cap.",
        )
        self._remote_frames = registry.counter(
            "repro_remote_frames_total",
            "Remote frame-pipeline decisions, by outcome.",
        )
        self._remote_predictions = registry.counter(
            "repro_remote_predictions_total",
            "Client-side prediction reconciliations, by outcome.",
        )
        self._remote_rto = registry.gauge(
            "repro_remote_rto_ms_high_water",
            "Maximum adaptive retransmission timeout reached (ms).",
        )
        self._remote_backlog = registry.gauge(
            "repro_remote_link_backlog_ms_high_water",
            "Maximum lossy-link serialization backlog observed (ms).",
        )
        #: direction -> trace track id for link-busy spans (lazy; only
        #: remote sessions allocate them).
        self._net_tracks: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Threads and the CPU track
    # ------------------------------------------------------------------
    def thread_created(self, thread) -> int:
        """Register a per-thread track; subscribe to its message queue."""
        track = self._thread_tracks.get(thread.tid)
        if track is not None:
            return track
        track = self.tracer.register_thread(
            self.pid, f"{thread.name} [t{thread.tid}]", tid=self._next_thread_track
        )
        self._next_thread_track = track + 1
        self._thread_tracks[thread.tid] = track
        self._threads_created.inc(os=self.os)
        thread.queue.add_observer(partial(self.queue_event, thread))
        return track

    def run_begin(self, thread) -> None:
        now = self._sim.now
        if self._cpu_owner is not None:
            # A stale span (e.g. a cancelled busy-wait) — close it so
            # the CPU track stays serialized at depth 1.
            self.tracer.end(self.pid, CPU_TRACK, now, args={"reason": "switch"})
        self._cpu_owner = thread
        self.tracer.begin(
            f"run:{thread.name}",
            self.pid,
            CPU_TRACK,
            now,
            category="sched",
            args={"tid": thread.tid, "priority": thread.priority},
        )

    def run_end(self, thread, reason: str) -> None:
        if self._cpu_owner is not thread:
            return
        self._cpu_owner = None
        self.tracer.end(self.pid, CPU_TRACK, self._sim.now, args={"reason": reason})

    def context_switch(self, reason: str) -> None:
        self._ctx_switches.inc(os=self.os, reason=reason)

    def fast_forward(self, segments: int, span_ns: int) -> None:
        """One analytic idle batch: ``segments`` completions, ``span_ns`` ns."""
        self._ff_batches.inc(os=self.os)
        self._ff_segments.inc(segments, os=self.os)
        self._ff_ns.inc(span_ns, os=self.os)

    def flush_calendar_stats(self) -> None:
        """Publish event-calendar health gauges (run at metrics snapshot)."""
        sim = self._sim
        self._calendar_depth.set_max(sim.calendar_high_water, os=self.os)
        self._calendar_cancelled.set(sim.cancelled_fraction(), os=self.os)
        self._calendar_compactions.set_max(sim.compactions, os=self.os)

    def dpc_begin(self, label: str) -> None:
        now = self._sim.now
        if self._cpu_owner is not None:
            self.tracer.end(self.pid, CPU_TRACK, now, args={"reason": "dpc"})
        self._cpu_owner = _DPC_OWNER
        self.tracer.begin(
            f"dpc:{label or 'dpc'}", self.pid, CPU_TRACK, now, category="dpc"
        )

    def dpc_end(self, label: str) -> None:
        if self._cpu_owner is not _DPC_OWNER:
            return
        self._cpu_owner = None
        self.tracer.end(self.pid, CPU_TRACK, self._sim.now)
        self._dpcs.inc(os=self.os)

    # ------------------------------------------------------------------
    # Interrupts, I/O, faults
    # ------------------------------------------------------------------
    def interrupt(
        self, vector: str, payload: object, duration_ns: int, spurious: bool
    ) -> None:
        self.tracer.instant(
            f"irq:{vector}",
            self.pid,
            IRQ_TRACK,
            self._sim.now,
            category="irq",
            args={"duration_ns": duration_ns, "spurious": spurious},
        )
        self._interrupts.inc(
            os=self.os, vector=vector, spurious=str(spurious).lower()
        )

    def sync_io(self, outstanding: int) -> None:
        now = self._sim.now
        if outstanding > 0 and not self._io_span_open:
            self._io_span_open = True
            self.tracer.begin("sync-io-wait", self.pid, IO_TRACK, now, category="io")
            self._io_waits.inc(os=self.os)
        elif outstanding == 0 and self._io_span_open:
            self._io_span_open = False
            self.tracer.end(self.pid, IO_TRACK, now)
        self._io_high_water.set_max(outstanding, os=self.os)

    def fault_injected(self, name: str, kind: str) -> None:
        self.tracer.instant(
            f"fault:{name}",
            self.pid,
            FAULTS_TRACK,
            self._sim.now,
            category="fault",
            args={"kind": kind},
        )
        self._faults.inc(fault=name, kind=kind)

    # ------------------------------------------------------------------
    # Remote interaction (lossy link + resilient transport)
    # ------------------------------------------------------------------
    def _net_track(self, name: str) -> int:
        """Lazily allocate a named network track (``net-up``/``net-down``
        serialization spans, ``net-events`` packet instants)."""
        track = self._net_tracks.get(name)
        if track is None:
            track = self.tracer.register_thread(
                self.pid, name, tid=self._next_thread_track
            )
            self._next_thread_track = track + 1
            self._net_tracks[name] = track
        return track

    def remote_packet(self, direction: str, outcome: str, size_bytes: int) -> None:
        self.tracer.instant(
            f"pkt:{direction}:{outcome}",
            self.pid,
            self._net_track("net-events"),
            self._sim.now,
            category="net",
            args={"size_bytes": size_bytes},
        )
        self._remote_packets.inc(os=self.os, direction=direction, outcome=outcome)

    def remote_link_busy(self, direction: str, start_ns: int, end_ns: int) -> None:
        # Serialization is strictly sequential per direction (each start
        # is >= the previous end), so the span pair stays monotone.
        track = self._net_track(f"net-{direction}")
        self.tracer.begin(
            f"serialize:{direction}", self.pid, track, start_ns, category="net"
        )
        self.tracer.end(self.pid, track, end_ns)

    def remote_backlog(self, direction: str, backlog_ns: int) -> None:
        self._remote_backlog.set_max(
            backlog_ns / 1e6, os=self.os, direction=direction
        )

    def remote_retransmit(self, seq: int, attempt: int, rto_ns: int) -> None:
        self.tracer.instant(
            f"rexmit:{seq}",
            self.pid,
            self._net_track("net-events"),
            self._sim.now,
            category="net",
            args={"attempt": attempt, "rto_ms": rto_ns / 1e6},
        )
        self._remote_retransmits.inc(os=self.os)
        self._remote_rto.set_max(rto_ns / 1e6, os=self.os)

    def remote_give_up(self, seq: int) -> None:
        self.tracer.instant(
            f"give-up:{seq}",
            self.pid,
            self._net_track("net-events"),
            self._sim.now,
            category="net",
        )
        self._remote_give_ups.inc(os=self.os)

    def remote_frame(self, outcome: str) -> None:
        self._remote_frames.inc(os=self.os, outcome=outcome)

    def remote_prediction(self, hit: bool) -> None:
        self._remote_predictions.inc(
            os=self.os, outcome="hit" if hit else "correction"
        )

    # ------------------------------------------------------------------
    # Stage envelopes (per-stage tracks; see repro.obs.envelope)
    # ------------------------------------------------------------------
    def stage_track(self, stage: str) -> int:
        """Lazily allocate the per-stage trace track (``stage:input``,
        ``stage:queue``, ...) within this OS process."""
        track = self._stage_tracks.get(stage)
        if track is None:
            track = self.tracer.register_thread(
                self.pid, f"stage:{stage}", tid=self._next_thread_track
            )
            self._next_thread_track = track + 1
            self._stage_tracks[stage] = track
        return track

    # ------------------------------------------------------------------
    # Messages and app events (per-thread tracks)
    # ------------------------------------------------------------------
    def queue_event(self, thread, action: str, message, depth: int) -> None:
        track = self._thread_tracks.get(thread.tid)
        if track is not None:
            self.tracer.instant(
                f"{action}:{_message_kind(message)}",
                self.pid,
                track,
                self._sim.now,
                category="msg",
                args={"depth": depth},
            )
        self._messages.inc(os=self.os, action=action)
        self._queue_depth.set_max(depth, os=self.os, thread=thread.name)

    def api_call(self, record) -> None:
        self._api_calls.inc(os=self.os, api=record.api)

    def app_event_begin(self, thread, message) -> None:
        track = self._thread_tracks.get(thread.tid)
        if track is None:
            track = self.thread_created(thread)
        kind = _message_kind(message)
        self.tracer.begin(
            f"handle:{kind}",
            self.pid,
            track,
            self._sim.now,
            category="app",
            args={"from_input": bool(getattr(message, "from_input", False))},
        )
        self._app_events.inc(os=self.os, kind=kind)

    def app_event_end(self, thread, message) -> None:
        track = self._thread_tracks.get(thread.tid)
        if track is None:
            return
        self.tracer.end(self.pid, track, self._sim.now)


def instrument_system(system, os_name: str, session: ObsSession):
    """Bind one booted system's hook sites to the session's live readers."""
    instrumentation = SystemInstrumentation(system, os_name, session)
    registry = instrumentation.registry
    sink = (
        instrumentation
        if instrumentation.tracer.enabled or registry.enabled
        else None
    )
    recorder = None
    if session.envelope_config.enabled:
        recorder = EnvelopeRecorder(system, os_name, session.envelope_config, sink)
        session.register_envelopes(recorder)
    instrumentation.envelopes = recorder
    system.obs = instrumentation
    kernel = system.kernel
    kernel.obs = sink
    kernel.envelopes = recorder
    interrupts = system.machine.interrupts
    if sink is not None and recorder is not None:
        # The interrupt instant precedes the envelope's first stage span.
        def delivered(vector, payload, duration_ns, spurious):
            sink.interrupt(vector, payload, duration_ns, spurious)
            recorder.input_injected(vector, payload, duration_ns, spurious)

        interrupts.obs = delivered
    elif sink is not None:
        interrupts.obs = sink.interrupt
    elif recorder is not None:
        # The recorder reads only genuine deliveries on input vectors:
        # clock ticks and spurious interrupts make no call at all.
        interrupts.obs = recorder.input_injected
        interrupts.obs_vectors = frozenset(INPUT_VECTORS)
    for reader in (recorder, sink):
        if reader is not None:
            kernel.iomgr.add_sync_observer(reader.sync_io)
    if registry.enabled:
        kernel.hooks.register("*", instrumentation.api_call)
        session.add_flush(instrumentation.flush_calendar_stats)
    return instrumentation
