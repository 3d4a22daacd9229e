"""Per-input-event stage envelopes (latency decomposition as infrastructure).

The paper's core argument is that a single end-to-end timestamp hides
*where* interactive latency goes.  A :class:`StageEnvelope` is the
infrastructure answer: one record per hardware input event, stamped at
every pipeline boundary as the event crosses

    input -> dispatch -> queue -> handler -> render        (local)
    input -> network -> render                             (remote)

``input``     ISR service time (interrupt raised -> handler post-action)
``dispatch``  kernel-side input dispatch (DPC queueing, Win95 mouse spin)
``queue``     time on the per-thread message queue (post -> get)
``handler``   application handling of every message the event produced
``render``    the display-update tail (GetMessage cost + batched GDI flush)
``network``   remote sessions only: transport round trip until the echo
              frame plays on the client

Stamping is *cursor-based*: an envelope carries one cursor that starts
at the inject time and advances to ``now`` at each boundary, accumulating
the elapsed span into the stage it just left.  Conservation is therefore
exact by construction — the integer stage durations sum to precisely
``done_ns - inject_ns`` — which is the property the hypothesis test in
``tests/test_envelope.py`` asserts for every completed envelope.

Determinism contract (pinned by ``tests/test_obs_determinism.py`` and
the golden digests): the recorder only *reads* the simulated clock and
mutates its own state.  It never schedules events, never draws from an
existing RNG stream, and never perturbs kernel behaviour.  Sampling
draws come from a dedicated ``rngs.fork("stage-sample")`` child factory
— disjoint from every simulation stream by construction — and only when
``0 < sample_rate < 1``; the default rate of 1.0 draws nothing at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

__all__ = [
    "STAGES",
    "EnvelopeConfig",
    "EnvelopeRecorder",
    "StageEnvelope",
]

#: Canonical stage order (local pipeline first, then the remote stage).
STAGES: Tuple[str, ...] = (
    "input",
    "dispatch",
    "queue",
    "handler",
    "render",
    "network",
)

#: Hardware interrupt vectors that begin an envelope.  Clock and disk
#: interrupts are system housekeeping, not user input.
INPUT_VECTORS = ("keyboard", "mouse", "nic")

#: Bound on envelopes awaiting kernel pickup (id(payload) -> envelope).
_PENDING_CAP = 1024
#: Bound on completed envelopes retained for in-process consumers
#: (``ext-decompose``); attribution sketches are unbounded-safe.
_COMPLETED_CAP = 4096
#: Bound on budget-alert records retained verbatim.
_ALERT_CAP = 256


class StageEnvelope:
    """One input event's journey through the latency pipeline."""

    __slots__ = (
        "kind",
        "seq",
        "inject_ns",
        "done_ns",
        "stage",
        "stage_ns",
        "boundaries",
        "app",
        "outcome",
        "message_kinds",
        "thread_tid",
        "open_messages",
        "io_ns",
        "_cursor_ns",
        "_span_open",
    )

    def __init__(self, kind: str, seq: int, inject_ns: int) -> None:
        self.kind = kind
        self.seq = seq
        self.inject_ns = int(inject_ns)
        self.done_ns: Optional[int] = None
        #: Current stage, or None once finalized.
        self.stage: Optional[str] = "input"
        #: stage -> accumulated integer nanoseconds.
        self.stage_ns: Dict[str, int] = {"input": 0}
        #: (stage, entered_at_ns) boundary stamps, in crossing order.
        self.boundaries: List[Tuple[str, int]] = [("input", int(inject_ns))]
        self.app: Optional[str] = None
        self.outcome: Optional[str] = None
        self.message_kinds: List[str] = []
        self.thread_tid: Optional[int] = None
        #: Messages carrying this envelope that are posted but not yet
        #: fully handled (a keystroke posts WM_KEYDOWN *and* WM_CHAR).
        self.open_messages = 0
        #: Informational: synchronous-I/O wait overlapping the handler
        #: stage (already included in ``handler``; never double-counted).
        self.io_ns = 0
        self._cursor_ns = int(inject_ns)
        self._span_open: Optional[str] = None

    def advance(self, stage: str, now_ns: int) -> None:
        """Cross a boundary: charge ``now - cursor`` to the current stage."""
        if self.stage is None:
            raise ValueError(f"envelope {self.seq} already finalized")
        now_ns = int(now_ns)
        self.stage_ns[self.stage] = (
            self.stage_ns.get(self.stage, 0) + now_ns - self._cursor_ns
        )
        self._cursor_ns = now_ns
        self.stage = stage
        self.stage_ns.setdefault(stage, 0)
        self.boundaries.append((stage, now_ns))

    def close(self, now_ns: int, outcome: str = "completed") -> None:
        """Charge the final span and seal the envelope."""
        if self.stage is None:
            return
        now_ns = int(now_ns)
        self.stage_ns[self.stage] = (
            self.stage_ns.get(self.stage, 0) + now_ns - self._cursor_ns
        )
        self._cursor_ns = now_ns
        self.done_ns = now_ns
        self.stage = None
        self.outcome = outcome

    @property
    def total_ns(self) -> int:
        end = self.done_ns if self.done_ns is not None else self._cursor_ns
        return end - self.inject_ns

    @property
    def total_ms(self) -> float:
        return self.total_ns / 1e6

    def stage_ms(self, stage: str) -> float:
        return self.stage_ns.get(stage, 0) / 1e6

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seq": self.seq,
            "inject_ns": self.inject_ns,
            "done_ns": self.done_ns,
            "total_ns": self.total_ns,
            "stages_ns": {s: self.stage_ns[s] for s in sorted(self.stage_ns)},
            "boundaries": [[s, t] for s, t in self.boundaries],
            "app": self.app,
            "outcome": self.outcome,
            "message_kinds": list(self.message_kinds),
            "io_ns": self.io_ns,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StageEnvelope({self.kind}#{self.seq}, stage={self.stage!r}, "
            f"total_ms={self.total_ms:.3f})"
        )


@dataclass
class EnvelopeConfig:
    """Runtime configuration for envelope collection.

    Every boot in an :func:`~repro.obs.runtime.observed` scope records
    with that scope's config; fleet sessions open their own scope with
    the defaults, so a caller's config never reaches fleet results.
    :meth:`coerce` accepts the dict form the runner ships to workers
    inside its plain picklable ``obs`` options dict.
    """

    enabled: bool = True
    #: Fraction of input events that receive an envelope.  1.0 and 0.0
    #: draw no random numbers at all; any other rate draws one number
    #: per input event from the dedicated ``stage-sample`` fork stream.
    sample_rate: float = 1.0
    #: stage -> budget (ms); a completed envelope exceeding a budget
    #: emits a threshold-alert record (bounded) and bumps a counter.
    budgets_ms: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def coerce(cls, value) -> "EnvelopeConfig":
        """Normalize ``None`` / dict / EnvelopeConfig to a config."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        return cls(
            enabled=bool(value.get("enabled", True)),
            sample_rate=float(value.get("sample_rate", 1.0)),
            budgets_ms={
                str(k): float(v)
                for k, v in (value.get("budgets_ms") or {}).items()
            },
        )


class EnvelopeRecorder:
    """Stamps envelopes for one booted system.

    Created by :func:`repro.obs.instrument.instrument_system` when the
    session records envelopes.  It subscribes to what it reads: the
    interrupt controller's slot, the kernel's envelope sites, every
    thread's message queue, the I/O manager's sync-I/O count and the app
    framework's handler close.  It folds every finalized envelope into a
    :class:`~repro.obs.attribution.StageAttribution`.

    ``sink`` is the boot's
    :class:`~repro.obs.instrument.SystemInstrumentation` when a tracer or
    metrics registry is live, and receives the stage spans and envelope
    counters; with ``sink=None`` the recorder calls neither.
    """

    def __init__(self, system, os_name: str, config, sink) -> None:
        from .attribution import StageAttribution

        self.system = system
        self.os = os_name
        self.config = config
        self._sim = system.machine.sim
        self._sink = sink
        self.scenario = "baseline"
        self._next_seq = 0
        #: id(payload) -> (payload, envelope): created at interrupt
        #: inject, claimed by the kernel's delivery action.  The payload
        #: reference keeps the id stable while the entry lives.
        self._awaiting: Dict[int, Tuple[object, StageEnvelope]] = {}
        #: handler-thread tid -> envelopes in the render stage, closed by
        #: the thread's next message-pump action.
        self._render_pending: Dict[int, List[StageEnvelope]] = {}
        #: id(env) -> envelope currently in the handler stage (for the
        #: sync-I/O overlap attribution).
        self._in_handler: Dict[int, StageEnvelope] = {}
        self.completed: List[StageEnvelope] = []
        self.alerts: List[dict] = []
        self.alerts_suppressed = 0
        self.started = 0
        self.finished = 0
        self.sampled_out = 0
        self.attribution = StageAttribution()
        self._io_open_ns: Optional[int] = None
        rate = config.sample_rate
        #: Keep/drop stream, created only when a fractional rate makes
        #: draws necessary — the default path touches no RNG state.
        self._keep_rng = (
            system.machine.rngs.fork("stage-sample").stream("keep")
            if 0.0 < rate < 1.0
            else None
        )
        if sink is not None:
            self._envelopes_total = sink.registry.counter(
                "repro_stage_envelopes_total",
                "Stage envelopes finalized, by outcome.",
            )
            self._budget_exceeded = sink.registry.counter(
                "repro_stage_budget_exceeded_total",
                "Completed envelopes whose stage time exceeded its budget.",
            )

    # ------------------------------------------------------------------
    # Stage-span plumbing (one Perfetto track per stage per OS process).
    # Spans open only with a live sink, so without one _span_end finds
    # nothing open.
    # ------------------------------------------------------------------
    def _span_begin(self, env: StageEnvelope, stage: str, now_ns: int) -> None:
        sink = self._sink
        sink.tracer.begin(
            f"{stage}:{env.kind}",
            sink.pid,
            sink.stage_track(stage),
            now_ns,
            category="stage",
            args={"seq": env.seq},
        )
        env._span_open = stage

    def _span_end(self, env: StageEnvelope, now_ns: int) -> None:
        if env._span_open is None:
            return
        sink = self._sink
        sink.tracer.end(sink.pid, sink.stage_track(env._span_open), now_ns)
        env._span_open = None

    # ------------------------------------------------------------------
    # Envelope lifecycle primitives
    # ------------------------------------------------------------------
    def begin(
        self, kind: str, inject_ns: int, span: bool = True
    ) -> Optional[StageEnvelope]:
        """Open an envelope, subject to the sampling decision.

        ``span=False`` defers trace-span emission to the first
        :meth:`advance` — required when ``inject_ns`` lies in the past
        (remote envelopes anchor at the hardware keystroke time), since
        the trace validator demands list-order-monotone timestamps.
        """
        if self._keep_rng is not None:
            if self._keep_rng.random() >= self.config.sample_rate:
                self.sampled_out += 1
                return None
        elif self.config.sample_rate <= 0.0:
            self.sampled_out += 1
            return None
        env = StageEnvelope(kind, self._next_seq, inject_ns)
        self._next_seq += 1
        self.started += 1
        if span and self._sink is not None:
            self._span_begin(env, "input", inject_ns)
        return env

    def advance(
        self, env: StageEnvelope, stage: str, now_ns: Optional[int] = None
    ) -> None:
        if now_ns is None:
            now_ns = self._sim.now
        self._span_end(env, now_ns)
        env.advance(stage, now_ns)
        if self._sink is not None:
            self._span_begin(env, stage, now_ns)

    def finalize(
        self,
        env: StageEnvelope,
        now_ns: Optional[int] = None,
        outcome: str = "completed",
    ) -> None:
        if env.stage is None:
            return
        if now_ns is None:
            now_ns = self._sim.now
        self._span_end(env, now_ns)
        env.close(now_ns, outcome=outcome)
        self.finished += 1
        if self._sink is not None:
            self._envelopes_total.inc(os=self.os, outcome=outcome)
        if len(self.completed) < _COMPLETED_CAP:
            self.completed.append(env)
        self.attribution.observe(env, self.os, self.scenario)
        self._check_budgets(env, now_ns)

    def _check_budgets(self, env: StageEnvelope, now_ns: int) -> None:
        budgets = self.config.budgets_ms
        if not budgets:
            return
        sink = self._sink
        for stage, budget_ms in budgets.items():
            actual_ms = env.stage_ns.get(stage, 0) / 1e6
            if actual_ms <= budget_ms:
                continue
            if sink is not None:
                self._budget_exceeded.inc(os=self.os, stage=stage)
                sink.tracer.instant(
                    f"budget:{stage}",
                    sink.pid,
                    sink.stage_track(stage),
                    now_ns,
                    category="stage",
                    args={"seq": env.seq, "actual_ms": actual_ms},
                )
            if len(self.alerts) >= _ALERT_CAP:
                self.alerts_suppressed += 1
                continue
            self.alerts.append(
                {
                    "os": self.os,
                    "app": env.app or env.kind,
                    "scenario": self.scenario,
                    "stage": stage,
                    "budget_ms": round(float(budget_ms), 6),
                    "actual_ms": round(actual_ms, 6),
                    "seq": env.seq,
                    "inject_ms": round(env.inject_ns / 1e6, 6),
                }
            )

    # ------------------------------------------------------------------
    # Local input pipeline hooks (interrupts -> kernel -> queues -> app)
    # ------------------------------------------------------------------
    def input_injected(
        self, vector: str, payload: object, duration_ns: int, spurious: bool
    ) -> None:
        """An interrupt was raised: open an envelope at inject time.
        Housekeeping vectors and spurious deliveries (no payload) carry
        no input event."""
        if vector not in INPUT_VECTORS or payload is None:
            return
        env = self.begin(vector, self._sim.now)
        if env is None:
            return
        if len(self._awaiting) >= _PENDING_CAP:
            # Evict the oldest entry (its delivery never happened).
            stale_key = next(iter(self._awaiting))
            _, stale = self._awaiting.pop(stale_key)
            self.finalize(stale, outcome="abandoned")
        self._awaiting[id(payload)] = (payload, env)

    def input_dispatch_begin(self, payload: object) -> None:
        """The ISR post-action is running: input stage ends here."""
        entry = self._awaiting.get(id(payload))
        if entry is None or entry[0] is not payload:
            return
        env = entry[1]
        if env.stage == "input":
            self.advance(env, "dispatch")

    def take_envelope(self, payload: object) -> Optional[StageEnvelope]:
        """Claim the envelope for delivery (attach to posted messages)."""
        entry = self._awaiting.pop(id(payload), None)
        if entry is None or entry[0] is not payload:
            return None
        return entry[1]

    def thread_created(self, thread) -> None:
        """Subscribe to the thread's message queue (post and get)."""
        thread.queue.add_observer(partial(self.on_queue_event, thread))

    def on_queue_event(self, thread, action: str, message, depth: int) -> None:
        env = getattr(message, "envelope", None)
        if env is None or env.stage is None:
            return
        if action == "post":
            env.open_messages += 1
            if env.stage == "dispatch":
                self.advance(env, "queue")
        elif action == "get":
            if env.stage == "queue":
                env.thread_tid = thread.tid
                self.advance(env, "handler")
                self._in_handler[id(env)] = env

    def on_app_event_end(self, thread, message) -> None:
        env = getattr(message, "envelope", None)
        if env is None or env.stage is None:
            return
        if env.app is None:
            env.app = thread.name
        kind = getattr(message, "kind", None)
        env.message_kinds.append(getattr(kind, "name", str(kind)))
        env.open_messages -= 1
        if env.open_messages <= 0 and env.stage == "handler":
            self._in_handler.pop(id(env), None)
            self.advance(env, "render")
            self._render_pending.setdefault(thread.tid, []).append(env)

    def pump_idle(self, thread) -> None:
        """The thread's message pump reached its next retrieval action:
        every envelope waiting in the render stage is done on screen."""
        pending = self._render_pending.get(thread.tid)
        if not pending:
            return
        now = self._sim.now
        for env in pending:
            self.finalize(env, now)
        pending.clear()

    def sync_io(self, outstanding: int) -> None:
        """The iomgr's sync-I/O count changed: attribute overlap with
        in-flight handler stages (informational; the wall time is
        already inside ``handler`` by the cursor construction)."""
        now = self._sim.now
        if outstanding > 0 and self._io_open_ns is None:
            self._io_open_ns = now
        elif outstanding == 0 and self._io_open_ns is not None:
            delta = now - self._io_open_ns
            self._io_open_ns = None
            if delta <= 0:
                return
            for env in self._in_handler.values():
                env.io_ns += delta

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Aggregate view harvested by the runner into manifests."""
        return {
            "attribution": self.attribution.to_dict(),
            "alerts": list(self.alerts),
            "alerts_suppressed": self.alerts_suppressed,
            "started": self.started,
            "completed": self.finished,
            "sampled_out": self.sampled_out,
            "sample_rate": self.config.sample_rate,
        }
