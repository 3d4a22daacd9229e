"""Per-input-event stage envelopes (latency decomposition as infrastructure).

The paper's core argument is that a single end-to-end timestamp hides
*where* interactive latency goes.  A stage envelope is the
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

Stamping is *column-based*: the recorder keeps flat stamp columns, and
crossing a boundary appends one ``(envelope, stage code, time)`` row
linked to the envelope's previous row; finalizing appends a close row
whose code carries the outcome.  A stage's time is the gap between the
row that entered it and the next row of the same envelope, so the
integer stage durations sum to precisely ``done_ns - inject_ns`` — the
property the hypothesis test in ``tests/test_envelope.py`` asserts for
every completed envelope.  Durations, sketches and the per-group
attribution are computed once, when read (:attr:`EnvelopeRecorder.
attribution`, :attr:`EnvelopeRecorder.completed`); a live tracer still
gets its stage spans at each boundary and budget alerts at finalize.

Determinism contract (pinned by ``tests/test_obs_determinism.py`` and
the golden digests): the recorder only *reads* the simulated clock and
mutates its own state.  It never schedules events, never draws from an
existing RNG stream, and never perturbs kernel behaviour.  Sampling
draws come from a dedicated ``rngs.fork("stage-sample")`` child factory
— disjoint from every simulation stream by construction — and only when
``0 < sample_rate < 1``; the default rate of 1.0 draws nothing at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

__all__ = [
    "OUTCOMES",
    "STAGES",
    "EnvelopeConfig",
    "EnvelopeRecorder",
    "StageEnvelope",
]

#: Canonical stage order (local pipeline first, then the remote stage).
#: A stage's code is its index here.
STAGES: Tuple[str, ...] = (
    "input",
    "dispatch",
    "queue",
    "handler",
    "render",
    "network",
)
_INPUT, _DISPATCH, _QUEUE, _HANDLER, _RENDER, _NETWORK = range(len(STAGES))
_STAGE_CODE = {stage: code for code, stage in enumerate(STAGES)}

#: How an envelope ends.  A close stamp's code is ``_CLOSE`` plus the
#: outcome's index, so every code at or above ``_CLOSE`` is final.
OUTCOMES: Tuple[str, ...] = ("completed", "abandoned", "censored")
_OUTCOME_CODE = {outcome: code for code, outcome in enumerate(OUTCOMES)}
_COMPLETED, _ABANDONED = _OUTCOME_CODE["completed"], _OUTCOME_CODE["abandoned"]
_CLOSE = len(STAGES)

#: Hardware interrupt vectors that begin an envelope.  Clock and disk
#: interrupts are system housekeeping, not user input.
INPUT_VECTORS = ("keyboard", "mouse", "nic")

#: Bound on envelopes awaiting kernel pickup (id(payload) -> envelope).
_PENDING_CAP = 1024
#: Bound on the completed envelopes that :attr:`EnvelopeRecorder.
#: completed` builds (``ext-decompose``); attribution counts them all.
_COMPLETED_CAP = 4096
#: Bound on budget-alert records retained verbatim.
_ALERT_CAP = 256


def _by_stage(by_code: List[List[int]]) -> Dict[str, List[int]]:
    """Lists indexed by stage code -> the non-empty ones by stage name."""
    return {STAGES[code]: ns for code, ns in enumerate(by_code) if ns}


class StageEnvelope:
    """One finalized input event's journey through the latency pipeline.

    A read-only view: :attr:`EnvelopeRecorder.completed` builds these
    from the recorder's stamp columns when it is read.
    """

    __slots__ = (
        "kind",
        "seq",
        "inject_ns",
        "done_ns",
        "stage_ns",
        "boundaries",
        "app",
        "outcome",
        "message_kinds",
        "io_ns",
    )

    def __init__(
        self,
        kind: str,
        seq: int,
        boundaries: List[Tuple[str, int]],
        done_ns: int,
        outcome: str,
        app: Optional[str],
        message_kinds: List[str],
        io_ns: int,
    ) -> None:
        self.kind = kind
        self.seq = seq
        #: (stage, entered_at_ns) boundary stamps, in crossing order.
        self.boundaries = boundaries
        self.inject_ns = boundaries[0][1]
        self.done_ns = done_ns
        #: stage -> integer nanoseconds, in visit order.
        self.stage_ns: Dict[str, int] = {}
        ends = [entered for _, entered in boundaries[1:]] + [done_ns]
        for (stage, entered), left in zip(boundaries, ends):
            self.stage_ns[stage] = self.stage_ns.get(stage, 0) + left - entered
        self.app = app
        self.outcome = outcome
        self.message_kinds = message_kinds
        #: Informational: synchronous-I/O wait overlapping the handler
        #: stage (already included in ``handler``; never double-counted).
        self.io_ns = io_ns

    @property
    def total_ns(self) -> int:
        return self.done_ns - self.inject_ns

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
            f"StageEnvelope({self.kind}#{self.seq}, outcome={self.outcome!r}, "
            f"total_ns={self.total_ns})"
        )


@dataclass
class EnvelopeConfig:
    """Runtime configuration for envelope collection.

    Every boot in an :func:`~repro.obs.runtime.observed` scope records
    with that scope's config; fleet sessions open their own scope with
    the defaults, so a caller's config never reaches fleet results.
    :meth:`coerce` accepts the dict form the runner ships to workers
    inside its plain picklable ``obs`` options dict.  A bad value raises
    :class:`ValueError` here, where the config is made, by the same
    rules the runner's ``--stage-sample-rate`` and ``--stage-budget``
    checks apply.
    """

    enabled: bool = True
    #: Fraction of input events that receive an envelope.  1.0 and 0.0
    #: draw no random numbers at all; any other rate draws one number
    #: per input event from the dedicated ``stage-sample`` fork stream.
    sample_rate: float = 1.0
    #: stage -> budget (ms); a completed envelope exceeding a budget
    #: emits a threshold-alert record (bounded) and bumps a counter.
    budgets_ms: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.valid_sample_rate(self.sample_rate):
            raise ValueError(
                f"sample_rate must be in [0, 1], got {self.sample_rate!r}"
            )
        for stage, budget_ms in self.budgets_ms.items():
            if not self.valid_budget(stage, budget_ms):
                raise ValueError(
                    f"invalid stage budget {stage}={budget_ms!r}: the stage "
                    f"must be one of {', '.join(STAGES)} and the budget a "
                    f"positive, finite number of ms"
                )

    @staticmethod
    def valid_sample_rate(rate: float) -> bool:
        """A fraction in [0, 1]; NaN is not."""
        return 0.0 <= rate <= 1.0

    @staticmethod
    def valid_budget(stage: str, budget_ms: float) -> bool:
        """A known stage with a positive, finite budget."""
        return stage in _STAGE_CODE and math.isfinite(budget_ms) and budget_ms > 0

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
    """Stamps envelopes for one booted system into flat columns.

    Created by :func:`repro.obs.instrument.instrument_system` when the
    session records envelopes.  It subscribes to what it reads: the
    interrupt controller's slot, the kernel's envelope sites, every
    thread's message queue, the I/O manager's sync-I/O count and the app
    framework's handler close.  Those sites, and the remote session,
    hold an envelope only as an opaque integer handle (its ``seq``).

    Each stage boundary appends one row to the stamp columns: the
    envelope, the stage code entered (or a close code) and the time,
    linked to the envelope's previous row.  The live state of an open
    envelope is its latest row, its count of unhandled messages and, in
    the handler stage, its sync-I/O overlap.  Nothing is folded while
    recording: :attr:`attribution` and :attr:`completed` are views
    computed from the columns when read.

    ``sink`` is the boot's
    :class:`~repro.obs.instrument.SystemInstrumentation` when a tracer or
    metrics registry is live, and receives the stage spans and envelope
    counters; with ``sink=None`` the recorder calls neither.
    """

    def __init__(self, system, os_name: str, config, sink) -> None:
        self.system = system
        self.os = os_name
        self.config = config
        self._sim = system.machine.sim
        self._sink = sink
        # Stamp columns, one row per boundary crossed.  Plain lists:
        # appending to one costs a fraction of an ``array.append``.
        self._stamp_env: List[int] = []
        self._stamp_code: List[int] = []
        self._stamp_ns: List[int] = []
        #: The same envelope's previous row; -1 on its input row.
        self._stamp_prev: List[int] = []
        # Envelope columns, indexed by handle.
        #: Latest stamp row: its code is the envelope's current stage.
        self._head: List[int] = []
        self._kind: List[str] = []
        #: The thread that handled the envelope's first message.
        self._app: List[Optional[str]] = []
        #: Messages posted with the envelope and not yet fully handled
        #: (a keystroke posts WM_KEYDOWN *and* WM_CHAR).
        self._open: List[int] = []
        #: handle -> sync-I/O overlap (ns), for the envelopes it touched.
        self._io_ns: Dict[int, int] = {}
        #: (handle, message kind) of every message handled while open.
        self._handled_env: List[int] = []
        self._handled_kind: List[object] = []
        #: Close rows, in finalize order.
        self._closed: List[int] = []
        #: (first stamp row, scenario) from each :attr:`scenario` change.
        self._scenarios: List[Tuple[int, str]] = [(0, "baseline")]
        #: id(payload) -> (payload, handle): opened at interrupt inject,
        #: claimed by the kernel's delivery action.  The payload
        #: reference keeps the id stable while the entry lives.
        self._awaiting: Dict[int, Tuple[object, int]] = {}
        #: handler-thread tid -> handles in the render stage, closed by
        #: the thread's next message-pump action.
        self._render_pending: Dict[int, List[int]] = {}
        #: Handles currently in the handler stage (sync-I/O overlap).
        self._in_handler: set = set()
        self._io_open_ns: Optional[int] = None
        self.alerts: List[dict] = []
        self.alerts_suppressed = 0
        self.sampled_out = 0
        self._budgets = [
            (_STAGE_CODE[stage], stage, budget_ms)
            for stage, budget_ms in config.budgets_ms.items()
        ]
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

    @property
    def started(self) -> int:
        return len(self._head)

    @property
    def finished(self) -> int:
        return len(self._closed)

    @property
    def scenario(self) -> str:
        """The scenario that envelopes finalized from now on belong to."""
        return self._scenarios[-1][1]

    @scenario.setter
    def scenario(self, name: str) -> None:
        self._scenarios.append((len(self._stamp_ns), name))

    # ------------------------------------------------------------------
    # Stage-span plumbing (one Perfetto track per stage per OS process).
    # With a live sink every open envelope has a span open for its
    # current stage, except a remote envelope's input stage.
    # ------------------------------------------------------------------
    def _span_begin(self, handle: int, code: int, now_ns: int) -> None:
        sink = self._sink
        stage = STAGES[code]
        sink.tracer.begin(
            f"{stage}:{self._kind[handle]}",
            sink.pid,
            sink.stage_track(stage),
            now_ns,
            category="stage",
            args={"seq": handle},
        )

    def _span_end(self, handle: int, now_ns: int) -> None:
        sink = self._sink
        stage = STAGES[self._stamp_code[self._head[handle]]]
        sink.tracer.end(sink.pid, sink.stage_track(stage), now_ns)

    # ------------------------------------------------------------------
    # Envelope lifecycle: one stamp per boundary
    # ------------------------------------------------------------------
    def _stamp(self, handle: int, code: int, now_ns: int) -> int:
        """Append one stamp row linked to the envelope's last; its row."""
        row = len(self._stamp_ns)
        self._stamp_env.append(handle)
        self._stamp_code.append(code)
        self._stamp_ns.append(now_ns)
        self._stamp_prev.append(self._head[handle])
        self._head[handle] = row
        return row

    def _begin(self, kind: str, inject_ns: int) -> Optional[int]:
        """Open an envelope at its input stage, subject to the sampling
        decision; its handle, or None when sampled out."""
        if self._keep_rng is not None:
            if self._keep_rng.random() >= self.config.sample_rate:
                self.sampled_out += 1
                return None
        elif self.config.sample_rate <= 0.0:
            self.sampled_out += 1
            return None
        handle = len(self._head)
        self._head.append(-1)
        self._kind.append(kind)
        self._app.append(None)
        self._open.append(0)
        self._stamp(handle, _INPUT, inject_ns)
        return handle

    def _advance(self, handle: int, code: int, now_ns: int) -> None:
        if self._sink is None:
            self._stamp(handle, code, now_ns)
            return
        self._span_end(handle, now_ns)
        self._stamp(handle, code, now_ns)
        self._span_begin(handle, code, now_ns)

    def _finalize(self, handle: int, now_ns: int, outcome: int) -> None:
        if self._stamp_code[self._head[handle]] >= _CLOSE:
            return
        sink = self._sink
        if sink is not None:
            self._span_end(handle, now_ns)
        row = self._stamp(handle, _CLOSE + outcome, now_ns)
        self._closed.append(row)
        if sink is not None:
            self._envelopes_total.inc(os=self.os, outcome=OUTCOMES[outcome])
        if self._budgets:
            self._check_budgets(handle, row, now_ns)

    def _chain(self, row: int) -> List[int]:
        """The envelope's stamp rows up to ``row``, oldest first."""
        rows = [row]
        prevs = self._stamp_prev
        while prevs[row] >= 0:
            row = prevs[row]
            rows.append(row)
        rows.reverse()
        return rows

    def _time_in(self, row: int, code: int) -> int:
        """The time spent in stage ``code`` by the envelope whose latest
        row is ``row``: the gap after the row that entered it (an
        envelope enters a stage at most once, see _spans_into)."""
        codes, times, prevs = self._stamp_code, self._stamp_ns, self._stamp_prev
        prev = prevs[row]
        while prev >= 0:
            if codes[prev] == code:
                return times[row] - times[prev]
            row = prev
            prev = prevs[row]
        return 0

    def _check_budgets(self, handle: int, close_row: int, now_ns: int) -> None:
        sink = self._sink
        for code, stage, budget_ms in self._budgets:
            actual_ms = self._time_in(close_row, code) / 1e6
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
                    args={"seq": handle, "actual_ms": actual_ms},
                )
            if len(self.alerts) >= _ALERT_CAP:
                self.alerts_suppressed += 1
                continue
            self.alerts.append(
                {
                    "os": self.os,
                    "app": self._app[handle] or self._kind[handle],
                    "scenario": self.scenario,
                    "stage": stage,
                    "budget_ms": round(float(budget_ms), 6),
                    "actual_ms": round(actual_ms, 6),
                    "seq": handle,
                    "inject_ms": round(
                        self._stamp_ns[self._chain(close_row)[0]] / 1e6, 6
                    ),
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
        now = self._sim.now
        handle = self._begin(vector, now)
        if handle is None:
            return
        if self._sink is not None:
            self._span_begin(handle, _INPUT, now)
        awaiting = self._awaiting
        if len(awaiting) >= _PENDING_CAP:
            # Evict the oldest entry (its delivery never happened).
            _, stale = awaiting.pop(next(iter(awaiting)))
            self._finalize(stale, now, _ABANDONED)
        awaiting[id(payload)] = (payload, handle)

    def input_dispatch_begin(self, payload: object) -> None:
        """The ISR post-action is running: input stage ends here."""
        entry = self._awaiting.get(id(payload))
        if entry is None or entry[0] is not payload:
            return
        handle = entry[1]
        if self._stamp_code[self._head[handle]] == _INPUT:
            self._advance(handle, _DISPATCH, self._sim.now)

    def take_envelope(self, payload: object) -> Optional[int]:
        """Claim the envelope's handle for delivery (it rides the posted
        messages)."""
        entry = self._awaiting.pop(id(payload), None)
        if entry is None or entry[0] is not payload:
            return None
        return entry[1]

    def thread_created(self, thread) -> None:
        """Subscribe to the thread's message queue (post and get)."""
        thread.queue.add_observer(partial(self.on_queue_event, thread))

    def on_queue_event(self, thread, action: str, message, depth: int) -> None:
        handle = message.envelope
        if handle is None:
            return
        code = self._stamp_code[self._head[handle]]
        if code >= _CLOSE:
            return
        if action == "post":
            self._open[handle] += 1
            if code == _DISPATCH:
                self._advance(handle, _QUEUE, self._sim.now)
        elif action == "get" and code == _QUEUE:
            self._advance(handle, _HANDLER, self._sim.now)
            self._in_handler.add(handle)

    def on_app_event_end(self, thread, message) -> None:
        handle = message.envelope
        if handle is None:
            return
        code = self._stamp_code[self._head[handle]]
        if code >= _CLOSE:
            return
        if self._app[handle] is None:
            self._app[handle] = thread.name
        self._handled_env.append(handle)
        self._handled_kind.append(message.kind)
        self._open[handle] -= 1
        if self._open[handle] <= 0 and code == _HANDLER:
            self._in_handler.discard(handle)
            self._advance(handle, _RENDER, self._sim.now)
            pending = self._render_pending.get(thread.tid)
            if pending is None:
                pending = self._render_pending[thread.tid] = []
            pending.append(handle)

    def pump_idle(self, thread) -> None:
        """The thread's message pump reached its next retrieval action:
        every envelope waiting in the render stage is done on screen."""
        pending = self._render_pending.get(thread.tid)
        if not pending:
            return
        now = self._sim.now
        for handle in pending:
            self._finalize(handle, now, _COMPLETED)
        pending.clear()

    def sync_io(self, outstanding: int) -> None:
        """The iomgr's sync-I/O count changed: attribute overlap with
        in-flight handler stages (informational; the wall time is
        already inside ``handler`` by the stamp construction)."""
        now = self._sim.now
        if outstanding > 0 and self._io_open_ns is None:
            self._io_open_ns = now
        elif outstanding == 0 and self._io_open_ns is not None:
            delta = now - self._io_open_ns
            self._io_open_ns = None
            if delta <= 0:
                return
            io_ns = self._io_ns
            for handle in self._in_handler:
                io_ns[handle] = io_ns.get(handle, 0) + delta

    # ------------------------------------------------------------------
    # Remote session hooks: the envelope anchors at the hardware
    # keystroke and spends its round trip in the ``network`` stage.
    # ------------------------------------------------------------------
    def remote_input(self, inject_ns: int, network: bool) -> Optional[int]:
        """A keystroke reached the transport: open its envelope at the
        past ``inject_ns`` and cross into ``network`` (or, with local
        echo prediction, straight into ``render``) now.  Its input stage
        gets no trace span, since spans must start at a live moment."""
        handle = self._begin("remote", int(inject_ns))
        if handle is None:
            return None
        self._app[handle] = "remote"
        code = _NETWORK if network else _RENDER
        now = self._sim.now
        self._stamp(handle, code, now)
        if self._sink is not None:
            self._span_begin(handle, code, now)
        return handle

    def remote_render(self, handle: int, now_ns: Optional[int] = None) -> None:
        """The frame covering the input starts to play: the network
        stage, if the envelope is in it, ends here."""
        if self._stamp_code[self._head[handle]] == _NETWORK:
            self._advance(
                handle, _RENDER, self._sim.now if now_ns is None else int(now_ns)
            )

    def remote_close(
        self,
        handle: int,
        now_ns: Optional[int] = None,
        outcome: str = "completed",
    ) -> None:
        """The input's wait ended: render it (if still in the network
        stage) and finalize with ``outcome``."""
        now_ns = self._sim.now if now_ns is None else int(now_ns)
        self.remote_render(handle, now_ns)
        self._finalize(handle, now_ns, _OUTCOME_CODE[outcome])

    # ------------------------------------------------------------------
    # Views, built from the columns when read
    # ------------------------------------------------------------------
    def _spans_into(self, row: int, by_code: List[List[int]]) -> int:
        """Append the time in each stage of the envelope closed at
        ``row`` to ``by_code[stage code]``; return its input row.  The
        stage graph is acyclic, so an envelope enters a stage at most
        once and each gap between its rows is that stage's whole time."""
        codes, times, prevs = self._stamp_code, self._stamp_ns, self._stamp_prev
        prev = prevs[row]
        while prev >= 0:
            by_code[codes[prev]].append(times[row] - times[prev])
            row = prev
            prev = prevs[row]
        return row

    def stage_durations(self) -> Dict[str, List[int]]:
        """stage -> the time every finalized envelope spent in it."""
        by_code: List[List[int]] = [[] for _ in STAGES]
        for row in self._closed:
            self._spans_into(row, by_code)
        return _by_stage(by_code)

    def group_durations(
        self,
    ) -> Dict[Tuple[str, str, str], Tuple[List[int], Dict[str, List[int]]]]:
        """(app, os, scenario) -> (each finalized envelope's wait,
        stage -> its stage times), in first-finalized group order."""
        groups: Dict[Tuple[str, str, str], Tuple[List[int], List[List[int]]]] = {}
        times, scenarios = self._stamp_ns, self._scenarios
        index = 0
        for row in self._closed:
            # The scenario an envelope belongs to is the one set last
            # before its close row was written.
            while index + 1 < len(scenarios) and scenarios[index + 1][0] <= row:
                index += 1
            handle = self._stamp_env[row]
            key = (
                self._app[handle] or self._kind[handle],
                self.os,
                scenarios[index][1] or "baseline",
            )
            group = groups.get(key)
            if group is None:
                group = groups[key] = ([], [[] for _ in STAGES])
            first = self._spans_into(row, group[1])
            group[0].append(times[row] - times[first])
        return {
            key: (waits, _by_stage(by_code))
            for key, (waits, by_code) in groups.items()
        }

    @property
    def attribution(self):
        """A :class:`~repro.obs.attribution.StageAttribution` over the
        finalized envelopes, folded from the columns when read."""
        from .attribution import StageAttribution

        return StageAttribution(self)

    @property
    def completed(self) -> List[StageEnvelope]:
        """The first ``_COMPLETED_CAP`` finalized envelopes in finalize
        order, built from the columns (``finished`` counts them all)."""
        closed = self._closed[:_COMPLETED_CAP]
        kinds: Dict[int, List[str]] = {self._stamp_env[row]: [] for row in closed}
        for handle, kind in zip(self._handled_env, self._handled_kind):
            if handle in kinds:
                kinds[handle].append(getattr(kind, "name", str(kind)))
        codes, times = self._stamp_code, self._stamp_ns
        envelopes = []
        for close in closed:
            handle = self._stamp_env[close]
            rows = self._chain(close)
            envelopes.append(
                StageEnvelope(
                    self._kind[handle],
                    handle,
                    [(STAGES[codes[row]], times[row]) for row in rows[:-1]],
                    times[close],
                    OUTCOMES[codes[close] - _CLOSE],
                    self._app[handle],
                    kinds[handle],
                    self._io_ns.get(handle, 0),
                )
            )
        return envelopes

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
