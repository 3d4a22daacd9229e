"""Scoped observability session.

The simulator never imports the runner and the runner never reaches
into a booted system, so the two sides meet here: an owner (a job, a
fleet session, a test) opens an :class:`ObsSession` with
:func:`observed`, and :func:`repro.winsys.boot` reads :func:`current`
at boot time to decide whether to attach instrumentation.  No session
→ nothing attaches → the disabled path is a handful of ``is None``
checks (see ``benchmarks/test_obs_overhead.py``).

The session is a scoped value, like the idle fast-forward setting
(:func:`repro.sim.engine.fast_forward_scope`): :func:`observed` sets it
for the block and restores the enclosing scope's session on exit.
Scopes nest because owners nest — an observed job runs a fleet whose
every session opens its own private scope — and the inner owner must
neither read nor feed the outer one's trace, metrics or stage roll-up.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

from .attribution import merge_stage_snapshots
from .envelope import EnvelopeConfig
from .metrics import MetricsRegistry
from .tracer import Tracer

__all__ = [
    "ObsSession",
    "current",
    "observed",
    "record_trace_loss",
]


class ObsSession:
    """One tracer + one metrics registry, shared by sim and harness."""

    def __init__(
        self,
        trace: bool = True,
        metrics: bool = True,
        envelopes=None,
    ) -> None:
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.registry: Optional[MetricsRegistry] = (
            MetricsRegistry() if metrics else None
        )
        #: Stage-envelope configuration (``None`` -> enabled defaults);
        #: accepts an EnvelopeConfig or its dict form (the runner ships
        #: it to pool workers inside a plain picklable options dict).
        self.envelope_config = EnvelopeConfig.coerce(envelopes)
        #: EnvelopeRecorders created by instrument_system, one per boot.
        self._envelope_recorders: list = []
        #: Callbacks run just before every metrics snapshot — how
        #: point-in-time gauges (calendar depth, cancelled fraction) get
        #: their final values without per-event publishing cost.
        self._flush_hooks: list = []

    def add_flush(self, hook) -> None:
        """Register a zero-argument callback to run at snapshot time."""
        self._flush_hooks.append(hook)

    # ------------------------------------------------------------------
    # Stage envelopes (see repro.obs.envelope / repro.obs.attribution)
    # ------------------------------------------------------------------
    def register_envelopes(self, recorder) -> None:
        """Track one boot's EnvelopeRecorder for session-wide queries."""
        self._envelope_recorders.append(recorder)

    @property
    def envelope_recorders(self) -> list:
        return list(self._envelope_recorders)

    def stage_snapshot(self) -> Optional[dict]:
        """The manifest-ready envelope summary (None if nothing ran)."""
        return merge_stage_snapshots(
            [recorder.snapshot() for recorder in self._envelope_recorders]
        )

    def metrics_snapshot(self) -> Optional[dict]:
        if self.registry is None:
            return None
        self._flush_trace_loss()
        for hook in self._flush_hooks:
            hook()
        return self.registry.snapshot()

    def _flush_trace_loss(self) -> None:
        """Surface the session tracer's own buffer loss as gauges."""
        if self.registry is None or self.tracer is None:
            return
        record_trace_loss(self.tracer, scope="tracer", registry=self.registry)


#: Session of the current scope; :func:`repro.winsys.boot` instruments
#: what it boots for it.  Only :func:`observed` sets it.
_session: ContextVar[Optional[ObsSession]] = ContextVar(
    "obs_session", default=None
)


def current() -> Optional[ObsSession]:
    """The current scope's session (None outside every :func:`observed`)."""
    return _session.get()


@contextmanager
def observed(
    trace: bool = True,
    metrics: bool = True,
    envelopes=None,
) -> Iterator[ObsSession]:
    """``with observed() as session:`` — a fresh session for the block,
    then the enclosing scope's session (or none) again."""
    session = ObsSession(trace=trace, metrics=metrics, envelopes=envelopes)
    token = _session.set(session)
    try:
        yield session
    finally:
        _session.reset(token)


def record_trace_loss(buffer, scope: str, registry=None) -> None:
    """Publish a trace buffer's ``dropped``/``overwritten`` counts as
    gauges, so a lossy trace is visible in metrics and not only in
    integrity skip-markers.  ``buffer`` is anything exposing
    ``dropped``/``overwritten`` (TraceBuffer, Tracer).  No session and
    no explicit registry → no-op.
    """
    if registry is None:
        session = current()
        if session is None or session.registry is None:
            return
        registry = session.registry
    registry.gauge(
        "repro_trace_dropped_records",
        "Trace records dropped because a bounded buffer was full.",
    ).set_max(buffer.dropped, scope=scope)
    registry.gauge(
        "repro_trace_overwritten_records",
        "Trace records overwritten by a wrapping bounded buffer.",
    ).set_max(buffer.overwritten, scope=scope)
