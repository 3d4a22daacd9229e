"""Run evidence: the raw material measurement invariants check.

A :class:`RunEvidence` bundles, for one completed instrumented run,
every artifact the measurement pipeline produced *plus* the primary
sources it produced them from: the idle-loop record timestamps, the
merged FSM transition stream, the classified wait/think spans, the
extracted latency events, the message-queue accounting and the
hardware-counter deltas.  Invariants (:mod:`repro.verify.invariants`)
cross-check the artifacts against the sources — they re-derive, they
do not trust.

Fields are deliberately plain (lists of ints, small dataclasses, string
dicts) so that test fixtures can corrupt evidence surgically — shuffle
timestamps, drop a dequeue — and assert that exactly the matching
invariant trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.fsm import Span, Transition, WaitThinkSummary

__all__ = ["EventRecord", "RunEvidence", "evidence_from_session"]


@dataclass
class EventRecord:
    """One extracted latency episode, flattened for integrity checking.

    ``source`` records which extraction bucket the episode landed in:
    ``"input"`` (the user-event profile), ``"background"`` (timer-only
    activity) or ``"system"`` (no retrievals at all).
    """

    start_ns: int
    latency_ns: int
    busy_ns: int
    source: str = "input"


@dataclass
class RunEvidence:
    """Everything one instrumented run produced, sources and artifacts.

    ``start_ns``/``end_ns`` bound the accounted measurement window;
    spans, summaries and events are checked against that window.
    ``record_times_ns`` is the raw idle-loop record stream (possibly
    unsliced); ``trace_lossy`` is True when the trace buffer dropped or
    overwrote records, in which case invariants that need the full
    history report ``skipped`` rather than ``passed``.
    """

    os_name: str
    seed: int
    start_ns: int
    end_ns: int
    loop_ns: int
    #: Raw idle-loop record timestamps, in the order the buffer holds them.
    record_times_ns: List[int] = field(default_factory=list)
    #: True when the trace buffer dropped or overwrote records.
    trace_lossy: bool = False
    #: Classified wait/think spans (the Figure 2 output).
    spans: List[Span] = field(default_factory=list)
    #: The merged FSM input stream the spans were classified from.
    transitions: List[Transition] = field(default_factory=list)
    #: The classifier's totals, cross-checked against the spans.
    summary: Optional[WaitThinkSummary] = None
    #: Extracted latency episodes across all three extraction buckets.
    events: List[EventRecord] = field(default_factory=list)
    #: Message-queue accounting: posted, retrieved, residual, dropped.
    queue_stats: Dict[str, int] = field(default_factory=dict)
    #: Hardware-counter deltas over the run (event name -> delta).
    counter_deltas: Dict[str, int] = field(default_factory=dict)
    #: Free-form context carried into violation records (scenario, app...).
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def span_ns(self) -> int:
        return self.end_ns - self.start_ns


def _events_from_extraction(extraction) -> List[EventRecord]:
    """Flatten an :class:`~repro.core.extract.ExtractionResult`."""
    records: List[EventRecord] = []
    for source, profile in (
        ("input", extraction.profile),
        ("background", extraction.background),
        ("system", extraction.system_activity),
    ):
        for event in profile:
            records.append(
                EventRecord(
                    start_ns=int(event.start_ns),
                    latency_ns=int(event.latency_ns),
                    busy_ns=int(event.busy_ns),
                    source=source,
                )
            )
    records.sort(key=lambda r: (r.start_ns, r.latency_ns))
    return records


def build_evidence(
    *,
    os_name: str,
    seed: int,
    start_ns: int,
    end_ns: int,
    loop_ns: int,
    record_times_ns,
    trace_lossy: bool,
    extraction,
    cpu_spans: List[Tuple[int, int]],
    queue_spans: List[Tuple[int, int]],
    io_spans: List[Tuple[int, int]],
    queue,
    counters_before: Optional[Dict[object, int]] = None,
    counters_after: Optional[Dict[object, int]] = None,
    meta: Optional[Dict[str, object]] = None,
) -> RunEvidence:
    """Assemble evidence from pipeline components.

    The three span sources feed one FSM exactly as the measurement
    stack does (Figure 2); the resulting spans and summary are part of
    the evidence so invariants can check the classification against
    the transition stream it came from.
    """
    from ..core.fsm import StateInput, classify_timeline, spans_to_transitions

    transitions: List[Transition] = []
    transitions += spans_to_transitions(cpu_spans, StateInput.CPU)
    transitions += spans_to_transitions(queue_spans, StateInput.QUEUE)
    transitions += spans_to_transitions(io_spans, StateInput.SYNC_IO)
    transitions.sort(key=lambda t: t.time_ns)
    spans, summary = classify_timeline(transitions, start_ns, end_ns)

    before = dict(counters_before or {})
    after = dict(counters_after or {})
    deltas = {
        _counter_name(key): int(after[key]) - int(before.get(key, 0))
        for key in after
    }

    queue_stats = {
        "posted": int(queue.posted_count),
        "retrieved": int(queue.retrieved_count),
        "residual": len(queue),
        "dropped": int(queue.dropped_count),
    }

    return RunEvidence(
        os_name=os_name,
        seed=seed,
        start_ns=start_ns,
        end_ns=end_ns,
        loop_ns=loop_ns,
        record_times_ns=[int(t) for t in record_times_ns],
        trace_lossy=bool(trace_lossy),
        spans=spans,
        transitions=transitions,
        summary=summary,
        events=_events_from_extraction(extraction),
        queue_stats=queue_stats,
        counter_deltas=deltas,
        meta=dict(meta or {}),
    )


def _counter_name(key) -> str:
    """HwEvent members stringify to their value; 'cycles' stays as is."""
    value = getattr(key, "value", key)
    return str(value)


def evidence_from_session(session, seed: int = 0) -> RunEvidence:
    """Build evidence from a completed
    :class:`~repro.core.session.SessionResult`.

    Uses the session's own probes and trace — the evidence describes
    the pipeline *as it ran*, not a re-measurement.  Counter baselines
    are boot-time zero, so deltas equal totals.
    """
    trace = session.trace
    cpu_spans = [(s, e) for s, e, _busy in trace.elongated()]
    instrument_buffer = session.instrument.buffer
    # A full buffer halted the instrument mid-run: partial history.
    trace_lossy = instrument_buffer.lossy or instrument_buffer.full
    return build_evidence(
        os_name=session.system.personality.name,
        seed=seed,
        start_ns=session.start_ns,
        end_ns=max(session.end_ns, session.start_ns),
        loop_ns=trace.loop_ns,
        record_times_ns=list(trace.times),
        trace_lossy=trace_lossy,
        extraction=session.extraction,
        cpu_spans=cpu_spans,
        queue_spans=session.queue_probe.nonempty_spans(),
        io_spans=session.io_probe.busy_spans(),
        queue=session.app.thread.queue,
        counters_after=session.system.perf.snapshot(),
        meta={"app": getattr(session.app, "name", "")},
    )
