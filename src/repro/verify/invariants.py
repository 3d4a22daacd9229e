"""Runtime invariant checking over completed runs.

The paper trusts its numbers because the pipeline that produced them
was validated (Section 3, Figure 1).  This module makes that validation
continuous: a registry of named invariants, each re-deriving one
accounting property from the evidence of a completed run
(:class:`~repro.verify.evidence.RunEvidence`) and reporting structured
:class:`InvariantViolation` records when the property fails to hold.

Each invariant checks exactly one property, and normalizes away
properties owned by its siblings (e.g. sample-sum reconciliation sorts
timestamps first, because ordering is ``monotonic-timestamps``' job).
That separation is what lets a seeded corruption trip *exactly* its
matching invariant — the contract the corruption-fixture tests assert.

Invariants marked ``needs_full_history`` are meaningless over a lossy
trace (one whose buffer dropped records or filled up): over such
evidence they report ``skipped``, never ``passed``.

The catalog (paper anchor in parentheses):

* ``time-conservation`` (§2.3/Fig. 2) — wait+think spans tile the
  session exactly: no gaps, no overlaps, no negative durations, totals
  conserved.
* ``fsm-transition-legality`` (Fig. 2) — only legal FSM edges occur:
  spans alternate states, the state sequence re-derived from the input
  transitions matches, per-state totals agree with the summary.
* ``monotonic-timestamps`` (§2.3) — the idle-loop record stream and
  transition stream are time-ordered; events are ordered with
  non-negative durations.
* ``sample-sum-consistency`` (§3/Fig. 1) — busy time attributed to
  extracted events reconciles with the idle-loop elongation totals
  within a stated tolerance.
* ``queue-conservation`` (§2.4) — messages are conserved:
  posted == retrieved + residual, all counts non-negative.
* ``counter-sanity`` (§2.2) — Pentium counter deltas are non-negative
  and total attributed event latency never exceeds the measured
  session span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from ..core.fsm import StateInput, Transition, UserState, WaitThinkFSM
from .evidence import RunEvidence

__all__ = [
    "InvariantChecker",
    "InvariantReport",
    "InvariantViolation",
    "SAMPLE_SUM_TOLERANCE",
    "check_payload",
    "invariant",
    "invariant_names",
    "summarize_reports",
]

#: Stated relative tolerance for the Figure-1 style reconciliation of
#: attributed busy time against idle-loop elongation totals.
SAMPLE_SUM_TOLERANCE = 1e-3


@dataclass(frozen=True)
class InvariantViolation:
    """One structured violation record, with enough context to debug."""

    invariant: str
    message: str
    context: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "message": self.message,
            "context": {str(k): _plain(v) for k, v in self.context.items()},
        }


@dataclass
class InvariantReport:
    """Outcome of one invariant over one run's evidence."""

    name: str
    status: str  # 'passed' | 'failed' | 'skipped'
    violations: List[InvariantViolation] = field(default_factory=list)
    detail: str = ""
    paper: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "passed"

    @property
    def failed(self) -> bool:
        return self.status == "failed"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "paper": self.paper,
            "detail": self.detail,
            "violations": [v.to_dict() for v in self.violations],
        }


def _plain(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return str(value)


@dataclass(frozen=True)
class _InvariantSpec:
    name: str
    fn: Callable[[RunEvidence], Iterator[InvariantViolation]]
    paper: str
    needs_full_history: bool


_REGISTRY: Dict[str, _InvariantSpec] = {}


def invariant(name: str, paper: str = "", needs_full_history: bool = False):
    """Register an invariant: a generator of violations over evidence."""

    def register(fn):
        if name in _REGISTRY:
            raise ValueError(f"duplicate invariant name {name!r}")
        _REGISTRY[name] = _InvariantSpec(
            name=name, fn=fn, paper=paper, needs_full_history=needs_full_history
        )
        return fn

    return register


def invariant_names() -> List[str]:
    """All registered invariant names, in registration order."""
    return list(_REGISTRY)


class InvariantChecker:
    """Evaluates registered invariants over completed-run evidence."""

    def __init__(self, names: Optional[Sequence[str]] = None) -> None:
        if names is None:
            self.names = invariant_names()
        else:
            unknown = [n for n in names if n not in _REGISTRY]
            if unknown:
                raise ValueError(
                    f"unknown invariants: {unknown}; known: {invariant_names()}"
                )
            self.names = list(names)

    def check(self, evidence: RunEvidence) -> List[InvariantReport]:
        """One report per selected invariant, in catalog order."""
        reports: List[InvariantReport] = []
        for name in self.names:
            spec = _REGISTRY[name]
            if spec.needs_full_history and evidence.trace_lossy:
                reports.append(
                    InvariantReport(
                        name=name,
                        status="skipped",
                        detail="trace is lossy (dropped records or a full buffer); "
                        "full-history invariant not evaluable",
                        paper=spec.paper,
                    )
                )
                continue
            violations = list(spec.fn(evidence))
            reports.append(
                InvariantReport(
                    name=name,
                    status="failed" if violations else "passed",
                    violations=violations,
                    detail=violations[0].message if violations else "",
                    paper=spec.paper,
                )
            )
        return reports


def summarize_reports(reports: Iterable[InvariantReport]) -> dict:
    """Manifest-friendly summary: names bucketed by status."""
    summary = {"passed": [], "failed": [], "skipped": []}
    for report in reports:
        summary.setdefault(report.status, []).append(report.name)
    return summary


# ----------------------------------------------------------------------
# The catalog
# ----------------------------------------------------------------------
@invariant("time-conservation", paper="S2.3/Fig.2")
def _time_conservation(ev: RunEvidence) -> Iterator[InvariantViolation]:
    """Spans tile [start, end] exactly: no gaps, overlaps or negatives."""
    window = ev.span_ns
    if window < 0:
        yield InvariantViolation(
            "time-conservation",
            f"negative session window: start {ev.start_ns} > end {ev.end_ns}",
            {"start_ns": ev.start_ns, "end_ns": ev.end_ns},
        )
        return
    if not ev.spans:
        if window > 0:
            yield InvariantViolation(
                "time-conservation",
                f"no spans cover a {window} ns session window",
                {"window_ns": window},
            )
        return
    for index, span in enumerate(ev.spans):
        if span.duration_ns <= 0:
            yield InvariantViolation(
                "time-conservation",
                f"span {index} has non-positive duration {span.duration_ns} ns",
                {"index": index, "start_ns": span.start_ns, "end_ns": span.end_ns},
            )
    if ev.spans[0].start_ns != ev.start_ns:
        yield InvariantViolation(
            "time-conservation",
            f"first span starts at {ev.spans[0].start_ns} ns, "
            f"session starts at {ev.start_ns} ns",
            {"span_start_ns": ev.spans[0].start_ns, "start_ns": ev.start_ns},
        )
    if ev.spans[-1].end_ns != ev.end_ns:
        yield InvariantViolation(
            "time-conservation",
            f"last span ends at {ev.spans[-1].end_ns} ns, "
            f"session ends at {ev.end_ns} ns",
            {"span_end_ns": ev.spans[-1].end_ns, "end_ns": ev.end_ns},
        )
    for index in range(len(ev.spans) - 1):
        left, right = ev.spans[index], ev.spans[index + 1]
        if right.start_ns > left.end_ns:
            yield InvariantViolation(
                "time-conservation",
                f"gap of {right.start_ns - left.end_ns} ns between spans "
                f"{index} and {index + 1}",
                {"index": index, "gap_ns": right.start_ns - left.end_ns},
            )
        elif right.start_ns < left.end_ns:
            yield InvariantViolation(
                "time-conservation",
                f"overlap of {left.end_ns - right.start_ns} ns between spans "
                f"{index} and {index + 1}",
                {"index": index, "overlap_ns": left.end_ns - right.start_ns},
            )
    total = sum(span.duration_ns for span in ev.spans)
    if total != window:
        yield InvariantViolation(
            "time-conservation",
            f"span durations sum to {total} ns, session window is {window} ns",
            {"total_ns": total, "window_ns": window},
        )
    if ev.summary is not None and ev.summary.total_ns != window:
        yield InvariantViolation(
            "time-conservation",
            f"summary accounts {ev.summary.total_ns} ns, "
            f"session window is {window} ns",
            {"summary_total_ns": ev.summary.total_ns, "window_ns": window},
        )


@invariant("fsm-transition-legality", paper="Fig.2")
def _fsm_transition_legality(ev: RunEvidence) -> Iterator[InvariantViolation]:
    """Only Figure 2 edges occur, and span states match the inputs.

    The state sequence is re-derived from the transition stream with a
    fresh :class:`WaitThinkFSM` and compared with the classified spans'
    state sequence; per-state totals are cross-checked against the
    summary.  Only state identity is examined here — exact boundary
    times belong to ``time-conservation``.
    """
    for index, transition in enumerate(ev.transitions):
        if not isinstance(transition.which, StateInput):
            yield InvariantViolation(
                "fsm-transition-legality",
                f"transition {index} drives unknown FSM input "
                f"{transition.which!r}",
                {"index": index, "which": transition.which},
            )
            return
    for index in range(len(ev.spans) - 1):
        if ev.spans[index].state == ev.spans[index + 1].state:
            yield InvariantViolation(
                "fsm-transition-legality",
                f"adjacent spans {index} and {index + 1} share state "
                f"{ev.spans[index].state.value!r} (illegal self-edge)",
                {"index": index, "state": ev.spans[index].state.value},
            )
    # Re-derive the state sequence from the inputs (Figure 2 edges only:
    # the state is WAIT iff any input is active, and can change only at
    # an input transition).
    fsm = WaitThinkFSM()
    derived: List[UserState] = []
    state = fsm.state
    ordered = sorted(ev.transitions, key=lambda t: t.time_ns)
    index = 0
    while index < len(ordered):
        time_ns = ordered[index].time_ns
        if time_ns >= ev.end_ns:
            break
        # Apply every transition sharing this timestamp before sampling
        # the state: simultaneous flips that cancel out produce no edge.
        while index < len(ordered) and ordered[index].time_ns == time_ns:
            fsm.apply(ordered[index])
            index += 1
        new_state = fsm.state
        if time_ns <= ev.start_ns:
            state = new_state
        elif new_state != state:
            if not derived:
                derived.append(state)
            derived.append(new_state)
            state = new_state
    if not derived and ev.span_ns > 0:
        derived.append(state)
    observed = []
    for span in ev.spans:
        if not observed or observed[-1] != span.state:
            observed.append(span.state)
    if derived and observed != derived:
        yield InvariantViolation(
            "fsm-transition-legality",
            "classified span states disagree with the state sequence "
            "re-derived from the FSM inputs",
            {
                "observed": [s.value for s in observed],
                "derived": [s.value for s in derived],
            },
        )
    if ev.summary is not None:
        wait_total = sum(
            s.duration_ns for s in ev.spans if s.state == UserState.WAIT
        )
        think_total = sum(
            s.duration_ns for s in ev.spans if s.state == UserState.THINK
        )
        if wait_total != ev.summary.wait_ns or think_total != ev.summary.think_ns:
            yield InvariantViolation(
                "fsm-transition-legality",
                f"per-state span totals (wait {wait_total}, think "
                f"{think_total}) disagree with the summary (wait "
                f"{ev.summary.wait_ns}, think {ev.summary.think_ns})",
                {
                    "span_wait_ns": wait_total,
                    "span_think_ns": think_total,
                    "summary_wait_ns": ev.summary.wait_ns,
                    "summary_think_ns": ev.summary.think_ns,
                },
            )


@invariant("monotonic-timestamps", paper="S2.3", needs_full_history=True)
def _monotonic_timestamps(ev: RunEvidence) -> Iterator[InvariantViolation]:
    """Record, transition and event streams are time-ordered."""
    times = ev.record_times_ns
    for index in range(len(times) - 1):
        if times[index + 1] < times[index]:
            yield InvariantViolation(
                "monotonic-timestamps",
                f"idle-loop record {index + 1} at {times[index + 1]} ns "
                f"precedes record {index} at {times[index]} ns",
                {"index": index, "t0": times[index], "t1": times[index + 1]},
            )
            break
    for index in range(len(ev.transitions) - 1):
        if ev.transitions[index + 1].time_ns < ev.transitions[index].time_ns:
            yield InvariantViolation(
                "monotonic-timestamps",
                f"FSM transition stream out of order at index {index + 1}",
                {
                    "index": index,
                    "t0": ev.transitions[index].time_ns,
                    "t1": ev.transitions[index + 1].time_ns,
                },
            )
            break
    previous = None
    for index, event in enumerate(ev.events):
        if event.latency_ns < 0 or event.busy_ns < 0:
            yield InvariantViolation(
                "monotonic-timestamps",
                f"event {index} has negative duration "
                f"(latency {event.latency_ns} ns, busy {event.busy_ns} ns)",
                {
                    "index": index,
                    "latency_ns": event.latency_ns,
                    "busy_ns": event.busy_ns,
                },
            )
        if previous is not None and event.start_ns < previous:
            yield InvariantViolation(
                "monotonic-timestamps",
                f"event {index} starts before its predecessor",
                {"index": index, "start_ns": event.start_ns, "previous": previous},
            )
        previous = event.start_ns


@invariant("sample-sum-consistency", paper="S3/Fig.1", needs_full_history=True)
def _sample_sum_consistency(ev: RunEvidence) -> Iterator[InvariantViolation]:
    """Attributed event busy time reconciles with elongation totals.

    Every nanosecond of busy time the extractor attributes to an event
    came from an elongated idle-loop interval, and each interval is
    consumed at most once — so the attributed sum can never exceed the
    instrument's elongation total beyond the stated tolerance.
    Timestamps are sorted first: order violations are
    ``monotonic-timestamps``' finding, not a reconciliation failure.
    """
    times = sorted(ev.record_times_ns)
    measured_busy = 0
    for index in range(len(times) - 1):
        interval = times[index + 1] - times[index]
        busy = interval - ev.loop_ns
        if busy > 0:
            measured_busy += busy
    attributed_busy = sum(event.busy_ns for event in ev.events)
    allowance = measured_busy * SAMPLE_SUM_TOLERANCE + ev.loop_ns
    if attributed_busy > measured_busy + allowance:
        yield InvariantViolation(
            "sample-sum-consistency",
            f"events claim {attributed_busy} ns of busy time but the "
            f"idle-loop elongation total is {measured_busy} ns "
            f"(tolerance {SAMPLE_SUM_TOLERANCE:g} + one loop)",
            {
                "attributed_busy_ns": attributed_busy,
                "measured_busy_ns": measured_busy,
                "tolerance": SAMPLE_SUM_TOLERANCE,
            },
        )


@invariant("queue-conservation", paper="S2.4")
def _queue_conservation(ev: RunEvidence) -> Iterator[InvariantViolation]:
    """Messages are conserved: enqueued == dequeued + residual."""
    stats = ev.queue_stats
    if not stats:
        return
    posted = stats.get("posted", 0)
    retrieved = stats.get("retrieved", 0)
    residual = stats.get("residual", 0)
    dropped = stats.get("dropped", 0)
    for name, value in stats.items():
        if value < 0:
            yield InvariantViolation(
                "queue-conservation",
                f"negative queue counter {name} = {value}",
                {"counter": name, "value": value},
            )
    if posted != retrieved + residual:
        yield InvariantViolation(
            "queue-conservation",
            f"queue accounting broken: posted {posted} != retrieved "
            f"{retrieved} + residual {residual} (dropped {dropped} "
            f"tracked separately)",
            {
                "posted": posted,
                "retrieved": retrieved,
                "residual": residual,
                "dropped": dropped,
            },
        )


@invariant("counter-sanity", paper="S2.2")
def _counter_sanity(ev: RunEvidence) -> Iterator[InvariantViolation]:
    """Counter deltas are non-negative; attributed <= measured latency."""
    for name, delta in sorted(ev.counter_deltas.items()):
        if delta < 0:
            yield InvariantViolation(
                "counter-sanity",
                f"hardware counter {name!r} delta is negative ({delta})",
                {"counter": name, "delta": delta},
            )
    attributed_latency = sum(event.latency_ns for event in ev.events)
    if ev.span_ns >= 0 and attributed_latency > ev.span_ns:
        yield InvariantViolation(
            "counter-sanity",
            f"events claim {attributed_latency} ns of latency inside a "
            f"{ev.span_ns} ns session (attributed > measured)",
            {"attributed_ns": attributed_latency, "session_ns": ev.span_ns},
        )


# ----------------------------------------------------------------------
# Payload invariants: archived experiment results
# ----------------------------------------------------------------------
#: Data keys (by suffix) whose numeric values must be non-negative in
#: archived payloads — durations and latencies only; keys mentioning
#: deltas/differences are exempt (they may legitimately go negative).
_NONNEGATIVE_SUFFIXES = ("_ms", "_ns")
_EXEMPT_FRAGMENTS = ("delta", "diff", "skew", "error", "slope")


def _walk_nonnegative(value, path: str) -> Iterator[InvariantViolation]:
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _walk_nonnegative(item, f"{path}.{key}" if path else str(key))
        return
    if isinstance(value, (list, tuple)):
        leaf = path.rsplit(".", 1)[-1]
        if leaf.endswith(_NONNEGATIVE_SUFFIXES) and not any(
            frag in leaf for frag in _EXEMPT_FRAGMENTS
        ):
            for index, item in enumerate(value):
                if isinstance(item, (int, float)) and item < 0:
                    yield InvariantViolation(
                        "payload-nonnegative-durations",
                        f"negative duration at {path}[{index}]: {item}",
                        {"path": f"{path}[{index}]", "value": item},
                    )
        else:
            for index, item in enumerate(value):
                yield from _walk_nonnegative(item, f"{path}[{index}]")
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return
    leaf = path.rsplit(".", 1)[-1].split("[", 1)[0]
    if leaf.endswith(_NONNEGATIVE_SUFFIXES) and not any(
        frag in leaf for frag in _EXEMPT_FRAGMENTS
    ):
        if value < 0:
            yield InvariantViolation(
                "payload-nonnegative-durations",
                f"negative duration at {path}: {value}",
                {"path": path, "value": value},
            )


def check_payload(payload: dict) -> List[InvariantReport]:
    """Invariants over one archived experiment payload.

    These run on every job in every sweep (they are cheap): the payload
    must be a well-formed experiment-result record, its shape checks
    must be well-formed booleans, and every duration/latency field in
    its data must be non-negative.
    """
    reports: List[InvariantReport] = []

    violations: List[InvariantViolation] = []
    if payload.get("kind") != "experiment-result":
        violations.append(
            InvariantViolation(
                "payload-well-formed",
                f"not an experiment-result payload: {payload.get('kind')!r}",
                {"kind": payload.get("kind")},
            )
        )
    else:
        for key in ("id", "checks", "data"):
            if key not in payload:
                violations.append(
                    InvariantViolation(
                        "payload-well-formed",
                        f"payload missing key {key!r}",
                        {"missing": key},
                    )
                )
        for index, check in enumerate(payload.get("checks", ())):
            if (
                not isinstance(check, dict)
                or not isinstance(check.get("name"), str)
                or not isinstance(check.get("passed"), bool)
            ):
                violations.append(
                    InvariantViolation(
                        "payload-well-formed",
                        f"malformed shape-check record at index {index}",
                        {"index": index},
                    )
                )
    reports.append(
        InvariantReport(
            name="payload-well-formed",
            status="failed" if violations else "passed",
            violations=violations,
            detail=violations[0].message if violations else "",
            paper="S5",
        )
    )

    violations = list(_walk_nonnegative(payload.get("data", {}), "data"))
    reports.append(
        InvariantReport(
            name="payload-nonnegative-durations",
            status="failed" if violations else "passed",
            violations=violations,
            detail=violations[0].message if violations else "",
            paper="S2",
        )
    )
    return reports
