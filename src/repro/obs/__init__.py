"""Self-observability: applying the paper's methodology to ourselves.

The paper's thesis is that an interactive system is understood by
*observing* it event-by-event, not through scalar summaries — and the
reproduction harness deserves the same treatment.  This package is the
unified observability layer for both sides of the house:

* **Span tracing** (:mod:`~repro.obs.tracer`) — begin/end spans and
  instant events on a dual clock (simulated nanoseconds + host wall
  time), recorded into a bounded buffer and exported as Chrome
  trace-event JSON (:mod:`~repro.obs.perfetto`) loadable in Perfetto or
  ``chrome://tracing``.  Simulated OS personalities appear as
  processes; simulated threads appear as tracks.
* **Metrics** (:mod:`~repro.obs.metrics`) — labeled counters, gauges
  and histograms covering the simulator (context switches, interrupts,
  messages, queue depth, faults) and the harness (cache hits, worker
  utilization, retries, checkpoint writes, invariant outcomes),
  snapshotted into run manifests and exportable as JSON or Prometheus
  text format.
* **Structured logging** (:mod:`~repro.obs.logging`) — a leveled
  logger replacing the runner's ad-hoc stderr prints.

Observability is *always compiled in but pay-for-use*: every
instrumentation hook sits behind either an ``is None`` guard or a no-op
null sink, and nothing activates outside an
:func:`~repro.obs.runtime.observed` scope (opened per job by the
runner's ``--trace-out`` / ``--metrics-out`` / stage flags, per session
by the fleet, or directly in tests).  Scopes nest and restore the
enclosing session on exit, so an owner that opens its own scope — every
fleet session does — never feeds the caller's trace, metrics or stage
roll-up.  The disabled path is benchmarked (<5% overhead) by
``benchmarks/test_obs_overhead.py``.

Tracing and metrics never perturb simulation semantics: they read the
simulated clock but schedule no events and draw no random numbers, so
payloads and golden digests are byte-identical with observability on
or off (``tests/test_obs_determinism.py`` pins this).
"""

from .attribution import (
    StageAttribution,
    dominant_stage_of,
    merge_stage_snapshots,
)
from .envelope import STAGES, EnvelopeConfig, EnvelopeRecorder, StageEnvelope
from .logging import LEVELS, StructuredLogger, get_logger, set_level
from .metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    merge_snapshots,
    prometheus_text,
)
from .perfetto import chrome_trace, merge_chrome_traces, validate_chrome_trace
from .runtime import ObsSession, observed
from .tracer import NULL_TRACER, NullTracer, TraceEvent, Tracer

__all__ = [
    "LEVELS",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullTracer",
    "EnvelopeConfig",
    "EnvelopeRecorder",
    "ObsSession",
    "STAGES",
    "StageAttribution",
    "StageEnvelope",
    "StructuredLogger",
    "TraceEvent",
    "Tracer",
    "dominant_stage_of",
    "chrome_trace",
    "get_logger",
    "merge_chrome_traces",
    "merge_snapshots",
    "merge_stage_snapshots",
    "observed",
    "prometheus_text",
    "set_level",
    "validate_chrome_trace",
]
