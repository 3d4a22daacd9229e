"""The paper's contribution: latency measurement for interactive systems.

Public surface:

* :class:`IdleLoopInstrument` — the replacement idle loop (Section 2.3);
* :class:`MessageApiMonitor` — GetMessage/PeekMessage interposition
  (Section 2.4);
* :class:`EventExtractor` — busy periods → user events, with
  WM_QUEUESYNC removal and I/O-aware merging;
* :class:`WaitThinkFSM` / :func:`classify_timeline` — Figure 2;
* :class:`CounterSampler` — Pentium-counter attribution (Section 5.3);
* analysis (:mod:`~repro.core.analysis`), interarrival tables,
  perception metrics, terminal visualization;
* :class:`MeasurementSession` / :func:`run_comparison` — one-call
  orchestration of complete benchmark runs.
"""

from .analysis import (
    HistogramData,
    by_event_class,
    class_summary_table,
    cumulative_latency_curve,
    cumulative_vs_events,
    distribution_distance,
    latency_histogram,
    variance_summary,
)
from .compare import OSComparison, run_comparison
from .counters import CounterProfile, CounterSampler
from .decompose import (
    DecompositionSummary,
    EventDecomposition,
    decompose_events,
)
from .extract import BusyPeriod, Episode, EventExtractor, ExtractionResult
from .fsm import (
    PERCEPTION_THRESHOLD_NS,
    Span,
    StateInput,
    Transition,
    UserState,
    WaitThinkFSM,
    WaitThinkSummary,
    classify_timeline,
    spans_to_transitions,
)
from .idleloop import IdleLoopInstrument
from .interarrival import InterarrivalRow, interarrival_table
from .isrcost import InterruptCostProbe, InterruptCostReport
from .latency import LatencyEvent, LatencyProfile
from .metrics import (
    IMPERCEPTIBLE_MS,
    IRRITATION_MS,
    ProposedResponsivenessMetric,
    ThresholdBands,
    threshold_bands,
)
from .msgmon import MessageApiMonitor
from .probes import QueueProbe, SyncIoProbe, coverage_fraction, spans_overlap_ns
from .refresh import (
    DEFAULT_REFRESH_NS,
    RefreshAdjustment,
    refresh_adjusted,
    refresh_penalty,
)
from .report import TextTable, format_quantity
from .samples import SampleTrace
from .runcache import RunCache, code_version, default_cache_dir
from .serialize import (
    cache_entry_from_dict,
    cache_entry_to_dict,
    experiment_to_dict,
    load_json,
    manifest_from_dict,
    manifest_to_dict,
    profile_from_dict,
    profile_to_dict,
    save_json,
    trace_from_dict,
    trace_to_dict,
)
from .session import MeasurementSession, SessionResult, label_events
from .visualize import (
    bar_chart,
    cumulative_latency_plot,
    curve_plot,
    event_time_series,
    grouped_bar_chart,
    log_histogram,
    utilization_profile,
)

__all__ = [
    "BusyPeriod",
    "CounterProfile",
    "CounterSampler",
    "Episode",
    "EventExtractor",
    "ExtractionResult",
    "DEFAULT_REFRESH_NS",
    "DecompositionSummary",
    "EventDecomposition",
    "HistogramData",
    "IMPERCEPTIBLE_MS",
    "IRRITATION_MS",
    "IdleLoopInstrument",
    "InterarrivalRow",
    "InterruptCostProbe",
    "InterruptCostReport",
    "LatencyEvent",
    "LatencyProfile",
    "MeasurementSession",
    "MessageApiMonitor",
    "OSComparison",
    "PERCEPTION_THRESHOLD_NS",
    "ProposedResponsivenessMetric",
    "QueueProbe",
    "RefreshAdjustment",
    "SampleTrace",
    "SessionResult",
    "Span",
    "StateInput",
    "SyncIoProbe",
    "TextTable",
    "ThresholdBands",
    "Transition",
    "UserState",
    "WaitThinkFSM",
    "WaitThinkSummary",
    "bar_chart",
    "by_event_class",
    "class_summary_table",
    "classify_timeline",
    "distribution_distance",
    "coverage_fraction",
    "cumulative_latency_curve",
    "cumulative_latency_plot",
    "cumulative_vs_events",
    "curve_plot",
    "decompose_events",
    "event_time_series",
    "experiment_to_dict",
    "format_quantity",
    "grouped_bar_chart",
    "RunCache",
    "cache_entry_from_dict",
    "cache_entry_to_dict",
    "code_version",
    "default_cache_dir",
    "load_json",
    "manifest_from_dict",
    "manifest_to_dict",
    "profile_from_dict",
    "profile_to_dict",
    "save_json",
    "trace_from_dict",
    "trace_to_dict",
    "interarrival_table",
    "label_events",
    "latency_histogram",
    "log_histogram",
    "refresh_adjusted",
    "refresh_penalty",
    "run_comparison",
    "spans_overlap_ns",
    "spans_to_transitions",
    "threshold_bands",
    "utilization_profile",
    "variance_summary",
]
