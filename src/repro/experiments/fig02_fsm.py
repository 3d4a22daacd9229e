"""Figure 2 — the wait/think state-transition framework.

Demonstrates the FSM on a workload where all three inputs matter: a
PowerPoint document open on NT 4.0.  CPU-busy spans come from the
idle-loop trace, queue spans from the queue probe, and synchronous-I/O
spans from the I/O probe — the "additional system support" of Section
6.  The key property: time the user spends waiting on *disk* counts as
wait even though the CPU is idle, which no CPU-only classification can
get right.
"""

from __future__ import annotations

from ..apps.slides import SlidesApp
from ..core import (
    EventExtractor,
    StateInput,
    classify_timeline,
    instrumented,
    spans_to_transitions,
)
from ..core.report import TextTable
from ..sim.timebase import ns_from_ms, sec_from_ns
from .common import ExperimentResult, post_command

ID = "fig2"
TITLE = "Wait/think FSM over CPU, queue and sync-I/O state"


def run(seed: int = 0, os_name: str = "nt40") -> ExperimentResult:
    result = ExperimentResult(id=ID, title=TITLE)
    rig = instrumented(os_name, SlidesApp, seed=seed, probes=True)
    system = rig.system
    system.run_for(ns_from_ms(200))

    start_ns = system.now
    post_command(system, "launch")
    system.run_for(ns_from_ms(1000))  # think time
    post_command(system, "open")
    system.run_for(ns_from_ms(1500))  # think time
    end_ns = system.now

    trace = rig.instrument.trace().slice(start_ns, end_ns)
    cpu_spans = [
        (period.start_ns, period.end_ns)
        for period in EventExtractor().busy_periods(trace)
    ]
    io_spans = rig.io_probe.busy_spans(until_ns=end_ns)
    queue_spans = rig.queue_probe.nonempty_spans(until_ns=end_ns)
    transitions = (
        spans_to_transitions(cpu_spans, StateInput.CPU)
        + spans_to_transitions(io_spans, StateInput.SYNC_IO)
        + spans_to_transitions(queue_spans, StateInput.QUEUE)
    )
    spans, summary = classify_timeline(transitions, start_ns, end_ns)

    io_only_wait_ns = 0
    for io_start, io_end in io_spans:
        overlap = io_end - io_start
        for cpu_start, cpu_end in cpu_spans:
            if cpu_end <= io_start or cpu_start >= io_end:
                continue
            overlap -= min(cpu_end, io_end) - max(cpu_start, io_start)
        io_only_wait_ns += max(0, overlap)

    table = TextTable(
        ["quantity", "value"],
        title=f"Figure 2 FSM classification ({os_name}, launch+open)",
    )
    table.add_row("window (s)", sec_from_ns(end_ns - start_ns))
    table.add_row("wait (s)", sec_from_ns(summary.wait_ns))
    table.add_row("think (s)", sec_from_ns(summary.think_ns))
    table.add_row("wait fraction", summary.wait_fraction)
    table.add_row("unnoticeable wait (s)", sec_from_ns(summary.unnoticeable_wait_ns))
    table.add_row("wait spans", summary.wait_spans)
    table.add_row("CPU-idle wait from sync I/O (s)", sec_from_ns(io_only_wait_ns))
    result.tables.append(table)
    result.data = {
        "wait_ns": summary.wait_ns,
        "think_ns": summary.think_ns,
        "wait_fraction": summary.wait_fraction,
        "unnoticeable_wait_ns": summary.unnoticeable_wait_ns,
        "io_only_wait_ns": io_only_wait_ns,
        "spans": len(spans),
    }

    result.check(
        "both wait and think time observed",
        summary.wait_ns > 0 and summary.think_ns > 0,
        f"wait {sec_from_ns(summary.wait_ns):.2f}s think {sec_from_ns(summary.think_ns):.2f}s",
    )
    result.check(
        "sync I/O creates wait time while the CPU idles",
        io_only_wait_ns > ns_from_ms(100),
        f"{sec_from_ns(io_only_wait_ns):.2f}s of CPU-idle disk wait",
    )
    result.check(
        "think time dominates the scripted pauses",
        summary.think_ns >= ns_from_ms(1500),
        f"{sec_from_ns(summary.think_ns):.2f}s thinking over 2.5s of pauses",
    )
    result.check(
        "timeline is fully classified",
        abs(summary.total_ns - (end_ns - start_ns)) <= ns_from_ms(1),
        "wait+think covers the window",
    )
    return result
