#!/usr/bin/env python
"""Classify user time into *wait* and *think* with the Figure 2 FSM.

Drives a PowerPoint session (application launch, document open, a few
page-downs) and feeds three measurement sources into the FSM:

* CPU busy spans from the idle-loop trace,
* message-queue occupancy from the queue probe,
* outstanding synchronous I/O from the I/O probe.

The output shows the paper's key classification point: during document
loads the CPU is mostly *idle* while the user is squarely *waiting* on
the disk — invisible to any CPU-only metric.

Run:  python examples/wait_think_analysis.py
"""

from repro.apps import SlidesApp
from repro.core import (
    EventExtractor,
    StateInput,
    classify_timeline,
    instrumented,
    spans_to_transitions,
)
from repro.core.report import TextTable
from repro.sim.timebase import ns_from_ms, sec_from_ns


def main() -> None:
    rig = instrumented("nt40", SlidesApp, probes=True)
    system = rig.system
    system.run_for(ns_from_ms(200))

    start_ns = system.now
    system.post_command("launch")
    system.run_until_quiescent(max_ns=system.now + 60 * 10**9)
    system.run_for(ns_from_ms(1500))  # user thinks
    system.post_command("open")
    system.run_until_quiescent(max_ns=system.now + 60 * 10**9)
    system.run_for(ns_from_ms(1000))  # user thinks
    for _ in range(3):
        system.machine.keyboard.keystroke("PageDown")
        system.run_for(ns_from_ms(1200))
    end_ns = system.now

    trace = rig.instrument.trace().slice(start_ns, end_ns)
    cpu_spans = [
        (p.start_ns, p.end_ns) for p in EventExtractor().busy_periods(trace)
    ]
    transitions = (
        spans_to_transitions(cpu_spans, StateInput.CPU)
        + spans_to_transitions(rig.io_probe.busy_spans(end_ns), StateInput.SYNC_IO)
        + spans_to_transitions(
            rig.queue_probe.nonempty_spans(end_ns), StateInput.QUEUE
        )
    )
    spans, summary = classify_timeline(transitions, start_ns, end_ns)

    table = TextTable(["quantity", "value"], title="wait/think classification")
    table.add_row("window (s)", sec_from_ns(end_ns - start_ns))
    table.add_row("wait (s)", sec_from_ns(summary.wait_ns))
    table.add_row("think (s)", sec_from_ns(summary.think_ns))
    table.add_row("wait fraction (%)", summary.wait_fraction * 100)
    table.add_row("unnoticeable waits (s)", sec_from_ns(summary.unnoticeable_wait_ns))
    table.add_row("wait episodes", summary.wait_spans)
    print(table.render())
    print()
    print("longest wait episodes:")
    longest = sorted(
        (span for span in spans if span.state.value == "wait"),
        key=lambda span: -span.duration_ns,
    )[:5]
    for span in longest:
        print(
            f"  {sec_from_ns(span.start_ns - start_ns):7.2f}s -> "
            f"{sec_from_ns(span.duration_ns):6.2f}s of waiting"
        )


if __name__ == "__main__":
    main()
