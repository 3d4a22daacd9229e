#!/usr/bin/env python
"""Measure network-packet events and archive the profile.

The paper's event class includes "network packet arrival" (Section
1.1); this example measures it end to end: a Poisson packet burst
arrives at a terminal application, the idle loop measures per-packet
handling latency, and the resulting profile and the raw idle-loop trace
are archived as JSON so they can be re-analysed offline:

    python examples/network_events.py
    repro-analyze /tmp/packet-profile.json --thresholds 10,25 --timeline
    repro-analyze /tmp/packet-trace.json --windows 10

Run:  python examples/network_events.py
"""

from repro.apps import TerminalApp
from repro.core import (
    EventExtractor,
    IdleLoopInstrument,
    MessageApiMonitor,
    latency_histogram,
    log_histogram,
)
from repro.core.serialize import profile_to_dict, save_json, trace_to_dict
from repro.sim.timebase import ns_from_ms
from repro.winsys import boot
from repro.workload import PacketSource

ARCHIVE = "/tmp/packet-profile.json"
TRACE_ARCHIVE = "/tmp/packet-trace.json"


def main() -> None:
    system = boot("nt40")
    app = TerminalApp(system)
    app.start(foreground=True)
    instrument = IdleLoopInstrument(system)
    instrument.install()
    monitor = MessageApiMonitor(system, thread_name=app.name)
    monitor.attach()
    system.run_for(ns_from_ms(200))

    source = PacketSource(system, mean_interarrival_ms=120.0, size_bytes=320)
    source.send_burst(80)
    source.run_to_completion()

    trace = instrument.trace()
    extraction = EventExtractor(
        monitor=monitor, merge_gap_ns=ns_from_ms(2)
    ).extract(trace)
    packets = extraction.profile.filter(
        lambda e: any("WM_SOCKET" in kind for kind in e.message_kinds)
    )
    packets.name = "nt40-packet-events"

    print(f"{app.lines_received} packets received, {len(packets)} events measured")
    print(f"median handling {float(sorted(packets.latencies_ms)[len(packets)//2]):.2f} ms, "
          f"max {packets.max_ms():.2f} ms (scroll refreshes)")
    print()
    print(log_histogram(latency_histogram(packets, bin_ms=2.0)))
    path = save_json(profile_to_dict(packets), ARCHIVE)
    trace_path = save_json(trace_to_dict(trace), TRACE_ARCHIVE)
    print()
    print(f"profile archived to {path}, idle-loop trace to {trace_path} — re-analyse with:")
    print(f"  repro-analyze {path} --timeline --refresh")
    print(f"  repro-analyze {trace_path} --windows 10")


if __name__ == "__main__":
    main()
