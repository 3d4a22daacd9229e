"""Extension — latency of network-packet events (Section 1.1's second
event class).

"The performance of many modern applications depends on the speed at
which the system can respond to an asynchronous stream of independent
and diverse events that result from interactive user input or network
packet arrival."

The paper never measures the network class; this extension does, with
the same methodology: a packet source delivers a Poisson burst to a
terminal application on each OS, the idle loop measures per-packet
handling latency, and the message-API monitor confirms the events are
WM_SOCKET retrievals.  The per-OS ordering follows the GUI path factors
(rendering the received line), exactly as for keystrokes.
"""

from __future__ import annotations

import numpy as np

from ..apps.terminal import TerminalApp
from ..core import instrumented
from ..core.report import TextTable
from ..sim.timebase import ns_from_ms
from ..workload.network import PacketSource
from .common import ALL_OS, ExperimentResult

ID = "ext-network"
TITLE = "Extension: latency of network-packet events"


def _measure(os_name: str, seed: int, packets: int):
    rig = instrumented(os_name, TerminalApp, seed=seed)
    rig.system.run_for(ns_from_ms(200))
    source = PacketSource(rig.system, mean_interarrival_ms=150.0)
    source.send_burst(packets)
    source.run_to_completion()
    socket_events = rig.extract().profile.filter(
        lambda e: any("WM_SOCKET" in kind for kind in e.message_kinds)
    )
    return rig.app, socket_events


def run(seed: int = 0, packets: int = 60) -> ExperimentResult:
    result = ExperimentResult(id=ID, title=TITLE)
    table = TextTable(
        ["system", "packets", "events", "median ms", "p95 ms", "scroll max ms"],
        title=f"per-packet handling latency ({packets}-packet Poisson burst)",
    )
    stats = {}
    for os_name in ALL_OS:
        app, events = _measure(os_name, seed, packets)
        latencies = events.latencies_ms
        stats[os_name] = {
            "received": app.lines_received,
            "events": len(events),
            "median_ms": float(np.median(latencies)) if len(latencies) else 0.0,
            "p95_ms": float(np.percentile(latencies, 95)) if len(latencies) else 0.0,
            "max_ms": float(latencies.max()) if len(latencies) else 0.0,
            "scrolls": app.scrolls,
        }
        table.add_row(
            os_name,
            app.lines_received,
            len(events),
            stats[os_name]["median_ms"],
            stats[os_name]["p95_ms"],
            stats[os_name]["max_ms"],
        )
    result.tables.append(table)
    result.data = stats

    result.check(
        "packets delivered and (nearly) all measured as distinct events",
        all(
            s["received"] == packets and s["events"] >= packets * 0.9
            for s in stats.values()
        ),
        ", ".join(
            f"{k}: {v['events']}/{packets} (back-to-back arrivals merge)"
            for k, v in stats.items()
        ),
    )
    result.check(
        "packet handling is keystroke-scale (sub-20 ms typical)",
        all(s["median_ms"] < 20.0 for s in stats.values()),
        ", ".join(f"{k}: {v['median_ms']:.1f} ms" for k, v in stats.items()),
    )
    # Rendering the received line is GDI-dominated, so the per-OS
    # ordering matches the Notepad keystroke result (Figure 7), not the
    # USER-path one: Win95's crossing-free GDI fast path wins, NT 3.51's
    # Win32-server flushes lose.
    result.check(
        "per-OS ordering matches the GDI-dominated Notepad result",
        stats["win95"]["median_ms"]
        < stats["nt40"]["median_ms"]
        < stats["nt351"]["median_ms"],
        ", ".join(f"{k}: {v['median_ms']:.1f} ms" for k, v in stats.items()),
    )
    result.check(
        "scroll refreshes form the long-event class",
        all(
            s["scrolls"] >= 1 and s["max_ms"] > 3 * s["median_ms"]
            for s in stats.values()
        ),
        ", ".join(f"{k}: max {v['max_ms']:.1f} ms" for k, v in stats.items()),
    )
    return result
