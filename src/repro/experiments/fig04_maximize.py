"""Figure 4 — CPU usage profile of a window-maximize animation (NT 4.0).

A click-driven maximize at t=100 ms produces ~80 ms of continuous input
processing, a stair of animation steps aligned on 10 ms clock
boundaries and growing as the outline gets bigger, then a long
continuous redraw.  Rendered at the trace's full 1 ms resolution
(Figure 4a) and averaged over 10 ms windows (Figure 4b).  The same data
demonstrates the event-segmentation problem of Section 2.6: one user
event, many busy intervals — resolved by merging timer-only periods
using the message-API log.
"""

from __future__ import annotations

from ..apps.shell import ShellApp
from ..core import EventExtractor, instrumented
from ..core.report import TextTable
from ..core.visualize import utilization_profile
from ..sim.timebase import ns_from_ms
from .common import ExperimentResult

ID = "fig4"
TITLE = "Window-maximize CPU profile and animation segmentation"


def run(seed: int = 0, os_name: str = "nt40") -> ExperimentResult:
    result = ExperimentResult(id=ID, title=TITLE)
    rig = instrumented(os_name, ShellApp, seed=seed)
    system, app = rig.system, rig.app
    # The paper's trace starts at time zero with the event at ~100 ms.
    system.run_for(ns_from_ms(100))
    start_ns = system.now
    system.post_command("maximize")
    system.run_for(ns_from_ms(900))
    trace = rig.instrument.trace()

    times_1ms, util_1ms = trace.per_sample_utilization()
    window_starts, util_10ms = trace.utilization_windows(ns_from_ms(10))
    result.figures.append(
        "Figure 4a (1 ms resolution):\n"
        + utilization_profile(times_1ms, util_1ms, width=100, height=10)
    )
    result.figures.append(
        "Figure 4b (10 ms averaging):\n"
        + utilization_profile(
            window_starts + ns_from_ms(5), util_10ms, width=100, height=10
        )
    )

    # Segmentation with and without timer-aware merging.
    merged = rig.extract(trace, merge_timer_periods=True)
    unmerged = rig.extract(trace)
    periods = EventExtractor().busy_periods(trace)
    anim_periods = [
        p
        for p in periods
        if start_ns + ns_from_ms(60) < p.start_ns < start_ns + ns_from_ms(320)
    ]
    step_offsets_ms = [
        ((p.start_ns - start_ns) / 1e6) % 10.0 for p in anim_periods
    ]
    step_busy_ms = [p.busy_ns / 1e6 for p in anim_periods]
    increasing_pairs = sum(
        1
        for a, b in zip(step_busy_ms, step_busy_ms[1:])
        if b >= a * 0.98
    )

    event = max(merged.profile.events, key=lambda e: e.latency_ns, default=None)
    table = TextTable(["quantity", "value"], title=f"Figure 4 on {os_name}")
    table.add_row("animation bursts", len(anim_periods))
    table.add_row("merged event latency (ms)", event.latency_ms if event else 0.0)
    table.add_row("merged event busy (ms)", (event.busy_ns / 1e6) if event else 0.0)
    table.add_row(
        "pieces without timer merging",
        len(unmerged.profile) + len(unmerged.background),
    )
    result.tables.append(table)
    result.data = {
        "animation_bursts": len(anim_periods),
        "step_busy_ms": step_busy_ms,
        "step_offsets_ms": step_offsets_ms,
        "merged_latency_ms": event.latency_ms if event else 0.0,
        "unmerged_pieces": len(unmerged.profile) + len(unmerged.background),
        "maximizes": app.maximizes_completed,
    }

    result.check(
        "maximize completed once",
        app.maximizes_completed == 1,
        f"{app.maximizes_completed}",
    )
    result.check(
        "animation produced a stair of bursts",
        12 <= len(anim_periods) <= 30,
        f"{len(anim_periods)} bursts",
    )
    aligned = sum(1 for off in step_offsets_ms if off <= 2.0 or off >= 8.0)
    result.check(
        "bursts aligned on 10 ms clock boundaries",
        aligned >= 0.8 * len(step_offsets_ms),
        f"{aligned}/{len(step_offsets_ms)} within 2 ms of a tick",
    )
    result.check(
        "step cost grows as the outline grows",
        increasing_pairs >= 0.8 * max(len(step_busy_ms) - 1, 1),
        f"{increasing_pairs}/{len(step_busy_ms) - 1} non-decreasing steps",
    )
    result.check(
        "timer merging yields one user event of 400-700 ms",
        event is not None
        and len(merged.profile) == 1
        and 400.0 <= event.latency_ms <= 700.0,
        f"{event.latency_ms:.0f} ms" if event else "no event",
    )
    result.check(
        "without merging the event fragments",
        len(unmerged.profile) + len(unmerged.background) >= 10,
        f"{len(unmerged.profile) + len(unmerged.background)} pieces",
    )
    return result
