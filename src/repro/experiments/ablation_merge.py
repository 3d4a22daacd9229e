"""Ablation — event segmentation with and without message-API evidence.

Section 2.6: "a single user event can correspond to multiple intervals
of CPU busy time.  Such events complicate the task of precisely
identifying event boundaries.  Monitoring the Message API is one of
the techniques that helps us pinpoint the beginning and ending of
interactive events."

We segment the window-maximize trace three ways: no merging, naive
time-gap merging at several gap sizes, and message-API (timer-aware)
merging — showing that only the API evidence recovers the single user
event without a fragile gap constant.
"""

from __future__ import annotations

from ..apps.shell import ShellApp
from ..core import instrumented
from ..core.report import TextTable
from ..sim.timebase import ns_from_ms
from .common import ExperimentResult

ID = "ablation-merge"
TITLE = "Ablation: event segmentation policies on the maximize animation"

GAP_SETTINGS_MS = (0.0, 2.0, 12.0)


def run(seed: int = 0) -> ExperimentResult:
    result = ExperimentResult(id=ID, title=TITLE)
    rig = instrumented("nt40", ShellApp, seed=seed)
    system = rig.system
    system.run_for(ns_from_ms(100))
    system.post_command("maximize")
    system.run_for(ns_from_ms(900))
    # A second, unrelated keystroke ~300 ms later shows over-merging.
    system.machine.keyboard.keystroke("F5")
    system.run_for(ns_from_ms(300))
    trace = rig.instrument.trace()

    table = TextTable(
        ["policy", "user events", "background pieces", "largest event ms"],
        title="segmentation policies",
    )
    stats = {}

    def record(name: str, **options) -> None:
        extraction = rig.extract(trace, **options)
        largest = max(
            (e.latency_ms for e in extraction.profile), default=0.0
        )
        stats[name] = {
            "events": len(extraction.profile),
            "background": len(extraction.background),
            "largest_ms": largest,
        }
        table.add_row(name, len(extraction.profile), len(extraction.background), largest)

    for gap_ms in GAP_SETTINGS_MS:
        record(f"time gap {gap_ms:g} ms", merge_gap_ns=ns_from_ms(gap_ms))
    record("message-API (timer-aware)", merge_timer_periods=True)
    result.tables.append(table)
    result.data = stats

    api = stats["message-API (timer-aware)"]
    nogap = stats["time gap 0 ms"]
    biggap = stats["time gap 12 ms"]
    result.check(
        "without evidence the event fragments",
        nogap["events"] + nogap["background"] >= 10,
        f"{nogap['events']}+{nogap['background']} pieces",
    )
    result.check(
        "API evidence recovers the two true user events",
        api["events"] == 2 and api["background"] == 0,
        f"{api['events']} events, {api['background']} background pieces",
    )
    result.check(
        "API-merged maximize event is the full 400-700 ms",
        400.0 <= api["largest_ms"] <= 700.0,
        f"{api['largest_ms']:.0f} ms",
    )
    result.check(
        "a big time gap still under-merges or needs fragile tuning",
        biggap["events"] + biggap["background"] != 2
        or biggap["largest_ms"] < api["largest_ms"],
        f"12 ms gap yields {biggap['events']}+{biggap['background']} pieces, "
        f"largest {biggap['largest_ms']:.0f} ms",
    )
    return result
