"""Ablation — the idle-loop calibration parameter N (Section 2.3).

"The larger we make N, the coarser the accuracy of our measurements;
the smaller we make N, the finer the resolution of our measurements but
the larger the trace buffer required for a given benchmark run."

We sweep the loop time over a fixed Notepad snippet and report, per
setting: trace records consumed (buffer cost), the smallest event the
extraction can detect, and the measured latency of a reference
keystroke class (accuracy).
"""

from __future__ import annotations

import random

import numpy as np

from ..apps.notepad import NotepadApp
from ..core import instrumented
from ..core.report import TextTable
from ..sim.timebase import ns_from_ms
from ..workload.mstest import MsTestDriver
from ..workload.script import InputScript, Key
from .common import ExperimentResult

ID = "ablation-idle-n"
TITLE = "Ablation: idle-loop calibration (resolution vs trace size)"

LOOP_SETTINGS_MS = (0.25, 1.0, 4.0)


def run(seed: int = 0, chars: int = 120) -> ExperimentResult:
    result = ExperimentResult(id=ID, title=TITLE)
    rng = random.Random(seed + 9)
    # Mix ordinary keystrokes (~5 ms events) with arrow keys (~1.5 ms
    # caret moves): only a fine enough loop resolves the short class.
    keys = [rng.choice("abcdefgh ") for _ in range(chars)]
    for index in range(0, chars, 4):
        keys[index] = rng.choice(("Left", "Right", "Up", "Down"))
    table = TextTable(
        [
            "loop ms",
            "N iterations",
            "trace records",
            "records/s",
            "events found",
            "mean keystroke ms",
        ],
        title="idle-loop N sweep over one Notepad snippet",
    )
    stats = {}
    for loop_ms in LOOP_SETTINGS_MS:
        rig = instrumented("nt40", NotepadApp, seed=seed, loop_ms=loop_ms)
        rig.system.run_for(ns_from_ms(200))
        driver = MsTestDriver(
            rig.system,
            InputScript([Key(key, pause_ms=120.0) for key in keys]),
            queuesync=False,
            default_pause_ms=120.0,
        )
        end = driver.run_to_completion(max_seconds=600)
        trace = rig.instrument.trace()
        extraction = rig.extract(trace)
        latencies = extraction.profile.latencies_ms
        span_s = trace.total_span_ns() / 1e9
        stats[loop_ms] = {
            "n_iterations": rig.instrument.n_iterations,
            "records": len(trace),
            "records_per_s": len(trace) / span_s if span_s else 0.0,
            "events": len(extraction.profile),
            "mean_ms": float(latencies.mean()) if len(latencies) else 0.0,
        }
        table.add_row(
            loop_ms,
            rig.instrument.n_iterations,
            len(trace),
            stats[loop_ms]["records_per_s"],
            len(extraction.profile),
            stats[loop_ms]["mean_ms"],
        )
    result.tables.append(table)
    result.data = stats

    fine, base, coarse = (stats[ms] for ms in LOOP_SETTINGS_MS)
    result.check(
        "smaller N costs proportionally more trace buffer",
        fine["records_per_s"] > 2.5 * base["records_per_s"]
        and base["records_per_s"] > 2.5 * coarse["records_per_s"],
        f"records/s: {fine['records_per_s']:.0f} / {base['records_per_s']:.0f} / "
        f"{coarse['records_per_s']:.0f}",
    )
    result.check(
        "coarse loop misses short events",
        coarse["events"] < base["events"],
        f"{coarse['events']} vs {base['events']} events",
    )
    result.check(
        "fine and standard loops agree on mean keystroke latency (10%)",
        base["mean_ms"] > 0
        and abs(fine["mean_ms"] - base["mean_ms"]) <= 0.10 * base["mean_ms"],
        f"{fine['mean_ms']:.2f} vs {base['mean_ms']:.2f} ms",
    )
    return result
