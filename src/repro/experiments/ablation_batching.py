"""Ablation — GDI batching vs input rate (Section 1.1).

"When a benchmark uses an uninterrupted stream of requests, the system
batches requests more aggressively to improve throughput.  Measurement
results obtained while the system is operating in this mode are
meaningless."

We drive the same Notepad text twice: with realistic 120 ms pauses and
with zero pauses (the infinitely fast user of throughput benchmarks),
and compare batching aggressiveness, throughput, and what each run
would report about per-event latency.
"""

from __future__ import annotations

import random

import numpy as np

from ..apps.notepad import NotepadApp
from ..core import instrumented
from ..core.report import TextTable
from ..sim.timebase import ns_from_ms
from ..workload.mstest import MsTestDriver
from ..workload.script import InputScript, type_text_actions
from .common import ExperimentResult

ID = "ablation-batching"
TITLE = "Ablation: realistic vs infinitely-fast input (GDI batching)"


def _drive(seed: int, text: str, pause_ms: float, batch_limit=None):
    rig = instrumented("nt40", NotepadApp, seed=seed)
    system = rig.system
    if batch_limit is not None:
        system.kernel.gdi_batch_limit_override = batch_limit
    system.run_for(ns_from_ms(200))
    start_ns = system.now
    driver = MsTestDriver(
        system,
        InputScript(type_text_actions(text, pause_ms=pause_ms)),
        queuesync=False,
        default_pause_ms=pause_ms,
    )
    driver.run_to_completion(max_seconds=600)
    elapsed_s = (system.now - start_ns) / 1e9
    extraction = rig.extract()
    batch = system.kernel.gdi_batch(rig.app.thread)
    latencies = extraction.profile.latencies_ms
    return {
        "elapsed_s": elapsed_s,
        "throughput_chars_per_s": len(text) / elapsed_s,
        "mean_batch_size": batch.mean_batch_size,
        "events": len(extraction.profile),
        "mean_event_ms": float(latencies.mean()) if len(latencies) else 0.0,
        "max_event_ms": float(latencies.max()) if len(latencies) else 0.0,
    }


def run(seed: int = 0, chars: int = 150) -> ExperimentResult:
    result = ExperimentResult(id=ID, title=TITLE)
    rng = random.Random(seed + 4)
    text = "".join(rng.choice("abcdefgh ") for _ in range(chars))
    realistic = _drive(seed, text, pause_ms=120.0)
    burst = _drive(seed, text, pause_ms=0.0)
    # Section 1.1: "Disabling batching altogether is sometimes possible
    # but does not fully address the problem."
    burst_nobatch = _drive(seed, text, pause_ms=0.0, batch_limit=1)

    table = TextTable(
        [
            "quantity",
            "realistic (120 ms)",
            "infinitely fast (0 ms)",
            "fast, batching off",
        ],
        title="batching ablation on Notepad/NT 4.0",
    )
    for key in (
        "elapsed_s",
        "throughput_chars_per_s",
        "mean_batch_size",
        "events",
        "mean_event_ms",
        "max_event_ms",
    ):
        table.add_row(key, realistic[key], burst[key], burst_nobatch[key])
    result.tables.append(table)
    result.data = {
        "realistic": realistic,
        "burst": burst,
        "burst_nobatch": burst_nobatch,
    }

    result.check(
        "uninterrupted input batches more aggressively",
        burst["mean_batch_size"] > 1.5 * realistic["mean_batch_size"],
        f"{burst['mean_batch_size']:.1f} vs {realistic['mean_batch_size']:.1f} ops/flush",
    )
    result.check(
        "throughput improves under uninterrupted input",
        burst["throughput_chars_per_s"] > 3 * realistic["throughput_chars_per_s"],
        f"{burst['throughput_chars_per_s']:.0f} vs "
        f"{realistic['throughput_chars_per_s']:.1f} chars/s",
    )
    result.check(
        "per-event picture degenerates (events merge into bursts)",
        burst["events"] < 0.5 * realistic["events"],
        f"{burst['events']} vs {realistic['events']} observable events",
    )
    result.check(
        "burst-mode 'latency' is not a realistic per-event number",
        burst["max_event_ms"] > 4 * realistic["max_event_ms"],
        f"max {burst['max_event_ms']:.0f} vs {realistic['max_event_ms']:.0f} ms",
    )
    result.check(
        "disabling batching does not fully address the problem",
        burst_nobatch["mean_batch_size"] <= 1.0
        and burst_nobatch["events"] < 0.5 * realistic["events"],
        f"batching off, yet {burst_nobatch['events']} observable events vs "
        f"{realistic['events']} under realistic input",
    )
    result.check(
        "disabled batching costs throughput",
        burst_nobatch["throughput_chars_per_s"] < burst["throughput_chars_per_s"],
        f"{burst_nobatch['throughput_chars_per_s']:.0f} vs "
        f"{burst['throughput_chars_per_s']:.0f} chars/s",
    )
    return result
