"""Figure 6 — latency of simple interactive events on three systems.

Unbound keystroke and mouse click on the screen background, injected
manually (the paper could not use MS Test here), mean of 30-40 trials
with cold-cache cases ignored.  The headline shapes:

* Windows 95 keystroke handling is substantially worse than NT 4.0
  (16-bit USER overhead);
* the Windows 95 mouse click is off the scale because the system
  busy-waits between button-down and button-up — the measurement
  reports the user's press duration, not processing time.
"""

from __future__ import annotations

import numpy as np

from ..apps.shell import ShellApp
from ..core import instrumented
from ..core.report import TextTable
from ..core.visualize import bar_chart
from ..sim.timebase import ns_from_ms
from .common import ALL_OS, ExperimentResult, inject_click, inject_keystroke

ID = "fig6"
TITLE = "Simple interactive events: unbound keystroke and mouse click"

PRESS_MS = 90.0


def _measure(os_name: str, seed: int, trials: int):
    rig = instrumented(os_name, ShellApp, seed=seed)
    system = rig.system
    system.run_for(ns_from_ms(200))
    for _ in range(trials):
        inject_keystroke(system, "F5")
        system.run_for(ns_from_ms(150))
    for _ in range(trials):
        inject_click(system, hold_ms=PRESS_MS)
        system.run_for(ns_from_ms(250))
    extraction = rig.extract()
    keys = np.array(
        [
            e.latency_ns / 1e6
            for e in extraction.profile
            if "WM_KEYDOWN" in e.message_kinds
        ]
    )
    clicks = np.array(
        [
            e.latency_ns / 1e6
            for e in extraction.profile
            if "WM_LBUTTONDOWN" in e.message_kinds
        ]
    )
    # Ignore the cold-cache first trial of each kind, as the paper does.
    return keys[1:], clicks[1:]


def run(seed: int = 0, trials: int = 30) -> ExperimentResult:
    result = ExperimentResult(id=ID, title=TITLE)
    table = TextTable(
        ["system", "key ms", "key std %", "click ms", "click std %"],
        title=f"Figure 6: mean of {trials - 1} trials (cold cases dropped)",
    )
    stats = {}
    for os_name in ALL_OS:
        keys, clicks = _measure(os_name, seed, trials)
        stats[os_name] = {
            "key_ms": float(keys.mean()),
            "key_std_pct": float(keys.std() / keys.mean() * 100),
            "click_ms": float(clicks.mean()),
            "click_std_pct": float(clicks.std() / clicks.mean() * 100),
            "key_trials": len(keys),
            "click_trials": len(clicks),
        }
        table.add_row(
            os_name,
            stats[os_name]["key_ms"],
            stats[os_name]["key_std_pct"],
            stats[os_name]["click_ms"],
            stats[os_name]["click_std_pct"],
        )
    result.tables.append(table)
    result.figures.append(
        "keystroke latency:\n"
        + bar_chart([(os_name, stats[os_name]["key_ms"]) for os_name in ALL_OS], unit="ms")
    )
    result.figures.append(
        "mouse click latency (win95 off-scale = press duration):\n"
        + bar_chart(
            [(os_name, stats[os_name]["click_ms"]) for os_name in ALL_OS], unit="ms"
        )
    )
    result.data = stats

    result.check(
        "Win95 keystroke substantially worse than NT 4.0",
        stats["win95"]["key_ms"] >= 1.4 * stats["nt40"]["key_ms"],
        f"{stats['win95']['key_ms']:.2f} vs {stats['nt40']['key_ms']:.2f} ms",
    )
    result.check(
        "Win95 click measures the press duration (off the scale)",
        stats["win95"]["click_ms"] >= 0.9 * PRESS_MS
        and stats["win95"]["click_ms"] >= 10 * stats["nt40"]["click_ms"],
        f"{stats['win95']['click_ms']:.1f} ms vs {PRESS_MS} ms press",
    )
    result.check(
        "NT clicks are a few milliseconds",
        stats["nt351"]["click_ms"] < 10.0 and stats["nt40"]["click_ms"] < 10.0,
        f"nt351 {stats['nt351']['click_ms']:.2f}, nt40 {stats['nt40']['click_ms']:.2f}",
    )
    result.check(
        "standard deviations within the paper's 8% bound",
        all(s["key_std_pct"] <= 8.0 and s["click_std_pct"] <= 8.0 for s in stats.values()),
        "all stds <= 8% of mean",
    )
    return result
