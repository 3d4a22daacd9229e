"""Figure 8 — PowerPoint event-latency summary (events >= 50 ms).

"Since we were mainly interested in longer events, we pre-processed our
data to exclude events with latency of less than 50 ms."  The shapes:
most events are relatively short (under ~500 ms page-downs and Excel
operations) but the *majority of total latency* comes from the handful
of long events, and NT 4.0's advantage comes almost entirely from
handling those long events more efficiently.
"""

from __future__ import annotations

import numpy as np

from ..core.analysis import cumulative_vs_events, latency_histogram
from ..core.report import TextTable
from ..core.visualize import curve_plot, log_histogram
from .common import ExperimentResult, NT_OS
from .ppt_runs import powerpoint_session

ID = "fig8"
TITLE = "PowerPoint event-latency summary (events >= 50 ms)"


def run(seed: int = 0) -> ExperimentResult:
    result = ExperimentResult(id=ID, title=TITLE)
    stats = {}
    table = TextTable(
        [
            "system",
            "events >=50ms",
            "short (<1s)",
            "long (>1s)",
            "cumulative s",
            "long share %",
            "elapsed s",
        ],
        title="Figure 8 summary",
    )
    for os_name in NT_OS:
        session = powerpoint_session(os_name, seed)
        profile = session.profile.above(50.0)
        latencies = profile.latencies_ms
        long_profile = profile.above(1000.0)
        long_share = (
            long_profile.total_latency_ns / profile.total_latency_ns
            if len(profile)
            else 0.0
        )
        stats[os_name] = {
            "events": len(profile),
            "short": int((latencies <= 1000.0).sum()),
            "long": len(long_profile),
            "cumulative_s": profile.total_latency_ns / 1e9,
            "long_share": long_share,
            "elapsed_s": session.elapsed_s,
            "short_median_ms": float(np.median(latencies[latencies <= 1000.0]))
            if (latencies <= 1000.0).any()
            else 0.0,
        }
        table.add_row(
            os_name,
            len(profile),
            stats[os_name]["short"],
            stats[os_name]["long"],
            stats[os_name]["cumulative_s"],
            long_share * 100,
            session.elapsed_s,
        )
        hist = latency_histogram(profile, bin_ms=100.0)
        result.figures.append(
            f"{os_name} histogram (100 ms bins, log counts):\n" + log_histogram(hist)
        )
        index, cumulative = cumulative_vs_events(profile)
        result.figures.append(
            f"{os_name} cumulative latency vs events "
            f"[elapsed {session.elapsed_s:.1f} s]:\n"
            + curve_plot(index, cumulative, x_label="events (sorted)", y_label="cum ms")
        )
    result.tables.append(table)
    result.data = stats

    result.check(
        "most events are short (under 1 s)",
        all(s["short"] > s["long"] for s in stats.values()),
        ", ".join(f"{k}: {v['short']} short / {v['long']} long" for k, v in stats.items()),
    )
    result.check(
        "the majority of total latency is in long events",
        all(s["long_share"] >= 0.5 for s in stats.values()),
        ", ".join(f"{k}: {v['long_share']*100:.0f}%" for k, v in stats.items()),
    )
    result.check(
        "short-event distributions similar across systems (medians within 2x)",
        0.5
        <= stats["nt40"]["short_median_ms"] / max(stats["nt351"]["short_median_ms"], 1e-9)
        <= 2.0,
        f"{stats['nt351']['short_median_ms']:.0f} vs {stats['nt40']['short_median_ms']:.0f} ms",
    )
    long_gain = stats["nt351"]["cumulative_s"] - stats["nt40"]["cumulative_s"]
    long_part = (
        stats["nt351"]["long_share"] * stats["nt351"]["cumulative_s"]
        - stats["nt40"]["long_share"] * stats["nt40"]["cumulative_s"]
    )
    result.check(
        "NT 4.0's advantage comes mostly from long events",
        long_gain > 0 and long_part / long_gain >= 0.5,
        f"{long_part:.1f}s of the {long_gain:.1f}s gain is in >1s events",
    )
    return result
