"""Figure 12 — time series of long-latency PowerPoint events.

All events over 50 ms from the PowerPoint task on both NTs.  Both
systems show a similar pattern — the long-event interarrivals are the
interarrivals of the script's operations ("entirely dependent upon when
we issued such requests in our test script") — with NT 4.0's shorter
handling times giving it slightly shorter interarrival intervals and a
shorter overall run.
"""

from __future__ import annotations

import numpy as np

from ..core.report import TextTable
from ..core.visualize import event_time_series
from .common import ExperimentResult, NT_OS
from .ppt_runs import powerpoint_session

ID = "fig12"
TITLE = "Time series of long-latency PowerPoint events (>= 50 ms)"


def run(seed: int = 0) -> ExperimentResult:
    result = ExperimentResult(id=ID, title=TITLE)
    stats = {}
    table = TextTable(
        ["system", "events >=50ms", "mean interarrival s", "std s", "run s"],
        title="Figure 12 long-event interarrivals",
    )
    for os_name in NT_OS:
        session = powerpoint_session(os_name, seed)
        profile = session.profile.above(50.0)
        starts = np.sort(profile.start_times_ns)
        gaps = np.diff(starts) / 1e9 if len(starts) > 1 else np.array([0.0])
        stats[os_name] = {
            "events": len(profile),
            "mean_interarrival_s": float(gaps.mean()),
            "std_s": float(gaps.std()),
            "run_s": session.elapsed_s,
            "top_order": [
                e.label
                for e in sorted(profile, key=lambda e: -e.latency_ns)[:6]
            ],
        }
        table.add_row(
            os_name,
            len(profile),
            stats[os_name]["mean_interarrival_s"],
            stats[os_name]["std_s"],
            session.elapsed_s,
        )
        result.figures.append(
            f"{os_name} long events over time:\n"
            + event_time_series(profile, width=110, height=12, threshold_ms=1000.0)
        )
    result.tables.append(table)
    result.data = stats

    result.check(
        "both systems show the same number of long events",
        stats["nt351"]["events"] == stats["nt40"]["events"],
        f"{stats['nt351']['events']} vs {stats['nt40']['events']}",
    )
    result.check(
        "NT 4.0 interarrivals slightly shorter (faster handling)",
        stats["nt40"]["mean_interarrival_s"] <= stats["nt351"]["mean_interarrival_s"],
        f"{stats['nt40']['mean_interarrival_s']:.2f} vs "
        f"{stats['nt351']['mean_interarrival_s']:.2f} s",
    )
    result.check(
        "top long events in nearly the same relative order",
        sum(
            1
            for a, b in zip(stats["nt351"]["top_order"], stats["nt40"]["top_order"])
            if a == b
        )
        >= 4,
        f"{stats['nt351']['top_order']} vs {stats['nt40']['top_order']}",
    )
    result.check(
        "NT 4.0 finishes the run sooner",
        stats["nt40"]["run_s"] < stats["nt351"]["run_s"],
        f"{stats['nt40']['run_s']:.1f} vs {stats['nt351']['run_s']:.1f} s",
    )
    return result
