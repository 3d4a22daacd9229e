"""Cross-operating-system comparison (the Sections 4-5 experiments).

Runs the same application, script and measurement pipeline on each OS
personality and collates the profiles — the structure behind every
multi-system figure in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..workload.script import InputScript
from .analysis import variance_summary
from .latency import LatencyProfile
from .report import TextTable
from .session import Measurement, MeasurementSession

__all__ = ["OSComparison", "run_comparison"]


@dataclass
class OSComparison:
    """Per-OS measurements for one workload."""

    workload: str
    results: Dict[str, Measurement] = field(default_factory=dict)

    @property
    def os_names(self) -> List[str]:
        return list(self.results)

    def profile(self, os_name: str) -> LatencyProfile:
        return self.results[os_name].profile

    def summary_table(self) -> TextTable:
        """Count / mean / std / max / total / elapsed per system."""
        table = TextTable(
            [
                "system",
                "events",
                "mean ms",
                "std ms",
                "max ms",
                "cumulative ms",
                "elapsed s",
            ],
            title=f"{self.workload}: per-OS latency summary",
        )
        for os_name, result in self.results.items():
            stats = variance_summary(result.profile)
            table.add_row(
                os_name,
                stats["count"],
                stats["mean_ms"],
                stats["std_ms"],
                stats["max_ms"],
                stats["total_ms"],
                result.elapsed_s,
            )
        return table

    def cumulative_latency_ms(self) -> Dict[str, float]:
        return {
            os_name: result.profile.total_latency_ns / 1e6
            for os_name, result in self.results.items()
        }

    def elapsed_s(self) -> Dict[str, float]:
        return {os_name: result.elapsed_s for os_name, result in self.results.items()}


def run_comparison(
    workload: str,
    os_names: Sequence[str],
    app_factory: Callable,
    script: InputScript,
    seed: int = 0,
    run_kwargs: Optional[dict] = None,
) -> OSComparison:
    """Run one workload across several systems with identical settings."""
    comparison = OSComparison(workload=workload)
    for os_name in os_names:
        session = MeasurementSession(os_name, app_factory, seed=seed)
        comparison.results[os_name] = session.run(
            script, **(run_kwargs or {})
        ).measurement()
    return comparison
