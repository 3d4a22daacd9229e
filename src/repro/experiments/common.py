"""Shared infrastructure for the per-figure/table experiment drivers.

Every experiment returns an :class:`ExperimentResult`: rendered tables
and figures (what the paper printed), raw data (what tests and benches
assert on), and a list of *shape checks* — the qualitative claims from
the paper that the reproduction must uphold (orderings, ratios within
bands, distribution fractions), as opposed to absolute numbers from the
authors' 1996 testbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, TypeVar

from ..core.report import TextTable
from ..obs.runtime import current
from ..sim.engine import fast_forward_default
from ..sim.timebase import ns_from_ms
from ..winsys import boot
from ..winsys.system import WindowsSystem

__all__ = [
    "ALL_OS",
    "NT_OS",
    "Check",
    "ExperimentResult",
    "captured",
    "checks_table",
    "inject_keystroke",
    "inject_click",
    "post_command",
]

#: The three measured systems, in the paper's presentation order.
ALL_OS = ("nt351", "nt40", "win95")
#: The two systems used for the PowerPoint and Word tasks.
NT_OS = ("nt351", "nt40")


@dataclass
class Check:
    """One shape assertion: a paper claim the reproduction must uphold."""

    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}" + (f" — {self.detail}" if self.detail else "")


@dataclass
class ExperimentResult:
    """Everything one experiment produces."""

    id: str
    title: str
    tables: List[TextTable] = field(default_factory=list)
    figures: List[str] = field(default_factory=list)
    data: Dict[str, object] = field(default_factory=dict)
    checks: List[Check] = field(default_factory=list)
    #: Host measurements of the run (wall-clock seconds), which are no
    #: function of (code, seed): reported beside the payload, in the
    #: job's manifest entry, and never archived in it.
    host: Dict[str, object] = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: str = "") -> Check:
        result = Check(name=name, passed=bool(passed), detail=detail)
        self.checks.append(result)
        return result

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failed_checks(self) -> List[Check]:
        return [check for check in self.checks if not check.passed]

    def render(self) -> str:
        """Full terminal report for this experiment."""
        parts: List[str] = [f"=== {self.id}: {self.title} ==="]
        for table in self.tables:
            parts.append(table.render())
            parts.append("")
        for figure in self.figures:
            parts.append(figure)
            parts.append("")
        parts.append("shape checks:")
        for check in self.checks:
            parts.append(f"  {check}")
        return "\n".join(parts)


def checks_table(result: ExperimentResult) -> TextTable:
    table = TextTable(["check", "status", "detail"], title="shape checks")
    for check in result.checks:
        table.add_row(check.name, "PASS" if check.passed else "FAIL", check.detail)
    return table


T = TypeVar("T")


def captured(cache: dict, key: tuple, capture: Callable[[], T]) -> T:
    """``capture()``, shared per process by the experiments that analyse
    one captured run several ways.

    The key gains the fast-forward setting, so the slow-path oracle
    never reuses a fast-path run.  Inside an observed scope the run is
    neither served from nor stored in ``cache``: its trace, metrics and
    stage envelopes must come from its own boot.
    """
    if current() is not None:
        return capture()
    key = (*key, fast_forward_default())
    if key not in cache:
        cache[key] = capture()
    return cache[key]


# ----------------------------------------------------------------------
# Direct-injection helpers (manual input, as in the Figure 1/6 micro-
# benchmarks where MS Test could not be used)
# ----------------------------------------------------------------------
def inject_keystroke(
    system: WindowsSystem, key: str, settle: bool = True
) -> None:
    """One keystroke, then wait for the system to go quiescent."""
    system.machine.keyboard.keystroke(key)
    if settle:
        system.run_until_quiescent(max_ns=system.now + 10 * 10**9)


def inject_click(
    system: WindowsSystem,
    hold_ms: float = 90.0,
    settle: bool = True,
) -> None:
    """One mouse click with a human press duration."""
    system.machine.mouse.click(hold_ns=ns_from_ms(hold_ms))
    if settle:
        system.run_until_quiescent(max_ns=system.now + 10 * 10**9)


def post_command(system: WindowsSystem, payload, settle: bool = True) -> None:
    """Post a WM_COMMAND and wait for the resulting work to finish."""
    system.post_command(payload)
    if settle:
        system.run_until_quiescent(max_ns=system.now + 300 * 10**9)
