"""Shared PowerPoint task runs.

Table 1, Figure 8 and Figure 12 all analyse the same two benchmark runs
(the Section 5.2 task on NT 3.51 and NT 4.0).  A run is deterministic
given (os, seed), so each is captured once per process, the way the
paper's authors analysed one captured trace several ways, and kept as a
:class:`~repro.core.session.Measurement`, which is all those analyses
read; the booted system that made it is not kept (see
:func:`~repro.experiments.common.captured` for when a run is reused).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..apps.slides import SlidesApp
from ..core import Measurement, MeasurementSession
from ..workload.tasks import powerpoint_task
from .common import captured

__all__ = [
    "powerpoint_session",
    "TABLE1_LABELS",
    "PAPER_TABLE1",
]

#: Script mark -> paper row name, in Table 1 order.
TABLE1_LABELS = {
    "save-document": "Save document",
    "start-powerpoint": "Start Powerpoint",
    "ole-edit-1": "Start OLE edit session (first time)",
    "open-document": "Open document",
    "ole-edit-2": "Start OLE edit session (second object)",
    "ole-edit-3": "Start OLE edit session (third object)",
}

#: Paper Table 1 latencies in seconds: label -> (NT 3.51, NT 4.0).
PAPER_TABLE1 = {
    "save-document": (8.082, 9.580),
    "start-powerpoint": (7.166, 5.773),
    "ole-edit-1": (7.050, 5.844),
    "open-document": (5.680, 4.151),
    "ole-edit-2": (2.897, 2.009),
    "ole-edit-3": (2.697, 1.305),
}

_cache: Dict[Tuple, Measurement] = {}


def powerpoint_session(os_name: str, seed: int = 0) -> Measurement:
    """The Section 5.2 task on one OS (cold boot), cached per (os, seed).

    Single-OS granularity is what unit-level checkpointing needs: a
    resumed Table 1 run can skip the NT 3.51 session it already
    completed and measure only NT 4.0.
    """

    def capture() -> Measurement:
        session = MeasurementSession(os_name, SlidesApp, seed=seed)
        return session.run(
            powerpoint_task().script, default_pause_ms=500.0, max_seconds=2400
        ).measurement()

    return captured(_cache, (os_name, seed), capture)
