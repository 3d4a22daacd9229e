"""Shared Microsoft Word task runs.

Figure 5, Figure 11, Table 2 and the Section 5.4 comparison all analyse
Word-task runs.  A run is deterministic given (os, driver, chars, seed),
so each is captured once per process and kept as a
:class:`~repro.core.session.Measurement`, which is all those analyses
read; the booted system that made it is not kept (see
:func:`~repro.experiments.common.captured` for when a run is reused).
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from ..apps.wordproc import WordApp
from ..core import Measurement, MeasurementSession
from ..workload.tasks import word_task
from .common import captured

__all__ = ["word_session", "DEFAULT_CHARS"]

DEFAULT_CHARS = 1000

_cache: Dict[Tuple, Measurement] = {}


def word_session(
    os_name: str,
    driver_kind: str = "mstest",
    chars: int = DEFAULT_CHARS,
    seed: int = 0,
) -> Measurement:
    """One Word-task run (Section 5.4 workload), cached."""

    def capture() -> Measurement:
        spec = word_task(random.Random(seed + 1042), chars=chars)
        session = MeasurementSession(os_name, WordApp, seed=seed)
        return session.run(
            spec.script, driver_kind=driver_kind, max_seconds=7200
        ).measurement()

    return captured(_cache, (os_name, driver_kind, chars, seed), capture)
