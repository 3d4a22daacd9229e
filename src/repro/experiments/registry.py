"""Experiment registry: every figure/table/ablation, by id.

This module is the stable, importable surface between the experiment
drivers and everything that schedules them (the CLI runner, the
benchmark harness, :mod:`repro.experiments.parallel`).  Its functions
are module-level — and their arguments plain ids and ints — precisely
so they can be pickled into ``ProcessPoolExecutor`` workers.

**The seed contract.**  Every experiment is a pure function of
``(code, seed)``: all randomness flows from the single master ``seed``
through named RNG streams (:mod:`repro.sim.rng`), simulated time is
integer nanoseconds, and no experiment reads wall clocks, environment
or global mutable state.  Two calls of ``run_experiment(x, seed=s)``
under the same code therefore return equal results — same tables, same
figures, same ``data``, same check outcomes — whether they run in this
process, another process, or on another machine.  That determinism
guarantee is what makes result caching (:mod:`repro.core.runcache`)
and parallel fan-out safe: they can never change an answer, only when
and where it is computed.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from . import (
    ablation_batching,
    ablation_idle_n,
    ablation_merge,
    ext_decompose,
    ext_faults,
    ext_fleet,
    ext_network,
    ext_refresh,
    ext_remote,
    fig01_validation,
    fig02_fsm,
    fig03_idle_profiles,
    fig04_maximize,
    fig05_raw_profile,
    fig06_simple_events,
    fig07_notepad,
    fig08_powerpoint,
    fig09_pagedown_counters,
    fig10_oleedit_counters,
    fig11_word,
    fig12_longevent_series,
    sec5_repeatability,
    sec25_interrupt_cost,
    sec54_test_vs_hand,
    table1_longevents,
    table2_interarrival,
)
from .common import ExperimentResult

__all__ = ["EXPERIMENTS", "experiment_ids", "run_experiment"]

_MODULES = [
    fig01_validation,
    fig02_fsm,
    fig03_idle_profiles,
    fig04_maximize,
    fig05_raw_profile,
    fig06_simple_events,
    fig07_notepad,
    fig08_powerpoint,
    fig09_pagedown_counters,
    fig10_oleedit_counters,
    fig11_word,
    fig12_longevent_series,
    table1_longevents,
    table2_interarrival,
    sec25_interrupt_cost,
    sec5_repeatability,
    sec54_test_vs_hand,
    ablation_idle_n,
    ablation_batching,
    ablation_merge,
    ext_refresh,
    ext_network,
    ext_decompose,
    ext_faults,
    ext_fleet,
    ext_remote,
]

#: id -> ``run(seed=...)`` callable, in the paper's presentation order.
#: Each callable honours the seed contract documented in the module
#: docstring: deterministic in ``(code, seed)``, no hidden state.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    module.ID: module.run for module in _MODULES
}

#: id -> human-readable title (the paper artifact it regenerates), in
#: the same order and with the same keys as :data:`EXPERIMENTS`.
TITLES: Dict[str, str] = {module.ID: module.TITLE for module in _MODULES}


def experiment_ids() -> List[str]:
    """All known experiment ids, in presentation order."""
    return list(EXPERIMENTS)


def run_experiment(experiment_id: str, seed: int = 0, **kwargs) -> ExperimentResult:
    """Run one experiment by id and return its :class:`ExperimentResult`.

    ``seed`` is the master RNG seed from which every random stream in
    the simulated run derives; the result is a deterministic function
    of ``(code, experiment_id, seed)`` — repeat calls return equal
    results bit-for-bit (see the module docstring for why).  Extra
    keyword arguments are forwarded to the experiment driver (the
    sweep's per-job options, such as a fault scenario or a checkpoint).

    This function is the picklable job entry point used by
    :func:`repro.experiments.parallel.execute_job` to fan runs out
    across processes.

    Raises :class:`ValueError` for unknown ids.
    """
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; known: {', '.join(EXPERIMENTS)}"
        ) from None
    return runner(seed=seed, **kwargs)
