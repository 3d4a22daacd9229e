"""Per-figure/table experiment drivers.

One module per paper artifact (Figures 1-12, Tables 1-2, the Section
5.4 comparison) plus three ablations of the methodology's design
choices.  ``python -m repro.experiments`` runs them all — in parallel,
with an on-disk result cache and a run manifest (see
``docs/running-experiments.md``) — and reports shape checks.
"""

from .common import ALL_OS, NT_OS, Check, ExperimentResult
from .parallel import JobOptions, JobResult, execute_job, run_specs
from .registry import EXPERIMENTS, TITLES, experiment_ids, run_experiment

__all__ = [
    "ALL_OS",
    "Check",
    "EXPERIMENTS",
    "ExperimentResult",
    "JobOptions",
    "JobResult",
    "NT_OS",
    "TITLES",
    "execute_job",
    "experiment_ids",
    "run_experiment",
    "run_specs",
]
