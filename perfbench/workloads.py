"""The benchmark's workloads, driven through the program's public entry
points.

All three are closed loops: one in-process client runs a whole fleet or
experiment pair, waits for it, and starts the next.  Each passes
``shards=1`` / ``jobs=1`` and ``cache=None`` explicitly, because both
entry points otherwise fan out to ``os.cpu_count()`` workers and the
command-line runner caches results under ``~/.cache/repro``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List

#: Sessions per fleet: 24 of them lie beyond one fleet's p90, and a
#: run's three fleets average the think-time draws of 720 sessions.
FLEET_SIZE = 120

#: The paper's own runs.  Neither reuses the per-process captures of
#: ``experiments/word_runs.py`` or ``experiments/ppt_runs.py``, so every
#: iteration runs its simulations in full.
FIGURES = ("fig7", "fig10")


@dataclass
class Iteration:
    """What one pass of a workload did and produced."""

    #: Operations attempted: fleet sessions, or experiment jobs.
    ops: int
    #: Operations that did not complete, or completed with a failed check.
    failed: int
    #: Host wall time of each operation, in milliseconds.
    op_ms: List[float]
    #: Payloads that passed verification: fleet batch aggregates whose
    #: digests the fold checked, or experiment payloads whose shape
    #: checks all passed.
    payloads: int
    #: Output digests, compared with the recorded ones.
    digests: Dict[str, str]
    #: Per-event latencies folded into the fleet's sketches.
    folded: int = 0
    #: Program-measured wall time of each experiment job, in seconds.
    job_wall_s: Dict[str, float] = field(default_factory=dict)
    #: Host wall time of the whole pass, in seconds.
    wall_s: float = 0.0


def prepare() -> None:
    """Import every layer the workloads reach and boot one system, so
    the timed loop starts warm.  This is the benchmark's set-up."""
    import repro.experiments.parallel  # noqa: F401  (the experiment registry)
    import repro.fleet.shards  # noqa: F401
    import repro.remote  # noqa: F401  (imported lazily by remote sessions)
    import repro.verify.golden  # noqa: F401
    from repro.winsys import boot

    boot("nt40", seed=0)


class Fleet:
    """``run_fleet`` over a default-shaped population with one profile mix."""

    def __init__(self, profile_mix: Dict[str, float]) -> None:
        self.profile_mix = profile_mix

    def bind(self, seed: int) -> None:
        from repro.fleet import shards
        from repro.fleet.population import PopulationConfig

        self.config = PopulationConfig(
            seed=seed, size=FLEET_SIZE, profile_mix=self.profile_mix
        )
        # Time every session where the fleet's batches look it up.
        self._op_ns: List[int] = []
        inner = shards.run_session
        clock = time.perf_counter_ns
        op_ns = self._op_ns

        def timed_session(spec):
            start = clock()
            try:
                return inner(spec)
            finally:
                op_ns.append(clock() - start)

        shards.run_session = timed_session

    def run(self) -> Iteration:
        from repro.fleet.shards import run_fleet

        self._op_ns.clear()
        result = run_fleet(self.config, shards=1, cache=None)
        return Iteration(
            ops=result.sessions_expected,
            failed=result.sessions_expected - result.sessions_completed,
            op_ms=[ns / 1e6 for ns in self._op_ns],
            payloads=sum(1 for batch in result.batches if batch["source"] == "run"),
            digests={"fleet": result.digest},
            folded=result.aggregate.events,
        )


class Figures:
    """``run_specs`` over the paper's fig7 and fig10 at default arguments."""

    def bind(self, seed: int) -> None:
        self.specs = [(experiment_id, seed) for experiment_id in FIGURES]

    def run(self) -> Iteration:
        from repro.experiments.parallel import run_specs
        from repro.verify.golden import payload_digest

        jobs = run_specs(self.specs, jobs=1, cache=None)
        passed = [job for job in jobs if job.failures == 0]
        return Iteration(
            ops=len(jobs),
            failed=len(jobs) - len(passed),
            op_ms=[job.wall_s * 1e3 for job in jobs],
            payloads=len(passed),
            digests={
                job.experiment_id: payload_digest(job.payload)
                for job in jobs
                if job.payload is not None
            },
            job_wall_s={job.experiment_id: job.wall_s for job in jobs},
        )


#: Workload name -> factory.  Why each is here is recorded in DESIGN.md.
WORKLOADS = {
    "fleet-local": lambda: Fleet({"editor": 2, "ide": 1, "terminal": 1}),
    "fleet-remote": lambda: Fleet({"remote": 1}),
    "paper-figures": Figures,
}
