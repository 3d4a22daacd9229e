"""Work-stealing shard execution of session batches.

A fleet run is a bag of independent *batches* (contiguous session-index
ranges).  Batches are submitted to
:func:`repro.experiments.parallel.run_specs` — the same scheduler,
watchdog, retry and Ctrl-C machinery experiment sweeps use — with
:func:`execute_fleet_batch` as the job executor.  Work stealing falls
out of the pool structure: every idle shard (worker process) pulls the
next unclaimed batch from the shared pending deque, so a shard stuck
behind a slow batch never idles the others.

Reused infrastructure, not bypassed:

* **Result cache** — each batch aggregate is cached under
  ``(batch id, population seed, code version, population fingerprint)``
  via :class:`repro.core.runcache.RunCache`, so re-running a fleet (or
  resuming a crashed one) recomputes only missing batches.
* **Checkpointing** — with a
  :class:`~repro.verify.checkpoint.Checkpointer` attached, every
  completed batch's aggregate is snapshotted; a killed fleet resumes
  batch-exactly.
* **Retries / timeouts** — per-batch watchdog and transient-pool-retry
  semantics are inherited from :func:`~repro.experiments.parallel.run_specs`
  unchanged.
* **Observability** — the fleet summarizes itself into the standard
  :class:`~repro.obs.metrics.MetricsRegistry` shapes (sessions/batches
  counters, batch wall-time histogram, shard-utilization gauge).

Determinism contract: the merged aggregate — including its byte-level
:meth:`~repro.fleet.sketch.FleetAggregator.digest` — is a function of
``(population config, compression)`` alone.  Batch partition, shard
count, steal interleaving and merge order can never change it, because
session parameters are drawn per-index (:mod:`repro.fleet.population`)
and sketch merges are exactly commutative and associative
(:mod:`repro.fleet.sketch`).  ``tests/test_fleet_shards.py`` permutes
all of them and compares digests.
"""

from __future__ import annotations

import re
import time
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..core.runcache import RunCache, code_version, variant_key
from ..core.serialize import cache_entry_to_dict, experiment_to_dict
from ..obs import MetricsRegistry
from ..obs.logging import get_logger
from ..sim.engine import fast_forward_default, fast_forward_scope
from .population import PopulationConfig, SessionPopulation
from .session import run_session
from .sketch import DEFAULT_COMPRESSION, FleetAggregator

if TYPE_CHECKING:
    from ..experiments.parallel import JobOptions

__all__ = [
    "FleetResult",
    "batch_job_id",
    "execute_fleet_batch",
    "run_fleet",
]

log = get_logger("repro.fleet")

_BATCH_ID = re.compile(r"fleet:(\d+)-(\d+)")


def batch_job_id(start: int, stop: int) -> str:
    """The job id of the ``[start, stop)`` session batch."""
    return f"fleet:{start}-{stop}"


def _parse_batch_id(job_id: str) -> Tuple[int, int]:
    match = _BATCH_ID.fullmatch(job_id)
    if not match:
        raise ValueError(f"not a fleet batch id: {job_id!r}")
    start, stop = int(match.group(1)), int(match.group(2))
    if stop <= start:
        raise ValueError(f"empty fleet batch: {job_id!r}")
    return start, stop


def _batch_variant(config: PopulationConfig, compression: int) -> str:
    return variant_key(
        {"population": config.fingerprint(), "compression": compression}
    )


def execute_fleet_batch(job_id: str, seed: int, options: JobOptions):
    """Pool entry point: run one session batch, streamingly aggregated.

    Signature-compatible with
    :func:`repro.experiments.parallel.execute_job` so the parallel
    runner can schedule batches exactly like experiment jobs, and, like
    it, runs inside the fast-forward scope ``options.fast_forward``
    sets.  ``options.run_kwargs`` must carry ``{"population": <config
    dict>}`` (and optionally ``"compression"``); ``seed`` must equal the
    population seed — it is part of the cache key and asserted against
    the config.

    The returned ``JobResult.payload["data"]`` holds the batch's
    serialized :class:`~repro.fleet.sketch.FleetAggregator` — O(sketch)
    bytes however many events the batch's sessions produced; no
    per-event data survives the worker.

    Fleet batches do not read ``options.obs``: each session gets its
    stage envelopes from :func:`~repro.fleet.session.run_session`'s own
    observability handling.

    ``options.chaos`` enters this batch into a
    :func:`~repro.chaos.engine.chaos_harness`: the worker may crash,
    hang, straggle or sabotage its artifact writes before/around the
    real work; ``poison`` chaos fails individual sessions inside the
    loop (deterministically per index, so bisection converges on the
    exact poisoned set), and ``corrupt-result`` mangles the *finished*
    payload's digest after any cache write — the shared cache keeps
    clean bytes; the corruption models the transport, and the fleet
    fold's digest verification is what catches it.
    """
    from ..chaos.engine import chaos_harness

    with fast_forward_scope(options.fast_forward), chaos_harness(
        options.chaos, job_id
    ) as active_chaos:
        job = _fleet_batch_job(job_id, seed, options, active_chaos)
    if active_chaos is not None:
        active_chaos.corrupt_result(job)
    return job


def _fleet_batch_job(job_id: str, seed: int, options: JobOptions, active_chaos):
    """:func:`execute_fleet_batch` inside its scopes."""
    from ..experiments.common import ExperimentResult
    from ..experiments.parallel import JobResult

    cache = options.cache
    run_kwargs = options.run_kwargs or {}
    started = time.perf_counter()
    try:
        start, stop = _parse_batch_id(job_id)
        config = PopulationConfig.from_dict(run_kwargs["population"])
        compression = int(run_kwargs.get("compression", DEFAULT_COMPRESSION))
        if seed != config.seed:
            raise ValueError(
                f"batch seed {seed} disagrees with population seed {config.seed}"
            )
        variant = _batch_variant(config, compression)
        if cache is not None and not options.refresh:
            entry = cache.load(job_id, seed, variant)
            if entry is not None:
                return JobResult(
                    experiment_id=job_id,
                    seed=seed,
                    wall_s=time.perf_counter() - started,
                    started_monotonic=started,
                    cache_hit=True,
                    rendered=entry["rendered"],
                    checks=entry["checks"],
                    payload=entry["payload"],
                )

        population = SessionPopulation(config)
        aggregator = FleetAggregator(compression)
        faults = 0
        for index in range(start, stop):
            if active_chaos is not None:
                active_chaos.check_poison(index)
            result = run_session(population.spec(index))
            aggregator.add_session(result)
            faults += result.faults_injected
        wall = time.perf_counter() - started

        result = ExperimentResult(
            id=job_id,
            title=f"fleet batch [{start}, {stop}) of population {config.seed}",
        )
        result.data = {
            "aggregate": aggregator.to_dict(),
            "digest": aggregator.digest(),
            "sessions": stop - start,
            "faults_injected": faults,
        }
        if cache is not None:
            cache.store(
                cache_entry_to_dict(
                    result,
                    seed=seed,
                    wall_s=wall,
                    code_version=cache.version,
                    variant=variant,
                )
            )
        return JobResult(
            experiment_id=job_id,
            seed=seed,
            wall_s=wall,
            started_monotonic=started,
            cache_hit=False,
            rendered=result.render(),
            checks=[],
            payload=experiment_to_dict(result),
        )
    except Exception:
        log.warning(f"fleet batch {job_id} raised; returning error result")
        return JobResult(
            experiment_id=job_id,
            seed=seed,
            wall_s=time.perf_counter() - started,
            started_monotonic=started,
            error=traceback.format_exc(),
            failure_kind="error",
        )


@dataclass
class FleetResult:
    """A completed fleet sweep: merged aggregate plus scheduling record.

    Completeness accounting is exact by construction: every one of the
    population's sessions ends in exactly one of *completed* (merged
    into the aggregate), *quarantined* (confirmed failing at session
    granularity) or *skipped* (not attempted: circuit breaker open, or
    part of an unrecovered batch), so ``sessions_expected ==
    sessions_completed + sessions_quarantined + sessions_skipped``
    always holds — a partial sweep can mis-measure nothing silently.
    """

    aggregate: FleetAggregator
    config: PopulationConfig
    shards: int
    batch_size: int
    makespan_s: float
    #: Per-batch scheduling stats (id, wall_s, queue_s, cache/source).
    batches: List[dict] = field(default_factory=list)
    #: Batch ids still failed *after* recovery — empty whenever the
    #: quarantine layer ran (it always reduces batches to accounted
    #: sessions); non-empty only with ``quarantine=False``.
    failures: List[dict] = field(default_factory=list)
    #: Sessions confirmed failing at single-session granularity:
    #: ``{"index", "group", "failure_kind"}`` — the poison set.
    quarantined: List[dict] = field(default_factory=list)
    #: Sessions deliberately not attempted (open circuit breaker /
    #: unrecovered batches): ``{"index", "group", "reason"}``.
    skipped: List[dict] = field(default_factory=list)
    #: Recovery-stage record: observed failures, re-runs, healed
    #: batches, breaker state (``None`` when nothing failed).
    recovery: Optional[dict] = None
    #: Chaos provenance (plan identity + seed) when chaos was active.
    chaos: Optional[dict] = None
    #: Hedging stats (``{"issued", "won"}``) when hedging was enabled.
    hedging: Optional[dict] = None
    #: Merged metrics snapshot (fleet scheduling self-observation).
    metrics: Optional[dict] = None

    @property
    def digest(self) -> str:
        return self.aggregate.digest()

    # ------------------------------------------------------------------
    # Completeness accounting
    # ------------------------------------------------------------------
    @property
    def sessions_expected(self) -> int:
        return self.config.size

    @property
    def sessions_completed(self) -> int:
        return self.aggregate.sessions

    @property
    def sessions_quarantined(self) -> int:
        return len(self.quarantined)

    @property
    def sessions_skipped(self) -> int:
        return len(self.skipped)

    @property
    def completeness(self) -> float:
        """Fraction of expected sessions in the aggregate, 0..1."""
        if self.sessions_expected <= 0:
            return 1.0
        return self.sessions_completed / self.sessions_expected

    @property
    def complete(self) -> bool:
        return self.sessions_completed == self.sessions_expected

    @property
    def digest_scope(self) -> str:
        """``"complete"`` or ``"partial"`` — what the merged digest
        covers.  The digest itself stays the raw aggregate digest (so
        two equally-partial runs still compare byte-for-byte); the
        scope stamp is what stops a partial digest from being read as
        a complete one."""
        return "complete" if self.complete else "partial"

    def group_coverage(self) -> dict:
        """Per-``(os, scenario)`` coverage, computed without ever
        enumerating the population: completed counts come from the
        aggregate's groups, losses from the quarantine/skip records'
        group tags (sessions lost before their group was known — an
        unrecovered whole batch — land under ``"unattributed"``)."""
        coverage: dict = {}

        def _bucket(group: str) -> dict:
            return coverage.setdefault(
                group,
                {"completed": 0, "quarantined": 0, "skipped": 0},
            )

        for (os_name, scenario), group in sorted(
            self.aggregate.groups.items()
        ):
            _bucket(f"{os_name}/{scenario}")["completed"] = group["sessions"]
        for entry in self.quarantined:
            _bucket(entry.get("group") or "unattributed")["quarantined"] += 1
        for entry in self.skipped:
            _bucket(entry.get("group") or "unattributed")["skipped"] += 1
        for group, counts in coverage.items():
            expected = (
                counts["completed"]
                + counts["quarantined"]
                + counts["skipped"]
            )
            counts["expected"] = expected
            counts["coverage"] = (
                counts["completed"] / expected if expected else 1.0
            )
        return coverage

    def provenance(self) -> dict:
        """The sketch-merge provenance record manifests embed."""
        cached = sum(1 for b in self.batches if b["source"] == "cache")
        record = {
            "population_seed": self.config.seed,
            "population_fingerprint": self.config.fingerprint(),
            "sessions": self.aggregate.sessions,
            "events": self.aggregate.events,
            "compression": self.aggregate.compression,
            "shards": self.shards,
            "batch_size": self.batch_size,
            "batches": len(self.batches),
            "batches_from_cache": cached,
            "batches_from_checkpoint": sum(
                1 for b in self.batches if b["source"] == "checkpoint"
            ),
            "merge": "commutative-bucket-add",
            "merged_digest": self.digest,
            "digest_scope": self.digest_scope,
            "sessions_expected": self.sessions_expected,
            "sessions_completed": self.sessions_completed,
            "sessions_quarantined": self.sessions_quarantined,
            "sessions_skipped": self.sessions_skipped,
            "completeness": self.completeness,
            "code_version": code_version(),
        }
        if self.quarantined:
            # The exact poison set, pinned to this population: enough
            # to reproduce any quarantined session in isolation.
            record["quarantine"] = {
                "population_fingerprint": self.config.fingerprint(),
                "sessions": sorted(e["index"] for e in self.quarantined),
            }
        if self.chaos is not None:
            record["chaos"] = dict(self.chaos)
        if self.hedging is not None:
            record["hedging"] = dict(self.hedging)
        if self.recovery is not None:
            record["recovery"] = {
                key: value
                for key, value in self.recovery.items()
                if key != "observed_failures"
            }
        return record

    def shard_utilization(self) -> float:
        """sum(batch wall) / (shards * makespan), 0..1."""
        if not self.batches or self.makespan_s <= 0 or self.shards <= 0:
            return 0.0
        busy = sum(float(b["wall_s"]) for b in self.batches)
        return min(1.0, busy / (self.shards * self.makespan_s))


def _fleet_metrics(result: FleetResult) -> MetricsRegistry:
    registry = MetricsRegistry()
    sessions = registry.counter(
        "repro_fleet_sessions_total", "Fleet sessions aggregated."
    )
    sessions.inc(result.aggregate.sessions)
    events = registry.counter(
        "repro_fleet_events_total", "Per-event latencies folded into sketches."
    )
    events.inc(result.aggregate.events)
    batches = registry.counter(
        "repro_fleet_batches_total", "Fleet batches by source."
    )
    wall = registry.histogram(
        "repro_fleet_batch_wall_seconds", "Per-batch wall time."
    )
    for batch in result.batches:
        batches.inc(source=batch["source"])
        wall.observe(float(batch["wall_s"]))
    for failure in result.failures:
        batches.inc(source=failure.get("failure_kind") or "error")
    registry.gauge(
        "repro_fleet_shards", "Worker shards used for the fleet sweep."
    ).set(result.shards)
    registry.gauge(
        "repro_fleet_makespan_seconds", "Wall time of the fleet sweep."
    ).set(result.makespan_s)
    registry.gauge(
        "repro_fleet_shard_utilization",
        "sum(batch wall) / (shards * makespan), 0..1.",
    ).set(result.shard_utilization())
    registry.gauge(
        "repro_fleet_completeness",
        "sessions_completed / sessions_expected, 0..1.",
    ).set(result.completeness)
    if result.sessions_quarantined:
        registry.counter(
            "repro_fleet_sessions_quarantined_total",
            "Sessions confirmed failing and quarantined.",
        ).inc(result.sessions_quarantined)
    if result.sessions_skipped:
        registry.counter(
            "repro_fleet_sessions_skipped_total",
            "Sessions not attempted (breaker open / unrecovered batch).",
        ).inc(result.sessions_skipped)
    if result.hedging:
        hedges = registry.counter(
            "repro_fleet_hedges_total", "Speculative batch duplicates."
        )
        hedges.inc(result.hedging.get("issued", 0), outcome="issued")
        hedges.inc(result.hedging.get("won", 0), outcome="won")
    return registry


def _verified_batch_data(job) -> Tuple[Optional[dict], Optional[str]]:
    """Extract and integrity-check one batch job's aggregate payload.

    Returns ``(data, None)`` for a verified payload, ``(None, reason)``
    when the payload is missing, malformed, or its aggregate bytes
    disagree with the digest recorded next to them — the signature of
    corruption in transit (or a ``corrupt-result`` chaos fault).  Runs
    on *every* batch, chaos or not: digest verification is how the fold
    refuses to merge bytes it cannot vouch for.
    """
    data = (job.payload or {}).get("data") or {}
    try:
        aggregate = FleetAggregator.from_dict(data["aggregate"])
    except Exception:
        return None, "batch payload malformed (no valid aggregate)"
    if aggregate.digest() != data.get("digest"):
        return None, (
            f"batch digest mismatch: recorded {data.get('digest')!r} != "
            f"recomputed {aggregate.digest()!r}"
        )
    return data, None


def run_fleet(
    config: PopulationConfig,
    *,
    shards: Optional[int] = None,
    batch_size: int = 50,
    compression: int = DEFAULT_COMPRESSION,
    cache: Optional[RunCache] = None,
    refresh: bool = False,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_s: float = 1.0,
    checkpoint=None,
    batch_order: Optional[Sequence[int]] = None,
    chaos=None,
    chaos_seed: int = 0,
    hedge: bool = False,
    quarantine: bool = True,
    breaker_threshold: int = 3,
) -> FleetResult:
    """Run a whole population and return its merged aggregate.

    ``shards`` is the worker count (default CPU count, clamped to the
    batch count; 1 runs in-process).  ``batch_order`` reorders batch
    *submission* — a test hook standing in for adversarial steal
    interleavings; the merged digest is identical for every permutation.
    ``checkpoint`` is an optional
    :class:`~repro.verify.checkpoint.Checkpointer`: completed batch
    aggregates are recorded as they finish and restored — not re-run —
    on resume.

    Aggregation is streaming: each batch's sketch state is folded into
    the running merge as its result arrives and the payload is dropped,
    so peak memory is O(shards x sketch size + batches), independent of
    session (and event) count.

    **Chaos and recovery.**  ``chaos`` (a
    :class:`~repro.chaos.plan.ChaosPlan` or a scenario name from
    :func:`repro.chaos.scenarios.get_chaos_scenario`) plus
    ``chaos_seed`` inject deterministic harness faults into batch
    workers.  ``hedge`` enables straggler hedging on pool rounds: a
    batch out past 1.5 x p95 of completed batch wall times gets one
    duplicate on a free worker, and the first result wins.
    ``quarantine`` (on by default) drives the recovery stage: every
    batch still failed after retries is re-run once and, if it fails
    deterministically, bisected down to session granularity — transient
    faults heal with digests byte-identical to a clean run; confirmed
    poison sessions land in :attr:`FleetResult.quarantined` (and in
    provenance), and once ``breaker_threshold`` sessions of one ``(os,
    scenario)`` group are quarantined, that group's circuit opens and
    further failing sessions are *skipped* instead of re-run.  Either
    way the accounting identity ``expected == completed + quarantined
    + skipped`` is exact.
    """
    from ..chaos import (
        RECOVERY_ATTEMPT_BASE,
        ChaosPlan,
        CircuitBreaker,
        chaos_payload,
        get_chaos_scenario,
    )
    from ..experiments.parallel import run_specs

    population = SessionPopulation(config)
    batches = population.batches(batch_size)
    order = list(range(len(batches)))
    if batch_order is not None:
        if sorted(batch_order) != order:
            raise ValueError(
                f"batch_order must permute range({len(batches)}): {batch_order!r}"
            )
        order = list(batch_order)

    if isinstance(chaos, str):
        chaos = get_chaos_scenario(chaos)
    chaos_dict = (
        chaos_payload(chaos, seed=chaos_seed)
        if isinstance(chaos, ChaosPlan)
        else None
    )

    aggregator = FleetAggregator(compression)
    batch_stats: List[dict] = []
    failures: List[dict] = []
    hedge_stats = {"issued": 0, "won": 0}

    # Batches already in the checkpoint are restored, not re-run.  Keys
    # are namespaced by population fingerprint so a checkpoint directory
    # shared between fleets (e.g. a main sweep and its cross-check
    # sub-populations) can never hand a batch to the wrong population.
    fingerprint = config.fingerprint()
    to_run: List[Tuple[str, int]] = []
    for index in order:
        start, stop = batches[index]
        job_id = batch_job_id(start, stop)
        snapshot = (
            checkpoint.get(f"{fingerprint}:{job_id}")
            if checkpoint is not None
            else None
        )
        if snapshot is not None:
            aggregator.merge(FleetAggregator.from_dict(snapshot))
            batch_stats.append(
                {
                    "id": job_id,
                    "wall_s": 0.0,
                    "queue_s": 0.0,
                    "sessions": stop - start,
                    "source": "checkpoint",
                }
            )
        else:
            to_run.append((job_id, config.seed))

    def fold(job) -> None:
        hedge_stats["issued"] += job.hedges
        hedge_stats["won"] += 1 if job.hedge_won else 0
        if job.error is None:
            # Integrity gate: never merge bytes whose recorded digest
            # disagrees with their content (corruption in transit).
            data, integrity_error = _verified_batch_data(job)
            if integrity_error is not None:
                job.error = integrity_error
                job.failure_kind = "corrupt"
        if job.error is not None:
            failures.append(
                {
                    "id": job.experiment_id,
                    "failure_kind": job.failure_kind,
                    "error": job.error,
                    "attempts": job.attempts,
                    "attempt_history": list(job.attempt_history),
                }
            )
            return
        batch_aggregate = FleetAggregator.from_dict(data["aggregate"])
        aggregator.merge(batch_aggregate)
        if checkpoint is not None:
            checkpoint.record(
                f"{fingerprint}:{job.experiment_id}", data["aggregate"]
            )
        stat = {
            "id": job.experiment_id,
            "wall_s": job.wall_s,
            "queue_s": job.queue_s,
            "sessions": data.get("sessions", 0),
            "source": "cache" if job.cache_hit else "run",
        }
        batch_stats.append(stat)
        # Streaming: the merged sketch owns the state now.
        job.payload = None
        job.rendered = ""

    import os as _os

    shard_count = shards if shards is not None else (_os.cpu_count() or 1)
    shard_count = max(1, min(shard_count, len(to_run) or 1))
    # Keywords of every batch sweep below, main and recovery alike.  The
    # batches inherit the caller's fast-forward scope, so a fleet inside
    # an ``ext-fleet`` job runs its sessions with that job's setting.
    sweep_kwargs = dict(
        cache=cache,
        refresh=refresh,
        timeout_s=timeout_s,
        run_kwargs={
            "population": config.to_dict(),
            "compression": compression,
        },
        fast_forward=fast_forward_default(),
        executor=execute_fleet_batch,
    )
    started = time.perf_counter()
    run_specs(
        to_run,
        jobs=shard_count,
        on_result=fold,
        retries=retries,
        backoff_s=backoff_s,
        chaos=chaos_dict,
        hedge=hedge,
        **sweep_kwargs,
    )

    # ------------------------------------------------------------------
    # Recovery: re-run failed batches in isolation, bisecting down to
    # session granularity.  Transient faults heal (the recovery chaos
    # channel uses attempt numbers no windowed spec can reach, and the
    # schedule is deterministic, so a healed digest is byte-identical);
    # deterministic failures converge on the exact poisoned session set.
    # ------------------------------------------------------------------
    quarantined: List[dict] = []
    skipped: List[dict] = []
    recovery_info: Optional[dict] = None
    if failures and quarantine:
        observed = [dict(entry) for entry in failures]
        breaker = CircuitBreaker(breaker_threshold)
        rerun_count = 0
        healed_sessions = 0

        def _merge_recovered(job, data: dict) -> None:
            nonlocal healed_sessions
            aggregator.merge(FleetAggregator.from_dict(data["aggregate"]))
            if checkpoint is not None:
                checkpoint.record(
                    f"{fingerprint}:{job.experiment_id}", data["aggregate"]
                )
            healed_sessions += int(data.get("sessions", 0))
            stat = {
                "id": job.experiment_id,
                "wall_s": job.wall_s,
                "queue_s": job.queue_s,
                "sessions": data.get("sessions", 0),
                "source": "recovery",
            }
            batch_stats.append(stat)

        def _rerun(start: int, stop: int, depth: int):
            """Re-run ``[start, stop)`` once, in-process, on the
            recovery chaos channel.  Returns ``(job, verified data or
            None)``."""
            nonlocal rerun_count
            rerun_count += 1
            results: List = []
            run_specs(
                [(batch_job_id(start, stop), config.seed)],
                jobs=1,
                on_result=results.append,
                retries=0,
                **sweep_kwargs,
                chaos=(
                    dict(
                        chaos_dict,
                        attempt_base=RECOVERY_ATTEMPT_BASE + depth,
                    )
                    if chaos_dict is not None
                    else None
                ),
            )
            job = results[0]
            if job.error is None:
                data, integrity_error = _verified_batch_data(job)
                if integrity_error is None:
                    return job, data
                job.error = integrity_error
                job.failure_kind = "corrupt"
            return job, None

        def _recover_range(start: int, stop: int, depth: int) -> None:
            if stop - start == 1:
                spec = population.spec(start)
                group = f"{spec.os_name}/{spec.scenario or 'healthy'}"
                if not breaker.allow(group):
                    breaker.skip(group)
                    skipped.append(
                        {
                            "index": start,
                            "group": group,
                            "reason": "circuit-open",
                        }
                    )
                    return
                job, data = _rerun(start, stop, depth)
                if data is not None:
                    _merge_recovered(job, data)
                    return
                breaker.record(group)
                quarantined.append(
                    {
                        "index": start,
                        "group": group,
                        "failure_kind": job.failure_kind,
                        "error": (job.error or "").strip()[-200:],
                    }
                )
                return
            job, data = _rerun(start, stop, depth)
            if data is not None:
                _merge_recovered(job, data)
                return
            mid = (start + stop) // 2
            _recover_range(start, mid, depth + 1)
            _recover_range(mid, stop, depth + 1)

        for entry in failures:
            start, stop = _parse_batch_id(entry["id"])
            _recover_range(start, stop, depth=0)
        failures = []
        recovery_info = {
            "observed_failures": observed,
            "reruns": rerun_count,
            "healed_sessions": healed_sessions,
            "breaker": breaker.to_dict(),
        }
    elif failures:
        # Quarantine disabled: the loss is still accounted, just at
        # batch granularity — every session of a failed batch is
        # recorded as skipped so the completeness identity holds.
        for entry in failures:
            start, stop = _parse_batch_id(entry["id"])
            for index in range(start, stop):
                spec = population.spec(index)
                skipped.append(
                    {
                        "index": index,
                        "group": f"{spec.os_name}/{spec.scenario or 'healthy'}",
                        "reason": "failed-batch",
                    }
                )

    makespan_s = time.perf_counter() - started
    if checkpoint is not None:
        checkpoint.flush()

    fleet = FleetResult(
        aggregate=aggregator,
        config=config,
        shards=shard_count,
        batch_size=batch_size,
        makespan_s=makespan_s,
        batches=batch_stats,
        failures=failures,
        quarantined=quarantined,
        skipped=skipped,
        recovery=recovery_info,
        chaos=(
            {
                "plan": chaos.name,
                "seed": int(chaos_seed),
                "kinds": list(chaos.kinds),
            }
            if chaos_dict is not None
            else None
        ),
        hedging=(dict(hedge_stats) if hedge else None),
    )
    fleet.metrics = _fleet_metrics(fleet).snapshot()
    if not fleet.complete or failures:
        log.warning(
            "fleet sweep incomplete: "
            f"{fleet.sessions_completed}/{fleet.sessions_expected} sessions "
            f"({len(failures)} failed batch(es), "
            f"{len(quarantined)} quarantined, {len(skipped)} skipped)"
        )
    return fleet
