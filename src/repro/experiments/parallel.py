"""Parallel experiment execution: job fan-out, cache, manifests.

The reproduction is naturally a *sweep*: every paper artifact is an
independent ``(experiment_id, seed)`` job, so the runner can fan jobs
out over a :class:`~concurrent.futures.ProcessPoolExecutor` without
changing any result — determinism is per-job (see
:mod:`repro.experiments.registry`), not per-process.  The contract this
module upholds:

* **Byte identity.**  For fixed seeds, ``run_specs(jobs=N)`` produces
  per-job payloads byte-identical to the sequential ``jobs=1`` path —
  parallelism and caching are pure scheduling, never semantics.
* **Deterministic ordering.**  Results are always delivered in
  submission order, whatever order workers finish in.
* **No swallowed failures.**  A job that raises, hangs past the
  watchdog, or loses its worker comes back as a :class:`JobResult`
  carrying the formatted traceback and a ``failure_kind``
  classification, so one bad experiment neither kills the sweep nor
  hides from the exit code.
* **No lost sweeps.**  A per-job wall-clock ``timeout_s`` watchdog
  bounds hangs (timed from the job's hand-off to an idle worker under a
  pool, a ``SIGALRM`` timer sequentially); transient pool failures are
  retried with exponential backoff on a fresh pool; Ctrl-C cancels
  outstanding work and raises :class:`SweepInterrupted` carrying every
  result completed so far, so the caller can still write its manifest.

:func:`execute_job` is the pool entry point; it is a module-level
function taking picklable arguments — the job's id and seed plus one
frozen :class:`JobOptions` (:class:`~repro.core.runcache.RunCache`
pickles as a path + version string) — as ``ProcessPoolExecutor``
requires.
"""

from __future__ import annotations

import math
import os
import signal
import threading
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

from ..chaos.engine import HEDGE_ATTEMPT_BASE, ChaosCrash, chaos_harness
from ..core.runcache import RunCache, code_version, variant_key
from ..core.serialize import cache_entry_to_dict, experiment_to_dict
from ..sim.engine import fast_forward_scope
from ..verify.checkpoint import Checkpointer, checkpoint_path
from .registry import EXPERIMENTS, run_experiment

__all__ = [
    "JobOptions",
    "JobResult",
    "SweepInterrupted",
    "execute_job",
    "job_variant",
    "run_specs",
]

#: ``JobResult.failure_kind`` values, and what each means for a sweep:
#: ``"error"`` — the experiment itself raised (deterministic; never
#: retried), ``"timeout"`` — the watchdog expired while the job ran
#: (treated as deterministic; not retried), ``"pool"`` — the worker or
#: pool failed before the job could report, or the job never got a
#: worker because every one was held by a hung job (transient; retried),
#: ``"corrupt"`` — the job reported, but its payload failed integrity
#: verification (the fleet fold's digest check; healed by quarantine
#: re-runs, not round retries), ``"interrupted"`` — the sweep was
#: cancelled before the job finished.
FAILURE_KINDS = ("error", "timeout", "pool", "corrupt", "interrupted")


class _JobTimeout(BaseException):
    """Sequential-watchdog alarm.

    Derives from ``BaseException`` so it escapes ``execute_job``'s
    ``except Exception`` capture and unwinds the hung experiment.
    """


class SweepInterrupted(KeyboardInterrupt):
    """Ctrl-C during a sweep; ``results`` holds one entry per submitted
    spec — completed jobs as-is, unfinished ones as ``"interrupted"``
    failure records — so callers can persist what finished."""

    def __init__(self, results: List["JobResult"]) -> None:
        super().__init__("experiment sweep interrupted")
        self.results = results


@dataclass(frozen=True)
class JobOptions:
    """Everything a job executor needs besides ``(id, seed)``.

    One value per sweep, built by :func:`run_specs` and handed to every
    job unchanged, except that each round stamps ``chaos`` with its
    attempt number.  Frozen and picklable, so pool rounds submit it to
    workers as is.
    """

    #: Result cache consulted and fed by the job (``None``: no caching).
    cache: Optional[RunCache] = None
    #: Re-execute even when a valid cache entry exists.
    refresh: bool = False
    #: Experiment keyword arguments; folded into the cache variant.
    run_kwargs: Optional[dict] = None
    #: Directory for crash-safe unit checkpoints (``None``: off).
    checkpoint_dir: Optional[str] = None
    #: Completed units per checkpoint write.
    checkpoint_interval: int = 1
    #: Observability request: ``{"trace", "metrics", "envelopes"}``.
    obs: Optional[dict] = None
    #: Idle fast-forward for kernels the job boots (``--no-fast-forward``).
    fast_forward: bool = True
    #: Harness-fault descriptor (:func:`repro.chaos.engine.chaos_payload`)
    #: stamped with the round's attempt.
    chaos: Optional[dict] = None


@dataclass
class JobResult:
    """Outcome of one ``(experiment_id, seed)`` job.

    Exactly one of two shapes: a completed run (``error is None``;
    ``rendered``/``checks``/``payload`` populated, from the cache or a
    fresh execution) or a failed one (``error`` holds the formatted
    traceback or watchdog message, ``failure_kind`` classifies it, and
    the artifacts are empty).  ``attempts`` counts executions including
    retries of transient pool failures.
    """

    experiment_id: str
    seed: int
    wall_s: float = 0.0
    cache_hit: bool = False
    rendered: str = ""
    checks: List[dict] = field(default_factory=list)
    payload: Optional[dict] = None
    error: Optional[str] = None
    failure_kind: Optional[str] = None
    attempts: int = 1
    #: Per-attempt classification, oldest first: ``"ok"`` for a clean
    #: round, otherwise the round's ``failure_kind``.  The last entry
    #: always matches the job's final state, so manifests can show
    #: *how* a job got here (e.g. ``["pool", "pool", "ok"]``).
    attempt_history: List[str] = field(default_factory=list)
    #: Speculative duplicates issued for this job by straggler hedging.
    hedges: int = 0
    #: Whether the delivered result came from a hedge duplicate rather
    #: than the primary submission (first result wins by index, so this
    #: is pure scheduling provenance — payloads are identical).
    hedge_won: bool = False
    #: Wall-clock seconds from the start of the job's pool round (for a
    #: hedge duplicate: its own submission) to worker pickup (0 for
    #: sequential runs); the manifest's queue-time breakdown.
    queue_s: float = 0.0
    #: ``time.perf_counter()`` at worker pickup (system-wide monotonic
    #: clock, so the submitting process can subtract its submit stamp).
    started_monotonic: float = 0.0
    #: Checkpoint snapshots written while this job ran.
    checkpoint_writes: int = 0
    #: Corrupt cache entries this job evicted while loading.
    cache_evictions: int = 0
    #: Chrome trace-event dict for this job (obs trace requested).
    trace: Optional[dict] = None
    #: Metrics snapshot for this job (obs metrics requested).
    metrics: Optional[dict] = None
    #: Stage-envelope snapshot for this job — attribution sketches,
    #: budget alerts and sampling counters (observed runs only; see
    #: :meth:`repro.obs.runtime.ObsSession.stage_snapshot`).
    stages: Optional[dict] = None

    def failed_checks(self) -> List[str]:
        return [c["name"] for c in self.checks if not c["passed"]]

    @property
    def failures(self) -> int:
        """Failed shape checks, plus one if the job itself failed."""
        return len(self.failed_checks()) + (1 if self.error else 0)


def _experiment_params(experiment_id: str):
    import inspect

    try:
        return inspect.signature(EXPERIMENTS[experiment_id]).parameters
    except (KeyError, ValueError, TypeError):
        return {}


def job_variant(experiment_id: str, run_kwargs: Optional[dict]) -> Tuple[dict, str]:
    """Filter run-time kwargs to what the experiment accepts, and derive
    the cache *variant* identifying that configuration.

    Experiments take different keyword sets (``fig2`` has no fault
    hooks; ``ext-faults`` does), so a sweep-wide ``--scenario`` must
    only reach the experiments that understand it — and only those jobs
    get a non-default variant.  A ``scenario`` kwarg contributes the
    *fault plan's* :meth:`~repro.faults.plan.FaultPlan.fingerprint`
    rather than its name: renaming a scenario does not invalidate
    cached runs, while changing its content — same name, different
    faults — always does.
    """
    if not run_kwargs:
        return {}, ""
    params = _experiment_params(experiment_id)
    takes_any = any(
        p.kind is p.VAR_KEYWORD for p in getattr(params, "values", lambda: [])()
    )
    accepted = {
        key: value
        for key, value in run_kwargs.items()
        if takes_any or key in params
    }
    if not accepted:
        return {}, ""
    parts: dict = {}
    for key, value in accepted.items():
        if key == "scenario" and isinstance(value, str) and value:
            from ..faults import get_scenario

            parts["fault-plan"] = get_scenario(value).fingerprint()
        else:
            parts[key] = value
    return accepted, variant_key(parts)


def execute_job(experiment_id: str, seed: int, options: JobOptions) -> JobResult:
    """Run one job, consulting and feeding the cache.

    The job runs inside :func:`~repro.sim.engine.fast_forward_scope`
    set from ``options.fast_forward``, so every kernel it boots takes
    that setting and the caller's scope is restored on return.
    Fast-forward is deliberately *not* part of the cache variant: the
    fast path is bit-identical to the slow one (enforced by the golden
    digests and ``tests/test_fastforward.py``), so either setting may
    serve the other's cached payload.

    ``options.chaos`` runs the job inside
    :func:`~repro.chaos.engine.chaos_harness`, which may crash or delay
    this worker or sabotage its artifact writes — deterministically per
    ``(job, attempt)``.  Chaos is not part of the cache variant either:
    a healed chaotic run is byte-identical to a clean one, so either may
    serve the other's entries.

    Cache discipline: a valid entry for ``(id, seed, code_version,
    variant)`` is served directly unless ``options.refresh`` forces
    re-execution; a fresh run (re)writes its entry.  The variant digests
    the job's ``run_kwargs``, with fault scenarios expanded to plan
    fingerprints (see :func:`job_variant`), so a healthy cached run is
    never served for a faulted request or vice versa.  Any exception
    from the experiment is captured into ``JobResult.error`` rather than
    propagated, so pool workers always return a result.

    With ``options.checkpoint_dir`` set, experiments that accept a
    ``checkpoint`` keyword get a :class:`~repro.verify.checkpoint.Checkpointer`
    pinned to this job's exact identity: a killed run resumes from its
    last snapshot, and a completed run discards it.

    ``options.obs`` opens an observability session around the
    execution and attaches the job-local Chrome trace, metrics snapshot
    and stage-envelope snapshot to the result.  ``envelopes`` is the
    :class:`~repro.obs.envelope.EnvelopeConfig` dict form (sample rate,
    stage budgets).  An observed job bypasses cache *reads* — a cached
    hit would yield no telemetry — but still writes its entry, which
    determinism makes harmless.
    """
    with fast_forward_scope(options.fast_forward), chaos_harness(
        options.chaos, f"{experiment_id}:{seed}"
    ):
        return _execute_job_inner(experiment_id, seed, options)


def _execute_job_inner(
    experiment_id: str, seed: int, options: JobOptions
) -> JobResult:
    """:func:`execute_job` without the scopes it enters (the real work)."""
    cache = options.cache
    started = time.perf_counter()
    kwargs, variant = job_variant(experiment_id, options.run_kwargs)
    obs = options.obs or {}
    want_obs = bool(
        obs.get("trace") or obs.get("metrics") or obs.get("envelopes")
    )
    # Sequential runs share one cache instance across jobs, so eviction
    # attribution must be a delta, not the instance total.
    evictions_before = cache.evictions if cache is not None else 0

    def _evictions() -> int:
        return (cache.evictions - evictions_before) if cache is not None else 0

    if cache is not None and not options.refresh and not want_obs:
        entry = cache.load(experiment_id, seed, variant)
        if entry is not None:
            return JobResult(
                experiment_id=experiment_id,
                seed=seed,
                wall_s=time.perf_counter() - started,
                started_monotonic=started,
                cache_hit=True,
                rendered=entry["rendered"],
                checks=entry["checks"],
                payload=entry["payload"],
            )
    checkpointer = None
    if options.checkpoint_dir is not None and "checkpoint" in _experiment_params(
        experiment_id
    ):
        checkpointer = Checkpointer(
            checkpoint_path(options.checkpoint_dir, experiment_id, seed, variant),
            identity={
                "experiment_id": experiment_id,
                "seed": seed,
                "code_version": code_version(),
                "variant": variant,
            },
            interval=options.checkpoint_interval,
        )
        kwargs = dict(kwargs, checkpoint=checkpointer)
    session = None
    if want_obs:
        from ..obs import runtime as obs_runtime

        session = obs_runtime.start_session(
            trace=bool(obs.get("trace")),
            metrics=bool(obs.get("metrics")),
            envelopes=obs.get("envelopes"),
        )
    try:
        result = run_experiment(experiment_id, seed=seed, **kwargs)
    except Exception:
        if checkpointer is not None:
            checkpointer.flush()  # keep partial progress for --resume
        from ..obs.logging import get_logger

        get_logger("repro.worker").warning(
            f"job {experiment_id} (seed {seed}) raised; returning error result"
        )
        return JobResult(
            experiment_id=experiment_id,
            seed=seed,
            wall_s=time.perf_counter() - started,
            started_monotonic=started,
            error=traceback.format_exc(),
            failure_kind="error",
            checkpoint_writes=checkpointer.writes if checkpointer else 0,
            cache_evictions=_evictions(),
        )
    finally:
        if session is not None:
            obs_runtime.stop_session()
    wall = time.perf_counter() - started
    trace_dict = None
    metrics_snapshot = None
    stages_snapshot = None
    if session is not None:
        if session.tracer is not None:
            from ..obs.perfetto import chrome_trace

            trace_dict = chrome_trace(
                session.tracer, label=f"{experiment_id}/seed{seed}"
            )
        metrics_snapshot = session.metrics_snapshot()
        stages_snapshot = session.stage_snapshot()
    if checkpointer is not None:
        checkpointer.discard()  # the finished run supersedes it
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
        experiment_id=experiment_id,
        seed=seed,
        wall_s=wall,
        started_monotonic=started,
        cache_hit=False,
        rendered=result.render(),
        checks=[
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in result.checks
        ],
        payload=experiment_to_dict(result),
        checkpoint_writes=checkpointer.writes if checkpointer else 0,
        cache_evictions=_evictions(),
        trace=trace_dict,
        metrics=metrics_snapshot,
        stages=stages_snapshot,
    )


def _hard_shutdown(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without joining hung workers.

    ``shutdown(wait=True)`` (and the context-manager exit) would block
    forever behind a worker stuck in a hung experiment, so after a
    watchdog expiry or Ctrl-C the workers are terminated outright.
    """
    # Snapshot the workers first: shutdown() drops the pool's table.
    processes = dict(getattr(pool, "_processes", None) or {})
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes.values():
        try:
            process.terminate()
        except Exception:
            pass
    for process in processes.values():
        try:
            process.join(timeout=1.0)
        except Exception:
            pass


#: A job executor: :func:`execute_job`, or a module-level substitute
#: with its signature (pool workers unpickle it by reference).
Executor = Callable[[str, int, JobOptions], JobResult]


def _sequential_round(
    indexed_specs: List[Tuple[int, Tuple[str, int]]],
    executor: Executor,
    options: JobOptions,
    timeout_s: Optional[float],
    resolve: Callable[[int, JobResult], None],
) -> None:
    """Run a round in-process, with a SIGALRM watchdog when available.

    The alarm is the only way to bound a hung experiment without a
    worker process to kill; where it cannot be armed (no SIGALRM on the
    platform, or not on the main thread) sequential jobs run unbounded,
    exactly as before.
    """
    use_alarm = (
        timeout_s is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )

    def _on_alarm(signum, frame):
        raise _JobTimeout()

    for index, (experiment_id, seed) in indexed_specs:
        previous_handler = None
        previous_timer = (0.0, 0.0)
        armed_at = 0.0
        if use_alarm:
            previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
            previous_timer = signal.setitimer(signal.ITIMER_REAL, timeout_s)
            armed_at = time.monotonic()
        started = time.perf_counter()
        try:
            job = executor(experiment_id, seed, options)
        except _JobTimeout:
            job = JobResult(
                experiment_id=experiment_id,
                seed=seed,
                wall_s=time.perf_counter() - started,
                error=(
                    f"watchdog: {experiment_id} (seed {seed}) exceeded "
                    f"{timeout_s:.1f}s and was abandoned"
                ),
                failure_kind="timeout",
            )
        except ChaosCrash:
            # Simulated hard worker death (chaos harness, sequential
            # path): same classification a broken pool would get —
            # transient, retryable.
            job = JobResult(
                experiment_id=experiment_id,
                seed=seed,
                wall_s=time.perf_counter() - started,
                error=(
                    f"chaos crash: {experiment_id} (seed {seed}) worker "
                    f"died before reporting"
                ),
                failure_kind="pool",
            )
        finally:
            if use_alarm:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous_handler)
                remaining, interval = previous_timer
                if remaining > 0.0:
                    # An outer ITIMER_REAL was pending when we armed
                    # ours; re-arm it with whatever time it has left.
                    # If it should already have fired, fire it almost
                    # immediately (setitimer(0) would *disarm* it).
                    elapsed = time.monotonic() - armed_at
                    signal.setitimer(
                        signal.ITIMER_REAL,
                        max(remaining - elapsed, 1e-6),
                        interval,
                    )
        resolve(index, job)


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation; robust for small n)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[min(position, len(ordered) - 1)]


#: Straggler hedging (``hedge=True``): once this many jobs of a round
#: have completed, a job out longer than ``HEDGE_FACTOR`` x their p95
#: wall time gets one speculative duplicate.
HEDGE_MIN_COMPLETED = 3
HEDGE_FACTOR = 1.5
#: How often the pool round wakes to run its watchdog and hedging.
POLL_S = 0.05


def _pool_round(
    indexed_specs: List[Tuple[int, Tuple[str, int]]],
    jobs: int,
    executor: Executor,
    options: JobOptions,
    timeout_s: Optional[float],
    resolve: Callable[[int, JobResult], None],
    hedge: bool,
) -> None:
    """Run a round on a fresh pool of ``jobs`` workers.

    At most ``jobs`` submissions are live (submitted, future not done),
    and the next pending spec goes out, in ``indexed_specs`` order, only
    when a slot frees.  Every submission therefore starts on an idle
    worker, so the watchdog, timed from submission, measures time spent
    in a worker and never time spent queued.  After ``timeout_s`` a
    submission that still cancels never started (a ``"pool"`` stall,
    retryable); one that refuses is a ``"timeout"`` and keeps its slot,
    because its worker is busy, until the worker is terminated with the
    pool at round end.  A spec whose ``submit()`` raises, or which is
    still pending when every slot holds a hung submission, is a
    ``"pool"`` failure too, retried on a fresh pool.

    With ``hedge``, once :data:`HEDGE_MIN_COMPLETED` jobs have finished,
    a job out longer than :data:`HEDGE_FACTOR` x p95 of the completed
    wall times gets one speculative duplicate, sent only when no spec
    is pending and a slot is free.  Whichever submission reports first
    is the job's result; the loser is cancelled, or terminated with the
    pool at round end if already running.  Because jobs are
    deterministic, primary and hedge payloads are identical — hedging
    can change wall-clock and scheduling provenance (``hedge_won``),
    never results or digests.  Under chaos, hedge duplicates draw from
    the :data:`~repro.chaos.engine.HEDGE_ATTEMPT_BASE` attempt channel,
    so a fault windowed to early attempts provably cannot fire on the
    hedge sent to heal it.  A job fails only when *all* its submissions
    are exhausted.

    ``queue_s`` is worker pickup minus the round's start for a primary,
    and minus the duplicate's own submission for a hedge.
    """
    hedge_options = options
    if hedge and options.chaos is not None:
        hedge_options = replace(
            options,
            chaos=dict(
                options.chaos,
                attempt=HEDGE_ATTEMPT_BASE + int(options.chaos.get("attempt", 0)),
            ),
        )

    pool = ProcessPoolExecutor(max_workers=jobs)
    round_started = time.perf_counter()
    spec_by_index = dict(indexed_specs)
    pending = deque(spec_by_index)
    live: dict = {}  # future -> (index, is_hedge, submit_stamp) until done
    open_futures: dict = {index: set() for index in spec_by_index}
    hung: set = set()  # live futures the watchdog gave up on
    hedged: set = set()
    unresolved = set(spec_by_index)
    completed_elapsed: List[float] = []

    def pool_failure(index: int, error: str) -> JobResult:
        experiment_id, seed = spec_by_index[index]
        return JobResult(
            experiment_id=experiment_id,
            seed=seed,
            error=error,
            failure_kind="pool",
        )

    def submit(index: int, is_hedge: bool) -> None:
        experiment_id, seed = spec_by_index[index]
        future = pool.submit(
            executor,
            experiment_id,
            seed,
            hedge_options if is_hedge else options,
        )
        live[future] = (index, is_hedge, time.perf_counter())
        open_futures[index].add(future)

    def settle(index: int, job: JobResult) -> None:
        job.hedges = int(index in hedged)
        resolve(index, job)
        unresolved.discard(index)
        for loser in open_futures[index]:
            loser.cancel()  # refused = running; terminated at round end
        open_futures[index] = set()

    def fail(index: int, failure: JobResult) -> None:
        if not open_futures[index]:  # else a sibling may still win
            settle(index, failure)

    try:
        while unresolved:
            while pending and len(live) < jobs:
                index = pending.popleft()
                try:
                    submit(index, False)
                except Exception:
                    fail(index, pool_failure(index, traceback.format_exc()))
            if pending and len(hung) >= jobs:
                for index in pending:
                    experiment_id, seed = spec_by_index[index]
                    fail(
                        index,
                        pool_failure(
                            index,
                            f"pool stall: {experiment_id} (seed {seed}) never "
                            f"got a worker (all {jobs} held by hung jobs)",
                        ),
                    )
                pending.clear()
            if (
                hedge
                and not pending
                and len(completed_elapsed) >= HEDGE_MIN_COMPLETED
            ):
                threshold = max(
                    HEDGE_FACTOR * _percentile(completed_elapsed, 0.95), 1e-3
                )
                now = time.perf_counter()
                for index in sorted(unresolved):
                    if len(live) >= jobs:
                        break
                    if index in hedged or not open_futures[index]:
                        continue
                    oldest = min(live[f][2] for f in open_futures[index])
                    if now - oldest <= threshold:
                        continue
                    hedged.add(index)
                    try:
                        submit(index, True)
                    except Exception:
                        # Pool broken mid-round; outstanding futures
                        # will surface it, stop hedging into the wreck.
                        pass
            if not unresolved:
                break
            done, _ = futures_wait(
                live, timeout=POLL_S, return_when=FIRST_COMPLETED
            )
            now = time.perf_counter()
            for future in done:
                index, is_hedge, stamp = live.pop(future)
                hung.discard(future)
                if future not in open_futures[index]:
                    continue  # a settled job's loser, or timed out: slot freed
                open_futures[index].discard(future)
                try:
                    job = future.result(0)
                except Exception:
                    # The worker process died (OOM, BrokenProcessPool, an
                    # unpicklable result) before the job could report.
                    fail(index, pool_failure(index, traceback.format_exc()))
                    continue
                if job.started_monotonic:
                    # perf_counter is system-wide monotonic, so the
                    # worker's pickup stamp is comparable to ours.
                    queued_from = stamp if is_hedge else round_started
                    job.queue_s = max(0.0, job.started_monotonic - queued_from)
                job.hedge_won = is_hedge
                completed_elapsed.append(now - stamp)
                settle(index, job)
            if timeout_s is None:
                continue
            for future, (index, _, stamp) in list(live.items()):
                if future not in open_futures[index]:
                    continue  # already timed out, or a settled job's loser
                if now - stamp <= timeout_s:
                    continue
                open_futures[index].discard(future)
                experiment_id, seed = spec_by_index[index]
                if future.cancel():
                    failure = pool_failure(
                        index,
                        f"pool stall: {experiment_id} (seed {seed}) never "
                        f"started within {timeout_s:.1f}s (workers occupied)",
                    )
                else:
                    hung.add(future)
                    failure = JobResult(
                        experiment_id=experiment_id,
                        seed=seed,
                        wall_s=float(timeout_s),
                        error=(
                            f"watchdog: {experiment_id} (seed {seed}) "
                            f"exceeded {timeout_s:.1f}s in a worker; "
                            f"worker terminated"
                        ),
                        failure_kind="timeout",
                    )
                fail(index, failure)
    except BaseException:
        _hard_shutdown(pool)
        raise
    running = [f for f in live if not f.done() and not f.cancel()]
    if running:
        _hard_shutdown(pool)
    else:
        pool.shutdown(wait=True)


def run_specs(
    specs: Sequence[Tuple[str, int]],
    *,
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
    refresh: bool = False,
    on_result: Optional[Callable[[JobResult], None]] = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_s: float = 1.0,
    sleep: Callable[[float], None] = time.sleep,
    run_kwargs: Optional[dict] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_interval: int = 1,
    obs: Optional[dict] = None,
    fast_forward: bool = True,
    executor: Optional[Executor] = None,
    chaos: Optional[dict] = None,
    hedge: bool = False,
) -> List[JobResult]:
    """Execute an explicit ``(experiment_id, seed)`` job list.

    ``jobs`` is the worker count (default ``os.cpu_count()``, clamped
    to the number of jobs; ``1`` runs everything sequentially in this
    process).  A sweep over ``ids × seeds`` passes the id-major list
    ``[(id, seed) for id in ids for seed in seeds]``; ``--resume``
    passes whatever jobs a partial sweep left over.

    ``timeout_s`` is the per-job wall-clock watchdog; ``retries`` is
    how many extra rounds transient (``failure_kind == "pool"``)
    failures get, on a fresh pool, after ``backoff_s * 2**(round-1)``
    seconds of backoff (``sleep`` is injectable for tests).  Results
    are returned — and ``on_result`` streamed — in submission order;
    a job awaiting retry holds back delivery of later results so the
    order never lies.

    Raises :class:`SweepInterrupted` on Ctrl-C, after cancelling
    outstanding work; the exception carries the full results list with
    unfinished jobs marked ``failure_kind="interrupted"``.

    ``cache``, ``refresh``, ``run_kwargs``, ``checkpoint_dir``,
    ``checkpoint_interval``, ``obs`` and ``fast_forward`` become one
    :class:`JobOptions` handed to every job; their effect is documented
    on :func:`execute_job`.

    ``executor`` substitutes a different module-level job function with
    :func:`execute_job`'s ``(id, seed, options)`` signature (default:
    :func:`execute_job`, looked up when the sweep starts).
    This is how the fleet layer (:mod:`repro.fleet.shards`) schedules
    session *batches* through the same work-stealing pool, watchdog,
    retry and Ctrl-C machinery as experiment sweeps.

    ``chaos`` is a harness-fault descriptor
    (:func:`repro.chaos.engine.chaos_payload`); each round stamps it
    with its attempt number (plus the payload's ``attempt_base``) so
    workers draw their fault schedule from the right ``(job, attempt)``
    stream.  ``hedge`` enables straggler hedging on pool rounds: a job
    outstanding past 1.5 x p95 of completed wall times gets one
    speculative duplicate on a free worker, first result winning by
    index (see :func:`_pool_round`); it is ignored when ``jobs == 1``.
    """
    specs = list(specs)
    options = JobOptions(
        cache=cache,
        refresh=refresh,
        run_kwargs=run_kwargs,
        checkpoint_dir=checkpoint_dir,
        checkpoint_interval=checkpoint_interval,
        obs=obs,
        fast_forward=fast_forward,
    )
    if executor is None:
        executor = execute_job
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(jobs, len(specs) or 1))

    results: List[Optional[JobResult]] = [None] * len(specs)
    final: List[bool] = [False] * len(specs)
    history: List[List[str]] = [[] for _ in specs]
    delivered = 0

    def flush() -> None:
        nonlocal delivered
        while delivered < len(specs) and final[delivered]:
            if on_result is not None:
                on_result(results[delivered])
            delivered += 1

    try:
        for attempt in range(retries + 1):
            pending = [i for i in range(len(specs)) if not final[i]]
            if not pending:
                break
            if attempt:
                sleep(backoff_s * 2 ** (attempt - 1))
            retry_allowed = attempt < retries

            def resolve(index: int, job: JobResult, _attempt=attempt,
                        _retry_allowed=retry_allowed) -> None:
                job.attempts = _attempt + 1
                history[index].append(job.failure_kind or "ok")
                job.attempt_history = list(history[index])
                results[index] = job
                final[index] = not (
                    job.failure_kind == "pool" and _retry_allowed
                )
                flush()

            round_options = options
            if chaos is not None:
                round_options = replace(
                    options,
                    chaos=dict(
                        chaos,
                        attempt=int(chaos.get("attempt_base", 0)) + attempt,
                    ),
                )
            indexed = [(i, specs[i]) for i in pending]
            if jobs == 1:
                _sequential_round(
                    indexed, executor, round_options, timeout_s, resolve
                )
            else:
                _pool_round(
                    indexed,
                    min(jobs, len(indexed)),
                    executor,
                    round_options,
                    timeout_s,
                    resolve,
                    hedge,
                )
    except KeyboardInterrupt:
        snapshot: List[JobResult] = []
        for index, (experiment_id, seed) in enumerate(specs):
            job = results[index]
            if job is None:
                job = JobResult(
                    experiment_id=experiment_id,
                    seed=seed,
                    error="interrupted (Ctrl-C) before this job finished",
                    failure_kind="interrupted",
                )
            snapshot.append(job)
        raise SweepInterrupted(snapshot) from None

    return list(results)

