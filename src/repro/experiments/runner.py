"""Command-line experiment runner.

    python -m repro.experiments                  # run everything, cached
    python -m repro.experiments fig7 table1
    repro-experiments --list
    repro-experiments --jobs 4 --save out/       # parallel sweep + manifest
    repro-experiments --seed 0,1,2 --no-cache    # seed sweep, forced re-run
    repro-experiments --timeout 120 --retries 2  # hardened long sweep
    repro-experiments --resume out/manifest.json # re-run only missing/failed
    repro-experiments --strict-invariants        # fail (exit 3) on any
                                                 # measurement-integrity breach
    repro-experiments --scenario degraded        # sweep under a fault plan
    repro-experiments --checkpoint-dir ck/       # crash-safe long runs
    repro-experiments run fig7 --trace-out t.json --metrics-out m.json
                                                 # Perfetto trace + metrics
    repro-experiments stats out/manifest.json    # telemetry from a sweep
    repro-experiments fleet-report out/          # fleet percentiles and
                                                 # capacity plan (ext-fleet)
    repro-experiments ext-fleet --chaos flaky-crash --hedge
                                                 # chaos-hardened fleet sweep
    repro-experiments ext-fleet --strict-complete
                                                 # exit 4 if any fleet sweep
                                                 # is (exactly-accounted)
                                                 # partial

See ``docs/running-experiments.md`` for the full CLI reference and
``docs/observability.md`` for the trace/metrics outputs.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..core.atomicio import atomic_write_text
from ..core.runcache import RunCache, code_version
from ..core.serialize import (
    load_json,
    manifest_from_dict,
    manifest_to_dict,
    metrics_to_dict,
    read_manifest,
    save_json,
)
from ..obs import (
    LEVELS,
    STAGES,
    EnvelopeConfig,
    MetricsRegistry,
    get_logger,
    merge_chrome_traces,
    merge_snapshots,
    merge_stage_snapshots,
    prometheus_text,
    set_level,
)
from ..sim.engine import fast_forward_scope
from ..verify.invariants import check_payload
from .parallel import JobResult, SweepInterrupted, run_specs
from .registry import EXPERIMENTS, TITLES

__all__ = ["main"]

log = get_logger("repro.runner")

#: Exit code for an interrupted sweep (shell convention: 128 + SIGINT).
EXIT_INTERRUPTED = 130

#: Reserved exit code: a measurement-integrity invariant failed (under
#: ``--strict-invariants``, or in ``python -m repro.verify.integrity``).
#: Distinct from 1 (experiment errors / shape-check failures) so CI can
#: tell "the system under test regressed" from "the measurement itself
#: cannot be trusted".
EXIT_INVARIANT = 3

#: Reserved exit code: a fleet sweep finished *incomplete* — sessions
#: were quarantined or skipped, so the merged digest is stamped partial
#: — and ``--strict-complete`` was set.  Distinct from 1 (errors) and 3
#: (integrity): the measurements that exist are trustworthy, there are
#: just exactly-accounted holes in coverage.
EXIT_INCOMPLETE = 4


class _UsageError(Exception):
    """A bad command line: :func:`main` logs the message and exits 2.
    Every check raising it runs before anything is created or run."""


#: Numeric flag bounds: flag -> (rule, test).  An unset flag (``None``)
#: passes; a set one must be finite and pass its test.
_BOUNDS = {
    "--retries": (">= 0", lambda value: value >= 0),
    "--backoff": (">= 0", lambda value: value >= 0),
    "--timeout": ("positive", lambda value: value > 0),
    "--checkpoint-interval": (">= 1", lambda value: value >= 1),
    "--packets": (">= 1", lambda value: value >= 1),
    "--stage-sample-rate": ("in [0, 1]", EnvelopeConfig.valid_sample_rate),
}

Spec = Tuple[str, int]


@dataclass(frozen=True)
class SweepPlan:
    """What one invocation runs, settled by :func:`_plan` before any job
    starts.  Under ``--resume`` the ids, seeds and save dir default to
    the resumed manifest's, and ``run_kwargs`` is its run kwargs
    overlaid with every one given on the command line."""

    ids: Tuple[str, ...]
    seeds: Tuple[int, ...]
    run_kwargs: Optional[dict]
    #: The id-major ``ids x seeds`` matrix, in manifest order.
    all_specs: Tuple[Spec, ...]
    #: Entries kept verbatim (``resumed: true``) from the resumed manifest.
    preserved: Dict[Spec, dict]
    #: ``all_specs`` minus ``preserved``: the jobs to run.
    specs: Tuple[Spec, ...]
    save_dir: Optional[Path]
    #: The resumed manifest's directory, which holds the preserved archives.
    resume_dir: Optional[Path]
    cache: Optional[RunCache]
    jobs: int
    obs: Optional[dict]


class _Sweep(NamedTuple):
    results: List[JobResult]
    entries: List[dict]
    interrupted: bool
    makespan_s: float
    probes: Optional[List[dict]]


def _parse_seeds(text: str) -> List[int]:
    """``"0,1,2"`` → ``[0, 1, 2]`` (order kept, duplicates dropped)."""
    try:
        seeds = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        seeds = []
    if not seeds:
        raise _UsageError(f"invalid --seed value: {text!r}")
    return list(dict.fromkeys(seeds))


def _normalize_id(experiment_id: str) -> str:
    """Accept zero-padded spellings (``fig07`` → ``fig7``)."""
    if experiment_id in EXPERIMENTS:
        return experiment_id
    match = re.fullmatch(r"(\D+)0+(\d+)", experiment_id)
    if match:
        candidate = match.group(1) + match.group(2)
        if candidate in EXPERIMENTS:
            return candidate
    return experiment_id


def _format_check(check: dict) -> str:
    status = "PASS" if check["passed"] else "FAIL"
    detail = f" — {check['detail']}" if check["detail"] else ""
    return f"[{status}] {check['name']}{detail}"


def _job_completed(entry: dict, save_dir: Path) -> bool:
    """A manifest entry needs no re-run: it finished, and its archive
    (when one was recorded) is still on disk."""
    if entry.get("error") is not None:
        return False
    saved = entry.get("saved")
    if saved is not None and not (save_dir / saved).exists():
        return False
    return True


def _cache_status(job: JobResult) -> str:
    if job.error is not None:
        return "error"
    return "hit" if job.cache_hit else "miss"


def _violations(reports) -> List[dict]:
    """Every violation of the failed reports, as manifest records."""
    return [v.to_dict() for r in reports if r.status == "failed" for v in r.violations]


def _entry_from_job(job: JobResult, saved: Optional[str]) -> dict:
    entry = {
        "id": job.experiment_id,
        "seed": job.seed,
        "wall_s": job.wall_s,
        "queue_s": job.queue_s,
        "cache_hit": job.cache_hit,
        "cache_status": _cache_status(job),
        "checkpoint_writes": job.checkpoint_writes,
        "failed_checks": job.failed_checks(),
        "error": job.error,
        "failure_kind": job.failure_kind,
        "attempts": job.attempts,
        "attempt_history": list(job.attempt_history),
        "resumed": False,
        "saved": saved,
    }
    if job.hedges:
        entry["hedges"] = job.hedges
        entry["hedge_won"] = job.hedge_won
    # Surface injected-fault evidence (ext-faults) into the sweep
    # record, so a manifest alone shows what degradation ran.
    data = (job.payload or {}).get("data") or {}
    if isinstance(data, dict) and "injected_faults" in data:
        entry["faults"] = data["injected_faults"]
    # Surface fleet provenance (ext-fleet) the same way: the manifest
    # records the merged-sketch digest and per-group percentiles, while
    # the raw sketches stay in the archived payload, and the sweep's
    # host timing, which the payload does not hold.
    if isinstance(data, dict) and "fleet" in data:
        from ..fleet.report import manifest_fleet_summary

        entry["fleet"] = manifest_fleet_summary(data["fleet"], job.host)
    # Payload invariants run on every completed job (they are cheap):
    # the manifest records what passed, and any violation in full.
    if job.payload is not None:
        reports = check_payload(job.payload)
        entry["invariants"] = {
            "passed": [r.name for r in reports if r.status == "passed"],
            "failed": [r.name for r in reports if r.status == "failed"],
        }
        violations = _violations(reports)
        if violations:
            entry["invariant_violations"] = violations
    return entry


def _harness_metrics(
    results: List[JobResult],
    entries: List[dict],
    *,
    workers: int,
    makespan_s: float,
) -> MetricsRegistry:
    """Fold one sweep's job outcomes into harness-side metrics.

    These complement the sim-side metrics the workers collect: cache
    behaviour, retries, timeouts, checkpoint writes, invariant outcomes
    and the wall/queue-time distributions of the pool itself.
    """
    registry = MetricsRegistry()
    jobs_total = registry.counter(
        "repro_harness_jobs_total", "Sweep jobs by outcome."
    )
    cache_reads = registry.counter(
        "repro_harness_cache_reads_total", "Result-cache reads by outcome."
    )
    cache_evictions = registry.counter(
        "repro_harness_cache_evictions_total",
        "Corrupt result-cache entries evicted during loads.",
    )
    retries = registry.counter(
        "repro_harness_retries_total",
        "Extra execution attempts after transient pool failures.",
    )
    attempts = registry.counter(
        "repro_harness_attempts_total",
        "Per-job execution attempts by outcome kind ('ok' or a failure kind).",
    )
    hedges = registry.counter(
        "repro_harness_hedges_total",
        "Speculative straggler duplicates by outcome.",
    )
    timeouts = registry.counter(
        "repro_harness_timeouts_total", "Jobs abandoned by the watchdog."
    )
    checkpoint_writes = registry.counter(
        "repro_harness_checkpoint_writes_total",
        "Crash-safe checkpoint snapshots written.",
    )
    invariant_checks = registry.counter(
        "repro_harness_invariant_checks_total",
        "Measurement-integrity invariant outcomes on job payloads.",
    )
    wall_hist = registry.histogram(
        "repro_harness_job_wall_seconds", "Per-job wall time."
    )
    queue_hist = registry.histogram(
        "repro_harness_job_queue_seconds",
        "Per-job wait between pool submission and worker pickup.",
    )
    registry.gauge(
        "repro_harness_makespan_seconds", "Wall time of the whole sweep."
    ).set(makespan_s)
    registry.gauge(
        "repro_harness_workers", "Worker processes used for the sweep."
    ).set(workers)

    for job in results:
        jobs_total.inc(status=job.failure_kind or "completed")
        wall_hist.observe(job.wall_s)
        queue_hist.observe(job.queue_s)
        if job.error is None:
            cache_reads.inc(outcome=_cache_status(job))
        if job.cache_evictions:
            cache_evictions.inc(job.cache_evictions)
        if job.attempts > 1:
            retries.inc(job.attempts - 1)
        for kind in job.attempt_history or [job.failure_kind or "ok"]:
            attempts.inc(kind=kind)
        if job.hedges:
            hedges.inc(job.hedges, outcome="issued")
            if job.hedge_won:
                hedges.inc(outcome="won")
        if job.failure_kind == "timeout":
            timeouts.inc()
        if job.checkpoint_writes:
            checkpoint_writes.inc(job.checkpoint_writes)
    for entry in entries:
        invariants = entry.get("invariants") or {}
        for outcome in ("passed", "failed"):
            count = len(invariants.get(outcome, ()))
            if count:
                invariant_checks.inc(count, outcome=outcome)
    if results and makespan_s > 0 and workers > 0:
        busy = sum(job.wall_s for job in results)
        registry.gauge(
            "repro_harness_worker_utilization",
            "sum(job wall time) / (workers * sweep makespan), 0..1.",
        ).set(min(1.0, busy / (workers * makespan_s)))
    return registry


def _strict_probe_matrix(scenario: Optional[str], seed: int) -> List[dict]:
    """The ``--strict-invariants`` probe pass: every personality under
    the empty fault plan, plus the sweep's active scenario if any.
    Returns manifest-ready records (one per probe)."""
    from ..verify.invariants import InvariantChecker, summarize_reports
    from ..verify.probe import PERSONALITIES, gather_probe_evidence

    checker = InvariantChecker()
    records: List[dict] = []
    scenarios: List[Optional[str]] = [None]
    if scenario:
        scenarios.append(scenario)
    for os_name in PERSONALITIES:
        for probe_scenario in scenarios:
            reports = checker.check(
                gather_probe_evidence(os_name, seed=seed, scenario=probe_scenario)
            )
            record = {
                "os": os_name,
                "scenario": probe_scenario or "",
                "summary": summarize_reports(reports),
            }
            violations = _violations(reports)
            if violations:
                record["violations"] = violations
            records.append(record)
    return records


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the tables and figures of 'Using Latency to Evaluate "
            "Interactive System Performance' (OSDI '96)."
        ),
    )
    parser.add_argument(
        "ids",
        nargs="*",
        help="experiment ids to run (default: all)",
    )
    parser.add_argument(
        "--seed",
        metavar="N[,N...]",
        help="master RNG seed(s), comma-separated (default: 0)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "--checks-only",
        action="store_true",
        help="print only the shape-check lines",
    )
    parser.add_argument(
        "--save",
        metavar="DIR",
        help=(
            "archive each experiment's full result as JSON into DIR, plus a "
            "manifest.json describing the whole run"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        help=(
            "worker processes for the sweep (default: CPU count; 1 runs "
            "sequentially in-process)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help=(
            "result-cache directory (default: $XDG_CACHE_HOME/repro or "
            "~/.cache/repro)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the result cache",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="re-run every experiment, updating its cache entry",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help=(
            "per-experiment wall-clock watchdog; a job running longer is "
            "recorded as a timeout failure instead of hanging the sweep"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "extra rounds for transient pool failures (lost workers), on a "
            "fresh pool with exponential backoff (default: 0)"
        ),
    )
    parser.add_argument(
        "--backoff",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="base retry backoff; round k waits backoff * 2**(k-1) (default: 1)",
    )
    parser.add_argument(
        "--resume",
        metavar="MANIFEST",
        help=(
            "path to a previous sweep's manifest.json (or its directory); "
            "re-runs only the jobs that failed or are missing, preserving "
            "completed results, and writes a merged manifest"
        ),
    )
    parser.add_argument(
        "--scenario",
        metavar="NAME",
        help=(
            "run fault-aware experiments under this named fault scenario; "
            "cached results are keyed by the plan's content fingerprint, so "
            "healthy and faulted runs never serve each other"
        ),
    )
    parser.add_argument(
        "--packets",
        type=int,
        metavar="N",
        help=(
            "burst size for packet-driven experiments (ext-network); "
            "enters the cache variant like --scenario, so different "
            "burst sizes never serve each other's cached results"
        ),
    )
    parser.add_argument(
        "--chaos",
        metavar="NAME",
        help=(
            "inject a named deterministic harness-fault scenario (worker "
            "crashes, hangs, torn writes, poisoned sessions ...) into "
            "chaos-aware experiments; see docs/chaos.md for the scenario "
            "vocabulary and the heal-or-account contract"
        ),
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        metavar="N",
        help=(
            "seed for the chaos schedule; the same (plan, seed) replays "
            "the exact same failures (default: 0)"
        ),
    )
    parser.add_argument(
        "--hedge",
        action="store_true",
        help=(
            "enable straggler hedging in fleet sweeps: once three batches "
            "have finished, re-issue a batch outstanding past 1.5x their "
            "p95 wall time on a free worker and take whichever copy "
            "finishes first"
        ),
    )
    parser.add_argument(
        "--strict-complete",
        action="store_true",
        help=(
            "require every fleet sweep in the run to be 100%% complete; an "
            "incomplete-but-accounted sweep (quarantined or skipped "
            f"sessions) exits {EXIT_INCOMPLETE}"
        ),
    )
    parser.add_argument(
        "--strict-invariants",
        action="store_true",
        help=(
            "after the sweep, run the measurement-integrity probe matrix and "
            f"exit {EXIT_INVARIANT} if any invariant fails (also applied to "
            "each job's archived payload)"
        ),
    )
    parser.add_argument(
        "--no-fast-forward",
        action="store_true",
        help=(
            "disable the idle fast-forward simulation optimisation; results "
            "are bit-identical either way (this flag exists for A/B "
            "verification and wall-time comparison, see docs/performance.md)"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help=(
            "write crash-safe unit checkpoints for long experiments here; a "
            "killed sweep re-run with the same arguments resumes from the "
            "last snapshot with byte-identical results"
        ),
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=1,
        metavar="N",
        help="completed units per checkpoint write (default: 1)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help=(
            "write a merged Chrome trace-event JSON file (loadable in "
            "Perfetto / chrome://tracing) covering every job in the sweep"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        help=(
            "write the merged sim+harness metrics snapshot; '.prom' files "
            "get Prometheus text format, anything else JSON"
        ),
    )
    parser.add_argument(
        "--stage-sample-rate",
        type=float,
        metavar="RATE",
        help=(
            "fraction of input events to carry full stage envelopes for "
            "(0..1; default 1 when observability is on).  Sampling draws "
            "from a dedicated forked RNG stream, so payloads and digests "
            "(golden and fleet) are byte-identical at every rate; only a "
            "trace's stage tracks follow the sample"
        ),
    )
    parser.add_argument(
        "--stage-budget",
        action="append",
        metavar="STAGE=MS",
        help=(
            "latency budget for one pipeline stage (e.g. handler=50); an "
            "event whose stage exceeds it emits a threshold alert into "
            "the manifest.  Repeatable; stages: " + ", ".join(STAGES)
        ),
    )
    parser.add_argument(
        "--log-level",
        choices=sorted(LEVELS, key=LEVELS.get),
        default="info",
        help="minimum severity for runner/worker log lines (default: info)",
    )
    return parser


def _stage_budgets(specs: Optional[List[str]]) -> Dict[str, float]:
    """``--stage-budget`` values (``STAGE=MS``) -> ``{stage: ms}``."""
    budgets: Dict[str, float] = {}
    for spec in specs or []:
        stage, _, millis = spec.partition("=")
        try:
            budget_ms = float(millis)
        except ValueError:
            budget_ms = math.nan
        if not EnvelopeConfig.valid_budget(stage, budget_ms):
            raise _UsageError(
                f"invalid --stage-budget {spec!r}; expected STAGE=MS with "
                f"STAGE one of: {', '.join(STAGES)} and MS a positive, "
                f"finite number"
            )
        budgets[stage] = budget_ms
    return budgets


def _plan(args: argparse.Namespace) -> SweepPlan:
    """Check the command line and settle the sweep it asks for.

    Raises :class:`_UsageError` on the first bad value.  Nothing is
    created before the last check: the cache, built last, hashes the
    code, and :func:`_execute` makes the save dir.
    """
    from ..chaos import chaos_scenario_names
    from ..faults import scenario_names

    for flag, (rule, holds) in _BOUNDS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and not (math.isfinite(value) and holds(value)):
            finite = "" if math.isfinite(value) else "finite and "
            raise _UsageError(f"{flag} must be {finite}{rule}, got {value}")
    budgets = _stage_budgets(args.stage_budget)
    for flag, kind, name, known in (
        ("--scenario", "scenario", args.scenario, scenario_names()),
        ("--chaos", "chaos scenario", args.chaos, chaos_scenario_names()),
    ):
        if name is not None and name not in known:
            raise _UsageError(
                f"{flag}: unknown {kind} {name!r}; known: {', '.join(known)}"
            )
    resumed: dict = {}
    resume_dir: Optional[Path] = None
    if args.resume:
        try:
            path, document = read_manifest(args.resume)
            resumed = manifest_from_dict(document)
        except (OSError, ValueError) as exc:
            raise _UsageError(
                f"--resume: cannot resume from {args.resume}: {exc}"
            ) from None
        resume_dir = path.parent
    if args.seed is not None:
        seeds = _parse_seeds(args.seed)
    else:
        seeds = [int(seed) for seed in resumed.get("seeds", [0])]
    ids = [_normalize_id(experiment_id) for experiment_id in args.ids]
    ids = ids or list(resumed.get("ids", EXPERIMENTS))
    unknown = [experiment_id for experiment_id in ids if experiment_id not in EXPERIMENTS]
    if unknown:
        raise _UsageError(f"unknown experiment ids: {', '.join(unknown)}")

    # Resumed jobs run under the configuration the preserved ones ran
    # under, or the merged manifest would mix, say, healthy and faulted
    # results: the manifest's run kwargs, overlaid with every one given
    # on the command line (--chaos-seed follows --chaos).  Scenario,
    # packets and chaos enter the cache variant, so runs under other
    # settings never serve each other's cache entries.
    given = {
        "scenario": args.scenario,
        "packets": args.packets,
        "chaos": args.chaos,
        "chaos_seed": args.chaos_seed if args.chaos is not None else None,
        "hedge": args.hedge or None,
    }
    run_kwargs = dict(resumed.get("run_kwargs") or {})
    run_kwargs.update((key, value) for key, value in given.items() if value is not None)

    # Without --resume every (id, seed) job runs; with it, only those the
    # manifest lacks or records as failed, and the rest are kept verbatim.
    all_specs = tuple((experiment_id, seed) for experiment_id in ids for seed in seeds)
    preserved: Dict[Spec, dict] = {}
    for entry in resumed.get("experiments", ()):
        key = (entry["id"], int(entry["seed"]))
        if key in all_specs and _job_completed(entry, resume_dir):
            preserved[key] = dict(entry, resumed=True)
    specs = tuple(spec for spec in all_specs if spec not in preserved)
    if args.resume:
        log.info(f"resuming: {len(preserved)} job(s) preserved, {len(specs)} to run")
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)

    # Stage flags force an observability session even without trace or
    # metrics outputs: budgets and sampling act on the envelope layer.
    stage_flags = args.stage_sample_rate is not None or budgets
    obs: Optional[dict] = None
    if args.trace_out or args.metrics_out or stage_flags:
        obs = {"trace": bool(args.trace_out), "metrics": bool(args.metrics_out)}
        if stage_flags:
            rate = 1.0 if args.stage_sample_rate is None else args.stage_sample_rate
            obs["envelopes"] = {
                "enabled": True, "sample_rate": rate, "budgets_ms": budgets
            }
    return SweepPlan(
        ids=tuple(ids),
        seeds=tuple(seeds),
        run_kwargs=run_kwargs or None,
        all_specs=all_specs,
        preserved=preserved,
        specs=specs,
        # Resumed archives belong next to the manifest they complete.
        save_dir=Path(args.save) if args.save else resume_dir,
        resume_dir=resume_dir,
        cache=None if args.no_cache else RunCache(args.cache_dir),
        jobs=max(1, min(jobs, len(specs) or 1)),
        obs=obs,
    )


def _execute(plan: SweepPlan, args: argparse.Namespace) -> _Sweep:
    """Run the plan's jobs, streaming each report and archive as it
    lands, then (under ``--strict-invariants``) the probe matrix.  A
    Ctrl-C keeps what finished, for a partial manifest."""
    save_dir, resume_dir = plan.save_dir, plan.resume_dir
    if save_dir is not None:
        save_dir.mkdir(parents=True, exist_ok=True)
        # Resuming into another directory: the new manifest names the
        # preserved archives, so they must sit next to it.
        if resume_dir is not None and save_dir.resolve() != resume_dir.resolve():
            for entry in plan.preserved.values():
                if entry.get("saved"):
                    archive = load_json(resume_dir / entry["saved"])
                    save_json(archive, save_dir / entry["saved"])

    saved: Dict[Spec, str] = {}
    seed_tag = len(plan.seeds) > 1

    def on_result(job: JobResult) -> None:
        tag = f" (seed {job.seed})" if seed_tag else ""
        cached = ", cached" if job.cache_hit else ""
        if job.error is not None:
            kind = f" [{job.failure_kind}]" if job.failure_kind else ""
            log.error(f"=== {job.experiment_id}{tag}: ERROR{kind} ===")
            print(job.error, file=sys.stderr)
        elif args.checks_only:
            title = TITLES[job.experiment_id]
            print(
                f"=== {job.experiment_id}{tag}: {title} "
                f"({job.wall_s:.1f}s{cached}) ==="
            )
            for check in job.checks:
                print(f"  {_format_check(check)}")
        else:
            print(job.rendered)
            print(f"(wall time {job.wall_s:.1f}s{cached}){tag}")
        print()
        if save_dir is not None and job.payload is not None:
            filename = f"{job.experiment_id}-seed{job.seed}.json"
            save_json(job.payload, save_dir / filename)
            saved[(job.experiment_id, job.seed)] = filename

    interrupted = False
    sweep_started = time.perf_counter()
    try:
        results = run_specs(
            plan.specs,
            jobs=plan.jobs,
            cache=plan.cache,
            refresh=args.refresh,
            on_result=on_result,
            timeout_s=args.timeout,
            retries=args.retries,
            backoff_s=args.backoff,
            run_kwargs=plan.run_kwargs,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_interval=args.checkpoint_interval,
            obs=plan.obs,
            fast_forward=not args.no_fast_forward,
        )
    except SweepInterrupted as exc:
        # Ctrl-C: outstanding jobs were cancelled; keep what finished
        # so the manifest still records the partial sweep.
        interrupted = True
        results = exc.results
        log.warning("sweep interrupted; writing partial manifest")
    makespan_s = time.perf_counter() - sweep_started

    by_spec = {(job.experiment_id, job.seed): job for job in results}
    entries = [
        plan.preserved[spec]
        if spec in plan.preserved
        else _entry_from_job(by_spec[spec], saved.get(spec))
        for spec in plan.all_specs
        if spec in plan.preserved or spec in by_spec
    ]
    probes: Optional[List[dict]] = None
    if args.strict_invariants and not interrupted:
        scenario = (plan.run_kwargs or {}).get("scenario")
        with fast_forward_scope(not args.no_fast_forward):
            probes = _strict_probe_matrix(scenario, min(plan.seeds))
    return _Sweep(results, entries, interrupted, makespan_s, probes)


def _report(plan: SweepPlan, args: argparse.Namespace, sweep: _Sweep) -> int:
    """Write the trace, metrics and manifest outputs; return the exit code."""
    results, entries = sweep.results, sweep.entries
    # Measurement-integrity accounting: payload-invariant failures are
    # recorded per entry; --strict-invariants adds the probe matrix.
    invariant_failures = sum(
        len(entry.get("invariants", {}).get("failed", ())) for entry in entries
    )
    for record in sweep.probes or ():
        for name in record["summary"]["failed"]:
            invariant_failures += 1
            log.error(
                f"invariant FAILED: {name} "
                f"(probe {record['os']}/{record['scenario'] or 'healthy'})"
            )

    # Observability outputs: the harness registry summarises the sweep
    # itself; worker snapshots carry the per-job sim metrics when the
    # obs session was on.  The merge is cheap, so the manifest always
    # embeds it.
    version = plan.cache.version if plan.cache is not None else code_version()
    harness = _harness_metrics(
        results, entries, workers=plan.jobs, makespan_s=sweep.makespan_s
    )
    merged_metrics = merge_snapshots(
        [job.metrics for job in results if job.metrics] + [harness.snapshot()]
    )
    if args.trace_out:
        merged_trace = merge_chrome_traces(
            [job.trace for job in results if job.trace]
        )
        save_json(merged_trace, args.trace_out)
        log.info(
            f"wrote {len(merged_trace['traceEvents'])} trace event(s) "
            f"to {args.trace_out}"
        )
    # Stage-envelope roll-up: per-job attribution sketches merge
    # commutatively, so the sweep-wide breakdown is job-order free.
    merged_stages = merge_stage_snapshots(
        [job.stages for job in results if job.stages]
    )
    if merged_stages is not None and merged_stages["alerts"]:
        log.warning(
            f"{len(merged_stages['alerts'])} stage budget alert(s) "
            f"(+{merged_stages['alerts_suppressed']} suppressed); see the "
            f"manifest's obs.stage_alerts or `repro-experiments stats`"
        )
    if args.metrics_out:
        metrics_path = Path(args.metrics_out)
        if metrics_path.suffix == ".prom":
            atomic_write_text(metrics_path, prometheus_text(merged_metrics))
        else:
            save_json(
                metrics_to_dict(merged_metrics, code_version=version),
                metrics_path,
            )
        log.info(f"wrote metrics snapshot to {args.metrics_out}")

    if plan.save_dir is not None:
        manifest = manifest_to_dict(
            entries,
            jobs=plan.jobs,
            cache={
                "enabled": plan.cache is not None,
                "dir": str(plan.cache.root) if plan.cache is not None else None,
                "refresh": args.refresh,
            },
            code_version=version,
        )
        if sweep.interrupted:
            manifest["interrupted"] = True
        if plan.run_kwargs:
            manifest["run_kwargs"] = dict(plan.run_kwargs)
        manifest["integrity"] = {
            "strict": bool(args.strict_invariants),
            "invariant_failures": invariant_failures,
        }
        if sweep.probes is not None:
            manifest["integrity"]["probes"] = sweep.probes
        manifest["obs"] = {
            "trace_out": args.trace_out,
            "metrics_out": args.metrics_out,
            "makespan_s": sweep.makespan_s,
            "metrics": merged_metrics,
        }
        if merged_stages is not None:
            manifest["obs"]["stages"] = dict(
                merged_stages["attribution"],
                alerts_suppressed=merged_stages["alerts_suppressed"],
            )
            manifest["obs"]["stage_alerts"] = merged_stages["alerts"]
        save_json(manifest, plan.save_dir / "manifest.json")
    return _exit_code(args, sweep, invariant_failures)


def _exit_code(args: argparse.Namespace, sweep: _Sweep, invariant_failures: int) -> int:
    entries = sweep.entries
    errors = sum(1 for entry in entries if entry.get("error") is not None)
    check_failures = sum(len(entry["failed_checks"]) for entry in entries)
    # Fleet completeness accounting: batch failures and partial sweeps
    # must reach the exit code, never just a log line.
    fleet_batch_failures = 0
    incomplete_fleets = 0
    for entry in entries:
        fleet = entry.get("fleet") or {}
        fleet_batch_failures += int(fleet.get("failures") or 0)
        expected = fleet.get("sessions_expected")
        completed = fleet.get("sessions_completed", fleet.get("sessions"))
        if expected is not None and completed != expected:
            incomplete_fleets += 1
            log.warning(
                f"fleet sweep {entry['id']} (seed {entry['seed']}) is "
                f"PARTIAL: {completed}/{expected} session(s), "
                f"{fleet.get('sessions_quarantined', 0)} quarantined, "
                f"{fleet.get('sessions_skipped', 0)} skipped"
            )
    if errors:
        log.error(f"{errors} experiment(s) failed")
    if check_failures:
        log.error(f"{check_failures} shape check(s) FAILED")
    if invariant_failures:
        log.error(f"{invariant_failures} measurement invariant(s) FAILED")
    if fleet_batch_failures:
        log.error(
            f"{fleet_batch_failures} fleet batch failure(s) left unaccounted"
        )
    if sweep.interrupted:
        return EXIT_INTERRUPTED
    if args.strict_invariants and invariant_failures:
        return EXIT_INVARIANT
    if errors or check_failures or fleet_batch_failures:
        return 1
    if args.strict_complete and incomplete_fleets:
        log.error(
            f"{incomplete_fleets} incomplete fleet sweep(s) under "
            f"--strict-complete"
        )
        return EXIT_INCOMPLETE
    print("all shape checks passed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "stats":
        from .stats import stats_main

        return stats_main(argv[1:])
    if argv and argv[0] == "fleet-report":
        from ..fleet.report import fleet_report_main

        return fleet_report_main(argv[1:])
    if argv and argv[0] == "run":
        # Optional verb: ``repro-experiments run fig7`` == ``repro-experiments
        # fig7`` (symmetry with the ``stats`` subcommand).
        argv = argv[1:]
    args = _build_parser().parse_args(argv)
    set_level(args.log_level)
    if args.list:
        for experiment_id, title in TITLES.items():
            print(f"{experiment_id:16s} {title}")
        return 0
    try:
        plan = _plan(args)
    except _UsageError as exc:
        log.error(str(exc))
        return 2
    return _report(plan, args, _execute(plan, args))


if __name__ == "__main__":
    sys.exit(main())
