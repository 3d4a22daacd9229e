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
import os
import re
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.atomicio import atomic_write_text
from ..core.runcache import RunCache, code_version
from ..core.serialize import (
    load_json,
    manifest_from_dict,
    manifest_to_dict,
    metrics_to_dict,
    save_json,
)
from ..obs import (
    LEVELS,
    STAGES,
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


def _parse_seeds(text: str) -> List[int]:
    """``"0,1,2"`` → ``[0, 1, 2]`` (order kept, duplicates dropped)."""
    seeds: List[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        seed = int(part)
        if seed not in seeds:
            seeds.append(seed)
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


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
    # the raw sketches stay in the archived payload.
    if isinstance(data, dict) and "fleet" in data:
        from ..fleet.report import manifest_fleet_summary

        entry["fleet"] = manifest_fleet_summary(data["fleet"])
    # Payload invariants run on every completed job (they are cheap):
    # the manifest records what passed, and any violation in full.
    if job.payload is not None:
        reports = check_payload(job.payload)
        entry["invariants"] = {
            "passed": [r.name for r in reports if r.status == "passed"],
            "failed": [r.name for r in reports if r.status == "failed"],
        }
        violations = [
            v.to_dict() for r in reports if r.status == "failed"
            for v in r.violations
        ]
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
            violations = [
                v.to_dict() for r in reports if r.status == "failed"
                for v in r.violations
            ]
            if violations:
                record["violations"] = violations
            records.append(record)
    return records


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
        default=None,
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
        default=None,
        help=(
            "archive each experiment's full result as JSON into DIR, plus a "
            "manifest.json describing the whole run"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for the sweep (default: CPU count; 1 runs "
            "sequentially in-process)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
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
        default=None,
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
        default=None,
        help=(
            "path to a previous sweep's manifest.json (or its directory); "
            "re-runs only the jobs that failed or are missing, preserving "
            "completed results, and writes a merged manifest"
        ),
    )
    parser.add_argument(
        "--scenario",
        metavar="NAME",
        default=None,
        help=(
            "run fault-aware experiments under this named fault scenario; "
            "cached results are keyed by the plan's content fingerprint, so "
            "healthy and faulted runs never serve each other"
        ),
    )
    parser.add_argument(
        "--packets",
        type=int,
        default=None,
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
        default=None,
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
        default=None,
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
        default=None,
        help=(
            "write a merged Chrome trace-event JSON file (loadable in "
            "Perfetto / chrome://tracing) covering every job in the sweep"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help=(
            "write the merged sim+harness metrics snapshot; '.prom' files "
            "get Prometheus text format, anything else JSON"
        ),
    )
    parser.add_argument(
        "--stage-sample-rate",
        type=float,
        default=None,
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
        default=None,
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
    args = parser.parse_args(argv)
    set_level(args.log_level)

    if args.list:
        for experiment_id, title in TITLES.items():
            print(f"{experiment_id:16s} {title}")
        return 0

    if args.retries < 0:
        log.error(f"--retries must be >= 0, got {args.retries}")
        return 2
    if args.backoff < 0:
        log.error(f"--backoff must be >= 0, got {args.backoff}")
        return 2
    if args.timeout is not None and args.timeout <= 0:
        log.error(f"--timeout must be positive, got {args.timeout}")
        return 2
    if args.checkpoint_interval < 1:
        log.error(
            f"--checkpoint-interval must be >= 1, got {args.checkpoint_interval}"
        )
        return 2
    if args.packets is not None and args.packets < 1:
        log.error(f"--packets must be >= 1, got {args.packets}")
        return 2
    if args.stage_sample_rate is not None and not (
        0.0 <= args.stage_sample_rate <= 1.0
    ):
        log.error(
            f"--stage-sample-rate must be in [0, 1], got {args.stage_sample_rate}"
        )
        return 2
    stage_budgets: Dict[str, float] = {}
    for budget_spec in args.stage_budget or []:
        stage, sep, millis = budget_spec.partition("=")
        if not sep or stage not in STAGES:
            log.error(
                f"invalid --stage-budget {budget_spec!r}; expected "
                f"STAGE=MS with STAGE one of: {', '.join(STAGES)}"
            )
            return 2
        try:
            budget_ms = float(millis)
        except ValueError:
            budget_ms = -1.0
        if budget_ms <= 0:
            log.error(
                f"invalid --stage-budget {budget_spec!r}; "
                f"MS must be a positive number"
            )
            return 2
        stage_budgets[stage] = budget_ms
    if args.scenario is not None:
        from ..faults import scenario_names

        if args.scenario not in scenario_names():
            log.error(
                f"unknown scenario {args.scenario!r}; "
                f"known: {', '.join(scenario_names())}"
            )
            return 2
    if args.chaos is not None:
        from ..chaos import chaos_scenario_names

        if args.chaos not in chaos_scenario_names():
            log.error(
                f"unknown chaos scenario {args.chaos!r}; "
                f"known: {', '.join(chaos_scenario_names())}"
            )
            return 2

    resume_manifest: Optional[dict] = None
    resume_dir: Optional[Path] = None
    if args.resume:
        manifest_path = Path(args.resume)
        if manifest_path.is_dir():
            manifest_path = manifest_path / "manifest.json"
        try:
            resume_manifest = manifest_from_dict(load_json(manifest_path))
        except (OSError, ValueError) as exc:
            log.error(f"cannot resume from {manifest_path}: {exc}")
            return 2
        resume_dir = manifest_path.parent

    if args.seed is not None:
        try:
            seeds = _parse_seeds(args.seed)
        except ValueError:
            log.error(f"invalid --seed value: {args.seed!r}")
            return 2
    elif resume_manifest is not None:
        seeds = [int(seed) for seed in resume_manifest["seeds"]]
    else:
        seeds = [0]

    # A resumed sweep must re-run its stragglers under the *same*
    # configuration the originals ran under, or the merged manifest
    # would mix healthy and faulted results.
    scenario = args.scenario
    resume_kwargs = (
        (resume_manifest.get("run_kwargs") or {})
        if resume_manifest is not None
        else {}
    )
    if scenario is None:
        scenario = resume_kwargs.get("scenario")
    chaos = args.chaos if args.chaos is not None else resume_kwargs.get("chaos")
    packets = (
        args.packets if args.packets is not None else resume_kwargs.get("packets")
    )
    run_kwargs: Optional[dict] = {}
    if scenario:
        run_kwargs["scenario"] = scenario
    if packets:
        run_kwargs["packets"] = int(packets)
    if chaos:
        # Chaos-aware experiments (ext-fleet) take the plan name and
        # seed as run kwargs; both enter the cache variant, so chaotic
        # runs never reuse clean cache entries (or vice versa).
        run_kwargs["chaos"] = chaos
        run_kwargs["chaos_seed"] = (
            args.chaos_seed
            if args.chaos is not None
            else int(resume_kwargs.get("chaos_seed", 0))
        )
    if args.hedge:
        run_kwargs["hedge"] = True
    run_kwargs = run_kwargs or None

    if args.ids:
        ids = [_normalize_id(experiment_id) for experiment_id in args.ids]
    elif resume_manifest is not None:
        ids = list(resume_manifest["ids"])
    else:
        ids = list(EXPERIMENTS)
    unknown = [experiment_id for experiment_id in ids if experiment_id not in EXPERIMENTS]
    if unknown:
        log.error(f"unknown experiment ids: {', '.join(unknown)}")
        return 2

    cache: Optional[RunCache] = None
    if not args.no_cache:
        cache = RunCache(args.cache_dir)

    save_dir: Optional[Path] = None
    if args.save:
        save_dir = Path(args.save)
    elif resume_dir is not None:
        # Resumed archives belong next to the manifest they complete.
        save_dir = resume_dir
    if save_dir is not None:
        save_dir.mkdir(parents=True, exist_ok=True)

    # Which (id, seed) jobs actually need running?  Without --resume:
    # all of them.  With it: only those the old manifest lacks or
    # records as failed; the rest are preserved verbatim.
    all_specs = [(experiment_id, seed) for experiment_id in ids for seed in seeds]
    preserved: Dict[Tuple[str, int], dict] = {}
    if resume_manifest is not None:
        for entry in resume_manifest["experiments"]:
            key = (entry["id"], int(entry["seed"]))
            if key in all_specs and _job_completed(entry, resume_dir):
                kept = dict(entry)
                kept["resumed"] = True
                preserved[key] = kept
    specs = [spec for spec in all_specs if spec not in preserved]
    if resume_manifest is not None:
        log.info(
            f"resuming: {len(preserved)} job(s) preserved, "
            f"{len(specs)} to run"
        )

    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    jobs = max(1, min(jobs, len(specs) or 1))

    saved: dict = {}
    seed_tag = len(seeds) > 1

    def report(job: JobResult) -> None:
        tag = f" (seed {job.seed})" if seed_tag else ""
        if job.error is not None:
            kind = f" [{job.failure_kind}]" if job.failure_kind else ""
            log.error(f"=== {job.experiment_id}{tag}: ERROR{kind} ===")
            print(job.error, file=sys.stderr)
        elif args.checks_only:
            cached = ", cached" if job.cache_hit else ""
            title = TITLES[job.experiment_id]
            print(
                f"=== {job.experiment_id}{tag}: {title} "
                f"({job.wall_s:.1f}s{cached}) ==="
            )
            for check in job.checks:
                print(f"  {_format_check(check)}")
        else:
            print(job.rendered)
            cached = ", cached" if job.cache_hit else ""
            print(f"(wall time {job.wall_s:.1f}s{cached}){tag}")
        print()
        if save_dir is not None and job.payload is not None:
            filename = f"{job.experiment_id}-seed{job.seed}.json"
            save_json(job.payload, save_dir / filename)
            saved[(job.experiment_id, job.seed)] = filename

    # Stage flags force an observability session even without trace or
    # metrics outputs: budgets and sampling act on the envelope layer.
    stage_flags = args.stage_sample_rate is not None or stage_budgets
    obs_opts: Optional[dict] = None
    if args.trace_out or args.metrics_out or stage_flags:
        obs_opts = {
            "trace": bool(args.trace_out),
            "metrics": bool(args.metrics_out),
        }
        if stage_flags:
            obs_opts["envelopes"] = {
                "enabled": True,
                "sample_rate": (
                    1.0
                    if args.stage_sample_rate is None
                    else args.stage_sample_rate
                ),
                "budgets_ms": stage_budgets,
            }

    interrupted = False
    sweep_started = time.perf_counter()
    try:
        results = run_specs(
            specs,
            jobs=jobs,
            cache=cache,
            refresh=args.refresh,
            on_result=report,
            timeout_s=args.timeout,
            retries=args.retries,
            backoff_s=args.backoff,
            run_kwargs=run_kwargs,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_interval=args.checkpoint_interval,
            obs=obs_opts,
            fast_forward=not args.no_fast_forward,
        )
    except SweepInterrupted as exc:
        # Ctrl-C: outstanding jobs were cancelled; keep what finished
        # so the manifest below still records the partial sweep.
        interrupted = True
        results = exc.results
        log.warning("sweep interrupted; writing partial manifest")
    makespan_s = time.perf_counter() - sweep_started

    by_spec: Dict[Tuple[str, int], JobResult] = {
        (job.experiment_id, job.seed): job for job in results
    }
    entries: List[dict] = []
    for spec in all_specs:
        if spec in preserved:
            entries.append(preserved[spec])
        elif spec in by_spec:
            job = by_spec[spec]
            entries.append(_entry_from_job(job, saved.get(spec)))

    # Measurement-integrity accounting: payload-invariant failures are
    # recorded per entry; --strict-invariants adds the probe matrix.
    invariant_failures = sum(
        len(entry.get("invariants", {}).get("failed", ())) for entry in entries
    )
    probe_records: Optional[List[dict]] = None
    if args.strict_invariants and not interrupted:
        with fast_forward_scope(not args.no_fast_forward):
            probe_records = _strict_probe_matrix(scenario, min(seeds))
        probe_failures = sum(
            len(record["summary"]["failed"]) for record in probe_records
        )
        if probe_failures:
            for record in probe_records:
                for name in record["summary"]["failed"]:
                    log.error(
                        f"invariant FAILED: {name} "
                        f"(probe {record['os']}/{record['scenario'] or 'healthy'})"
                    )
        invariant_failures += probe_failures

    # Observability outputs: the harness registry summarises the sweep
    # itself; worker snapshots carry the per-job sim metrics when the
    # obs session was on.  The merge is cheap, so the manifest always
    # embeds it.
    version = cache.version if cache is not None else code_version()
    harness = _harness_metrics(
        results, entries, workers=jobs, makespan_s=makespan_s
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

    if save_dir is not None:
        manifest = manifest_to_dict(
            entries,
            jobs=jobs,
            cache={
                "enabled": cache is not None,
                "dir": str(cache.root) if cache is not None else None,
                "refresh": args.refresh,
            },
            code_version=version,
        )
        if interrupted:
            manifest["interrupted"] = True
        if run_kwargs:
            manifest["run_kwargs"] = dict(run_kwargs)
        manifest["integrity"] = {
            "strict": bool(args.strict_invariants),
            "invariant_failures": invariant_failures,
        }
        if probe_records is not None:
            manifest["integrity"]["probes"] = probe_records
        manifest["obs"] = {
            "trace_out": args.trace_out,
            "metrics_out": args.metrics_out,
            "makespan_s": makespan_s,
            "metrics": merged_metrics,
        }
        if merged_stages is not None:
            manifest["obs"]["stages"] = dict(
                merged_stages["attribution"],
                alerts_suppressed=merged_stages["alerts_suppressed"],
            )
            manifest["obs"]["stage_alerts"] = merged_stages["alerts"]
        save_json(manifest, save_dir / "manifest.json")

    errors = sum(1 for entry in entries if entry.get("error") is not None)
    check_failures = sum(len(entry["failed_checks"]) for entry in entries)
    # Fleet completeness accounting: batch failures and partial sweeps
    # must reach the exit code, never just a log line.
    fleet_batch_failures = 0
    incomplete_fleets = 0
    for entry in entries:
        fleet = entry.get("fleet") or {}
        if not fleet:
            continue
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
    if interrupted:
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


if __name__ == "__main__":
    sys.exit(main())
