"""Fleet-level reporting: percentile tables and capacity planning.

Renders what a fleet sweep is *for*: per-personality and per-scenario
p50/p95/p99.9 wait time, the per-stage time breakdown, shard
utilization, and the capacity-planning projection in the spirit of
ProjectScylla's latency-budget analysis (SNIPPETS.md section 1)::

    max_concurrent_runs = budget_hours * 3600 / p95_latency

translated to fleet terms: a shard serving sessions back to back,
conservatively costing every session its p95 simulated span, can host
``budget_hours * 3600 / p95_span_s`` sessions per budget window — and a
deployment of N shards, N times that.  The projection is deliberately
contention-free (sessions here never compete for a machine); it is an
upper bound that the docs walk through in ``docs/fleet-scale.md``.

Everything in this module works off *serialized* fleet data (the
``fleet`` section of an ``ext-fleet`` payload), so the
``repro-experiments fleet-report`` verb can render archives and
manifests long after the run.
"""

from __future__ import annotations

import argparse
import math
from typing import List, Mapping, Optional

from ..core.report import TextTable
from ..core.serialize import load_json, read_manifest
from ..obs.logging import get_logger
from .sketch import FleetAggregator, relative_error_bound

__all__ = [
    "capacity_plan",
    "capacity_table",
    "coverage_table",
    "fleet_data",
    "fleet_report_main",
    "fleet_timing",
    "manifest_fleet_summary",
    "render_fleet_report",
    "stage_table",
    "wait_table",
]

log = get_logger("repro.fleet.report")

#: Default capacity-planning budget window (hours of shard time).
DEFAULT_BUDGET_HOURS = 1.0

#: Per-batch fields and fleet metrics that measure host wall time: the
#: :class:`~repro.fleet.shards.FleetResult` keeps them, the payload
#: does not (see :func:`fleet_timing`).
_HOST_FIELDS = ("wall_s", "queue_s")
_HOST_METRICS = (
    "repro_fleet_batch_wall_seconds",
    "repro_fleet_makespan_seconds",
    "repro_fleet_shard_utilization",
)


def fleet_timing(result) -> dict:
    """The sweep's host timing: makespan and shard utilization.

    Wall-clock seconds are no function of (code, seed), so they travel
    beside the payload, in the job's manifest entry, as the job's own
    ``wall_s`` does; :func:`fleet_data` leaves them out.
    """
    return {
        "makespan_s": result.makespan_s,
        "shard_utilization": result.shard_utilization(),
    }


def fleet_data(result) -> dict:
    """The ``fleet`` payload section for a :class:`~repro.fleet.shards.FleetResult`.

    Self-contained and JSON-safe: the full aggregate (sketches included,
    still O(groups x buckets)), provenance, per-batch scheduling stats
    and the observability snapshot — everything the ``fleet-report``
    verb and the ``stats`` subcommand need.  It is a function of (code,
    seed): host timing (:func:`fleet_timing`) stays out.
    """
    aggregate = result.aggregate
    groups = {}
    for os_name, scenario in aggregate.group_keys():
        group = aggregate.groups[(os_name, scenario)]
        groups[f"{os_name}/{scenario}"] = {
            "os": os_name,
            "scenario": scenario,
            "sessions": group["sessions"],
            "wait": group["wait"].summary(),
            "span": group["span"].summary(),
            "stages": {
                stage: group["stages"].stage_summary(stage)
                for stage in group["stages"].stages()
            },
        }
    return {
        "provenance": result.provenance(),
        "groups": groups,
        "coverage": result.group_coverage(),
        "batches": [
            {key: value for key, value in batch.items() if key not in _HOST_FIELDS}
            for batch in result.batches
        ],
        "failures": result.failures,
        "quarantined": result.quarantined,
        "skipped": result.skipped,
        "metrics": {
            family: {
                name: metric
                for name, metric in metrics.items()
                if name not in _HOST_METRICS
            }
            for family, metrics in (result.metrics or {}).items()
        },
        "aggregate": aggregate.to_dict(),
    }


def manifest_fleet_summary(fleet: Mapping, timing: Optional[Mapping] = None) -> dict:
    """Condensed fleet facts for a manifest entry.

    Manifests stay small: provenance plus one p50/p95/p99.9 row per
    group, *without* the raw sketch buckets (those live in the archived
    payload, which ``fleet-report`` can always re-render).  ``timing``
    is the run's :func:`fleet_timing`, None when it ran nothing (a cache
    hit).
    """
    timing = timing or {}
    provenance = dict(fleet.get("provenance") or {})
    groups = {}
    for key in sorted(fleet.get("groups") or {}):
        group = fleet["groups"][key]
        wait = group.get("wait") or {}
        groups[key] = {
            "sessions": group.get("sessions", 0),
            "events": wait.get("count", 0),
            "p50_ms": wait.get("p50_ms"),
            "p95_ms": wait.get("p95_ms"),
            "p999_ms": wait.get("p999_ms"),
        }
    summary = {
        "sessions": provenance.get("sessions"),
        "events": provenance.get("events"),
        "shards": provenance.get("shards"),
        "batches": provenance.get("batches"),
        "batches_from_cache": provenance.get("batches_from_cache"),
        "batches_from_checkpoint": provenance.get("batches_from_checkpoint"),
        "merge": provenance.get("merge"),
        "merged_digest": provenance.get("merged_digest"),
        "digest_scope": provenance.get("digest_scope", "complete"),
        "population_seed": provenance.get("population_seed"),
        "population_fingerprint": provenance.get("population_fingerprint"),
        "compression": provenance.get("compression"),
        "shard_utilization": timing.get("shard_utilization"),
        "makespan_s": timing.get("makespan_s"),
        "failures": len(fleet.get("failures") or []),
        "groups": groups,
    }
    # Completeness accounting travels with every manifest: a partial
    # sweep must be legible as partial from the manifest alone.
    for key in (
        "sessions_expected",
        "sessions_completed",
        "sessions_quarantined",
        "sessions_skipped",
        "completeness",
    ):
        if key in provenance:
            summary[key] = provenance[key]
    for key in ("quarantine", "chaos", "hedging", "recovery"):
        if key in provenance:
            summary[key] = provenance[key]
    return summary


def capacity_plan(
    fleet: Mapping, budget_hours: float = DEFAULT_BUDGET_HOURS
) -> List[dict]:
    """Per-group capacity projection from the merged sketches.

    For each (personality, scenario) group: the p95 session span prices
    a session pessimistically; ``budget_hours`` of one shard's time
    then hosts ``floor(budget * 3600 / p95_span_s)`` sessions, and the
    recorded shard count scales that to the deployment.  ``wait_share``
    is the fraction of a session's span its user spent visibly waiting
    — the paper's wait/think split at fleet scale.
    """
    if budget_hours <= 0:
        raise ValueError(f"budget_hours must be positive, got {budget_hours}")
    shards = int((fleet.get("provenance") or {}).get("shards") or 1)
    rows: List[dict] = []
    for key in sorted(fleet.get("groups") or {}):
        group = fleet["groups"][key]
        span = group["span"]
        wait = group["wait"]
        stages = group.get("stages") or {}
        p95_span_s = float(span["p95_ms"]) / 1e3
        per_shard = (
            math.floor(budget_hours * 3600.0 / p95_span_s)
            if p95_span_s > 0
            else 0
        )
        span_total_ms = float(
            (stages.get("session_span") or {}).get("sum_ms") or 0.0
        )
        wait_total_ms = float(
            (stages.get("keystroke_wait") or {}).get("sum_ms") or 0.0
        ) + float((stages.get("other_event_wait") or {}).get("sum_ms") or 0.0)
        rows.append(
            {
                "group": key,
                "sessions": group["sessions"],
                "p95_wait_ms": float(wait["p95_ms"]),
                "p95_span_s": p95_span_s,
                "sessions_per_shard": per_shard,
                "max_concurrent_sessions": per_shard * max(1, shards),
                "wait_share": (
                    wait_total_ms / span_total_ms if span_total_ms > 0 else 0.0
                ),
            }
        )
    return rows


def wait_table(fleet: Mapping) -> TextTable:
    compression = int(
        (fleet.get("provenance") or {}).get("compression")
        or (fleet.get("aggregate") or {}).get("compression")
        or 0
    )
    bound = (
        f" (sketch rel. err <= {relative_error_bound(compression):.2%})"
        if compression
        else ""
    )
    table = TextTable(
        [
            "personality/scenario",
            "sessions",
            "events",
            "p50 ms",
            "p95 ms",
            "p99.9 ms",
            "max ms",
        ],
        title=f"fleet wait time per event{bound}",
    )
    for key in sorted(fleet.get("groups") or {}):
        group = fleet["groups"][key]
        wait = group["wait"]
        table.add_row(
            key,
            group["sessions"],
            wait["count"],
            round(wait["p50_ms"], 3),
            round(wait["p95_ms"], 3),
            round(wait["p999_ms"], 3),
            round(wait["max_ms"], 3),
        )
    return table


def stage_table(fleet: Mapping) -> TextTable:
    table = TextTable(
        ["personality/scenario", "stage", "mean ms/session"],
        title="per-stage time (fixed-bucket histograms)",
    )
    for key in sorted(fleet.get("groups") or {}):
        group = fleet["groups"][key]
        for stage in sorted(group.get("stages") or {}):
            summary = group["stages"][stage]
            table.add_row(key, stage, round(summary["mean_ms"], 3))
    return table


def capacity_table(fleet: Mapping, budget_hours: float) -> TextTable:
    table = TextTable(
        [
            "personality/scenario",
            "p95 span s",
            "sessions/shard",
            "max concurrent",
            "wait share",
        ],
        title=(
            f"capacity plan: {budget_hours:g}h shard budget "
            "(p95 -> max concurrent sessions)"
        ),
    )
    for row in capacity_plan(fleet, budget_hours):
        table.add_row(
            row["group"],
            round(row["p95_span_s"], 3),
            row["sessions_per_shard"],
            row["max_concurrent_sessions"],
            f"{row['wait_share']:.1%}",
        )
    return table


def coverage_table(fleet: Mapping) -> TextTable:
    """Per-group completeness accounting for a partial sweep."""
    table = TextTable(
        [
            "personality/scenario",
            "expected",
            "completed",
            "quarantined",
            "skipped",
            "coverage",
        ],
        title="session coverage per group (completed + quarantined + skipped)",
    )
    for key in sorted(fleet.get("coverage") or {}):
        counts = fleet["coverage"][key]
        table.add_row(
            key,
            counts.get("expected", 0),
            counts.get("completed", 0),
            counts.get("quarantined", 0),
            counts.get("skipped", 0),
            f"{float(counts.get('coverage', 1.0)):.1%}",
        )
    return table


def render_fleet_report(
    fleet: Mapping, budget_hours: float = DEFAULT_BUDGET_HOURS
) -> str:
    """The full terminal report for one serialized fleet section."""
    provenance = fleet.get("provenance") or {}
    partial = provenance.get("digest_scope") == "partial"
    lines: List[str] = []
    lines.append(
        "fleet of {sessions} session(s), {events} event(s) — "
        "{shards} shard(s), {batches} batch(es), digest {digest}{scope}".format(
            sessions=provenance.get("sessions", "?"),
            events=provenance.get("events", "?"),
            shards=provenance.get("shards", "?"),
            batches=provenance.get("batches", "?"),
            digest=provenance.get("merged_digest", "?"),
            scope=" [PARTIAL]" if partial else "",
        )
    )
    lines.append(
        "population seed {seed}, fingerprint {fingerprint}, "
        "merge {merge}".format(
            seed=provenance.get("population_seed", "?"),
            fingerprint=provenance.get("population_fingerprint", "?"),
            merge=provenance.get("merge", "?"),
        )
    )
    if partial:
        lines.append(
            "PARTIAL sweep: {completed}/{expected} session(s) aggregated "
            "({quarantined} quarantined, {skipped} skipped), "
            "completeness {completeness:.1%}".format(
                completed=provenance.get("sessions_completed", "?"),
                expected=provenance.get("sessions_expected", "?"),
                quarantined=provenance.get("sessions_quarantined", 0),
                skipped=provenance.get("sessions_skipped", 0),
                completeness=float(provenance.get("completeness") or 0.0),
            )
        )
    if provenance.get("chaos"):
        chaos = provenance["chaos"]
        lines.append(
            f"chaos plan {chaos.get('plan', '?')!r} "
            f"(seed {chaos.get('seed', '?')})"
        )
    if provenance.get("hedging"):
        hedging = provenance["hedging"]
        lines.append(
            f"hedging: {hedging.get('issued', 0)} issued, "
            f"{hedging.get('won', 0)} won"
        )
    if fleet.get("makespan_s") is not None:
        lines.append(
            f"makespan {float(fleet['makespan_s']):.2f}s, "
            f"shard utilization {float(fleet.get('shard_utilization') or 0):.1%}"
        )
    failures = fleet.get("failures") or []
    if failures:
        lines.append(f"WARNING: {len(failures)} failed batch(es)")
    if partial and fleet.get("coverage"):
        lines.append("")
        lines.append(coverage_table(fleet).render())
    lines.append("")
    lines.append(wait_table(fleet).render())
    lines.append("")
    lines.append(stage_table(fleet).render())
    lines.append("")
    lines.append(capacity_table(fleet, budget_hours).render())
    return "\n".join(lines)


def _extract_fleet_sections(source: str) -> List[dict]:
    """Fleet sections from a payload file, manifest, or --save dir."""
    path, document = read_manifest(source)
    # An archived ext-fleet payload: {"data": {"fleet": {...}}}.
    data = document.get("data")
    if isinstance(data, dict) and "fleet" in data:
        return [data["fleet"]]
    # A sweep manifest: follow each entry's archived payload.
    if document.get("kind") == "run-manifest":
        sections: List[dict] = []
        for entry in document.get("experiments") or []:
            saved = entry.get("saved")
            if not saved:
                continue
            try:
                payload = load_json(path.parent / saved)
            except (OSError, ValueError):
                continue
            data = payload.get("data")
            if isinstance(data, dict) and "fleet" in data:
                # The host timing sits in the manifest entry, beside
                # the payload.
                summary = entry.get("fleet") or {}
                sections.append(
                    dict(
                        data["fleet"],
                        makespan_s=summary.get("makespan_s"),
                        shard_utilization=summary.get("shard_utilization"),
                    )
                )
        return sections
    return []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments fleet-report",
        description=(
            "Render fleet percentile tables and the capacity plan from an "
            "archived ext-fleet payload, a sweep manifest, or a --save dir."
        ),
    )
    parser.add_argument(
        "path",
        help=(
            "an ext-fleet payload JSON, a manifest.json, or the --save "
            "directory holding one"
        ),
    )
    parser.add_argument(
        "--budget-hours",
        type=float,
        default=DEFAULT_BUDGET_HOURS,
        metavar="H",
        help=(
            "shard-time budget window for the capacity plan "
            f"(default: {DEFAULT_BUDGET_HOURS:g})"
        ),
    )
    return parser


def fleet_report_main(argv: Optional[List[str]] = None) -> int:
    from ..experiments.stats import print_report

    args = build_parser().parse_args(argv)
    if not (math.isfinite(args.budget_hours) and args.budget_hours > 0):
        log.error(
            f"--budget-hours must be positive and finite, got {args.budget_hours}"
        )
        return 2
    try:
        sections = _extract_fleet_sections(args.path)
    except (OSError, ValueError) as exc:
        log.error(f"cannot read {args.path}: {exc}")
        return 2
    if not sections:
        log.error(
            f"no fleet results in {args.path} (expected an ext-fleet payload "
            "or a manifest whose archive contains one)"
        )
        return 2
    print_report(
        "\n\n".join(
            render_fleet_report(fleet, budget_hours=args.budget_hours)
            for fleet in sections
        )
    )
    return 0
