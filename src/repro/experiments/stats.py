"""``repro-experiments stats`` — render a sweep manifest's telemetry.

A run manifest already records everything this subcommand shows (it is
the repeatability record ``--save`` writes); ``stats`` is the human
view: a per-job table of wall time, queue time and cache behaviour,
sweep totals, and the merged metrics snapshot the ``obs`` section
embeds.  Fleet sweeps (``ext-fleet``) additionally get their merged
sketch summaries and shard utilization rendered.  Old manifests
(written before the observability or fleet layers) render fine — the
columns they lack show as ``-`` and the fleet block is simply absent.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from ..core.report import TextTable
from ..core.serialize import manifest_from_dict, read_manifest
from ..obs import get_logger

__all__ = ["print_report", "render_stats", "stats_main"]

log = get_logger("repro.stats")


def _seconds(value) -> str:
    try:
        return f"{float(value):.2f}"
    except (TypeError, ValueError):
        return "-"


def _entry_status(entry: dict) -> str:
    if entry.get("error") is not None:
        return entry.get("failure_kind") or "error"
    if entry.get("failed_checks"):
        return "checks-failed"
    return "ok"


def _entry_cache(entry: dict) -> str:
    status = entry.get("cache_status")
    if status is not None:
        return status
    return "hit" if entry.get("cache_hit") else "miss"


def _metric_lines(section: dict, suffix: str = "") -> List[str]:
    lines: List[str] = []
    for name, metric in sorted(section.items()):
        for sample in metric.get("samples", []):
            labels = sample.get("labels") or {}
            rendered = (
                "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                if labels
                else ""
            )
            value = sample.get("value", sample.get("count", 0))
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            lines.append(f"  {name}{rendered}{suffix} {value}")
    return lines


def render_stats(manifest: dict) -> str:
    """The full ``stats`` report for one (validated) manifest."""
    entries = manifest["experiments"]
    lines: List[str] = []
    obs = manifest.get("obs") or {}
    header = (
        f"sweep of {len(entries)} job(s) — "
        f"{manifest['jobs']} worker(s), code {manifest['code_version']}"
    )
    if "makespan_s" in obs:
        header += f", makespan {_seconds(obs['makespan_s'])}s"
    if manifest.get("interrupted"):
        header += " [interrupted]"
    lines.append(header)
    lines.append("")

    table = TextTable(
        ["id", "seed", "wall_s", "queue_s", "cache", "ckpt", "tries", "status"]
    )
    for entry in entries:
        table.add_row(
            entry["id"],
            entry["seed"],
            _seconds(entry.get("wall_s")),
            _seconds(entry.get("queue_s")),
            _entry_cache(entry),
            entry.get("checkpoint_writes", "-"),
            entry.get("attempts", "-"),
            _entry_status(entry),
        )
    lines.append(table.render())
    lines.append("")

    hits = sum(1 for e in entries if _entry_cache(e) == "hit")
    errors = sum(1 for e in entries if e.get("error") is not None)
    check_failures = sum(len(e.get("failed_checks") or ()) for e in entries)
    resumed = sum(1 for e in entries if e.get("resumed"))
    wall_total = sum(float(e.get("wall_s") or 0.0) for e in entries)
    summary = (
        f"totals: {_seconds(wall_total)}s job wall time, "
        f"{hits} cache hit(s), {errors} error(s), "
        f"{check_failures} failed check(s)"
    )
    if resumed:
        summary += f", {resumed} resumed"
    lines.append(summary)
    integrity = manifest.get("integrity")
    if integrity:
        lines.append(
            f"integrity: strict={'yes' if integrity.get('strict') else 'no'}, "
            f"{integrity.get('invariant_failures', 0)} invariant failure(s)"
        )

    # Fleet sweeps (ext-fleet) record merged-sketch provenance in their
    # manifest entry; render it when present.  Pre-fleet manifests have
    # no such entries and skip this block entirely.
    fleet_entries = [e for e in entries if e.get("fleet")]
    for entry in fleet_entries:
        fleet = entry["fleet"]
        lines.append("")
        lines.append(
            "fleet {id} (seed {seed}): {sessions} session(s), {events} "
            "event(s) in {batches} batch(es) on {shards} shard(s)".format(
                id=entry["id"],
                seed=entry["seed"],
                sessions=fleet.get("sessions", "-"),
                events=fleet.get("events", "-"),
                batches=fleet.get("batches", "-"),
                shards=fleet.get("shards", "-"),
            )
        )
        utilization = fleet.get("shard_utilization")
        lines.append(
            "  merge {merge}, digest {digest}, population {seed}/{fp}".format(
                merge=fleet.get("merge", "-"),
                digest=fleet.get("merged_digest", "-"),
                seed=fleet.get("population_seed", "-"),
                fp=fleet.get("population_fingerprint", "-"),
            )
        )
        lines.append(
            "  batches from cache: {cache}, from checkpoint: {ckpt}; "
            "shard utilization {util}; {failures} failed".format(
                cache=fleet.get("batches_from_cache", 0),
                ckpt=fleet.get("batches_from_checkpoint", 0),
                util=(
                    f"{float(utilization):.1%}"
                    if utilization is not None
                    else "-"
                ),
                failures=fleet.get("failures", 0),
            )
        )
        # Completeness accounting (absent from pre-chaos manifests).
        expected = fleet.get("sessions_expected")
        if expected is not None:
            completeness = fleet.get("completeness")
            lines.append(
                "  completeness: {completed}/{expected} session(s) "
                "({pct}) — {quarantined} quarantined, {skipped} skipped; "
                "digest scope {scope}".format(
                    completed=fleet.get("sessions_completed", "-"),
                    expected=expected,
                    pct=(
                        f"{float(completeness):.1%}"
                        if completeness is not None
                        else "-"
                    ),
                    quarantined=fleet.get("sessions_quarantined", 0),
                    skipped=fleet.get("sessions_skipped", 0),
                    scope=fleet.get("digest_scope", "complete"),
                )
            )
        if fleet.get("chaos"):
            chaos = fleet["chaos"]
            lines.append(
                f"  chaos: plan {chaos.get('plan', '-')!r}, "
                f"seed {chaos.get('seed', '-')}"
            )
        if fleet.get("hedging"):
            hedging = fleet["hedging"]
            lines.append(
                f"  hedging: {hedging.get('issued', 0)} issued, "
                f"{hedging.get('won', 0)} won"
            )
        if fleet.get("quarantine"):
            sessions = fleet["quarantine"].get("sessions") or []
            lines.append(
                f"  quarantined session(s): "
                f"{', '.join(str(s) for s in sessions[:20])}"
                + (" ..." if len(sessions) > 20 else "")
            )
        groups = fleet.get("groups") or {}
        if groups:
            fleet_table = TextTable(
                ["group", "sessions", "events", "p50 ms", "p95 ms", "p99.9 ms"],
                title="  merged wait-time sketches",
            )
            for key in sorted(groups):
                group = groups[key]
                fleet_table.add_row(
                    key,
                    group.get("sessions", "-"),
                    group.get("events", "-"),
                    _seconds(group.get("p50_ms")),
                    _seconds(group.get("p95_ms")),
                    _seconds(group.get("p999_ms")),
                )
            lines.append(fleet_table.render())

    # Stage-envelope breakdown and budget alerts.  Both sections are
    # absent from pre-envelope manifests (and from sweeps run without
    # an observability session), so everything degrades via .get.
    stages = obs.get("stages") or {}
    attribution = None
    if stages:
        try:
            from ..obs import StageAttribution

            attribution = StageAttribution.from_dict(stages)
        except (KeyError, TypeError, ValueError):
            attribution = None  # malformed/foreign payload: skip the table
    if attribution is not None and attribution.events:
        lines.append("")
        stage_table = TextTable(
            [
                "app", "os", "scenario", "stage", "events",
                "p50 ms", "p95 ms", "p99 ms", "dom",
            ],
            title="stage breakdown (envelopes)",
        )
        for row in attribution.summary_rows():
            stage_table.add_row(
                row["app"],
                row["os"],
                row["scenario"],
                row["stage"],
                row["events"],
                _seconds(row["p50_ms"]),
                _seconds(row["p95_ms"]),
                _seconds(row["p99_ms"]),
                "*" if row["dominant"] else "",
            )
        lines.append(stage_table.render())
    alerts = obs.get("stage_alerts") or []
    suppressed = int(stages.get("alerts_suppressed") or 0)
    if alerts or suppressed:
        lines.append("")
        lines.append(
            f"stage budget alerts: {len(alerts)} recorded"
            + (f" (+{suppressed} suppressed)" if suppressed else "")
        )
        alert_table = TextTable(
            ["os", "app", "scenario", "stage", "budget ms", "actual ms", "seq"]
        )
        for alert in alerts[:20]:
            alert_table.add_row(
                alert.get("os", "-"),
                alert.get("app", "-"),
                alert.get("scenario", "-"),
                alert.get("stage", "-"),
                _seconds(alert.get("budget_ms")),
                _seconds(alert.get("actual_ms")),
                alert.get("seq", "-"),
            )
        lines.append(alert_table.render())
        if len(alerts) > 20:
            lines.append(f"  ... and {len(alerts) - 20} more")

    metrics = obs.get("metrics") or {}
    sections = [
        ("counters", metrics.get("counters") or {}, ""),
        ("gauges", metrics.get("gauges") or {}, ""),
    ]
    histograms = metrics.get("histograms") or {}
    if any(section for _, section, _ in sections) or histograms:
        lines.append("")
        lines.append("metrics:")
        for _, section, suffix in sections:
            lines.extend(_metric_lines(section, suffix))
        for name, metric in sorted(histograms.items()):
            for sample in metric.get("samples", []):
                count = sample.get("count", 0)
                total = sample.get("sum", 0.0)
                mean = total / count if count else 0.0
                lines.append(
                    f"  {name} count={count} sum={_seconds(total)} "
                    f"mean={_seconds(mean)}"
                )
    return "\n".join(lines)


def print_report(text: str) -> None:
    """Print to stdout; a reader closing the pipe early (``| head``)
    ends the output quietly instead of with a traceback."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def stats_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments stats",
        description="Summarise the telemetry recorded in a sweep manifest.",
    )
    parser.add_argument(
        "manifest",
        help="path to a manifest.json (or the --save directory holding one)",
    )
    args = parser.parse_args(argv)
    try:
        manifest = manifest_from_dict(read_manifest(args.manifest)[1])
    except (OSError, ValueError) as exc:
        log.error(f"cannot read manifest {args.manifest}: {exc}")
        return 2
    print_report(render_stats(manifest))
    return 0
