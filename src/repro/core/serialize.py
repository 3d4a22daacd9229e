"""Persistence for measurement artifacts.

Benchmark runs are expensive relative to analysis, and the paper's own
workflow — capture once, analyse many ways (Table 1, Figure 8 and
Figure 12 all read one PowerPoint trace) — needs durable artifacts.
This module round-trips the library's data products through plain JSON:

* :class:`~repro.core.samples.SampleTrace` (idle-loop traces),
* :class:`~repro.core.latency.LatencyProfile` (extracted events),
* experiment results (tables/figures/checks, for archival),
* run-cache entries (one finished experiment run, for
  :class:`~repro.core.runcache.RunCache`),
* run manifests (the full configuration and outcome of one sweep —
  the repeatability record a measurement paper asks for).

JSON keeps the artifacts diffable and tool-friendly; timestamps are
integer nanoseconds, so round-trips are exact.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import List, Optional, Tuple, Union

from .latency import LatencyEvent, LatencyProfile
from .samples import SampleTrace

__all__ = [
    "trace_to_dict",
    "trace_from_dict",
    "profile_to_dict",
    "profile_from_dict",
    "experiment_to_dict",
    "cache_entry_to_dict",
    "cache_entry_from_dict",
    "manifest_to_dict",
    "manifest_from_dict",
    "read_manifest",
    "metrics_to_dict",
    "metrics_from_dict",
    "save_json",
    "load_json",
]

_FORMAT_VERSION = 1


def trace_to_dict(trace: SampleTrace) -> dict:
    return {
        "format": _FORMAT_VERSION,
        "kind": "sample-trace",
        "loop_ns": trace.loop_ns,
        "times_ns": [int(t) for t in trace.times],
    }


def trace_from_dict(data: dict) -> SampleTrace:
    if data.get("kind") != "sample-trace":
        raise ValueError(f"not a sample-trace payload: {data.get('kind')!r}")
    return SampleTrace(data["times_ns"], loop_ns=data["loop_ns"])


def profile_to_dict(profile: LatencyProfile) -> dict:
    return {
        "format": _FORMAT_VERSION,
        "kind": "latency-profile",
        "name": profile.name,
        "events": [
            {
                "start_ns": event.start_ns,
                "latency_ns": event.latency_ns,
                "busy_ns": event.busy_ns,
                "message_kinds": list(event.message_kinds),
                "first_input": _jsonable(event.first_input),
                "label": event.label,
            }
            for event in profile
        ],
    }


def profile_from_dict(data: dict) -> LatencyProfile:
    if data.get("kind") != "latency-profile":
        raise ValueError(f"not a latency-profile payload: {data.get('kind')!r}")
    events = [
        LatencyEvent(
            start_ns=entry["start_ns"],
            latency_ns=entry["latency_ns"],
            busy_ns=entry.get("busy_ns", 0),
            message_kinds=tuple(entry.get("message_kinds", ())),
            first_input=entry.get("first_input"),
            label=entry.get("label", ""),
        )
        for entry in data["events"]
    ]
    return LatencyProfile(events, name=data.get("name", ""))


def experiment_to_dict(result) -> dict:
    """Archive an :class:`~repro.experiments.ExperimentResult` run
    (one-way: for records and diffing).  Duck-typed to avoid importing
    the experiments package from the core library."""
    return {
        "format": _FORMAT_VERSION,
        "kind": "experiment-result",
        "id": result.id,
        "title": result.title,
        "tables": [table.render() for table in result.tables],
        "figures": list(result.figures),
        "data": _jsonable(result.data),
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in result.checks
        ],
    }


def cache_entry_to_dict(
    result, *, seed: int, wall_s: float, code_version: str, variant: str = ""
) -> dict:
    """Package one finished experiment run as a run-cache entry.

    The entry carries everything the runner needs to *replay* the run
    without executing it: the rendered terminal report, the shape-check
    outcomes, and the archival payload (`experiment_to_dict`) that
    ``--save`` writes.  Because experiments are deterministic in
    ``(code, id, seed)``, serving this entry is observably identical to
    re-running — byte-for-byte for the saved JSON.

    ``variant`` distinguishes runs of the same experiment under
    different run-time configuration — most importantly the active
    fault plan — so a healthy run and a faulted run can never serve
    each other's slot (see :meth:`repro.core.runcache.RunCache.load`).
    """
    return {
        "format": _FORMAT_VERSION,
        "kind": "run-cache-entry",
        "experiment_id": result.id,
        "seed": seed,
        "code_version": code_version,
        "variant": variant,
        "wall_s": wall_s,
        "rendered": result.render(),
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in result.checks
        ],
        "payload": experiment_to_dict(result),
    }


_CACHE_ENTRY_KEYS = (
    "experiment_id",
    "seed",
    "code_version",
    "variant",
    "wall_s",
    "rendered",
    "checks",
    "payload",
)


def cache_entry_from_dict(data: dict) -> dict:
    """Validate a run-cache entry loaded from disk."""
    if data.get("kind") != "run-cache-entry":
        raise ValueError(f"not a run-cache-entry payload: {data.get('kind')!r}")
    missing = [key for key in _CACHE_ENTRY_KEYS if key not in data]
    if missing:
        raise ValueError(f"run-cache entry missing keys: {', '.join(missing)}")
    return data


def manifest_to_dict(
    runs: List[dict],
    *,
    jobs: int,
    cache: dict,
    code_version: str,
    created_unix: Optional[float] = None,
) -> dict:
    """Build a run manifest: the repeatability record for one sweep.

    ``runs`` is one dict per executed ``(experiment, seed)`` job with
    keys ``id``, ``seed``, ``wall_s``, ``cache_hit``, ``failed_checks``
    (list of check names), ``error`` (traceback text or ``None``) and
    ``saved`` (archived filename or ``None``).  The manifest records,
    alongside the results, everything needed to reproduce them: seeds,
    code version, parallelism, cache configuration and the interpreter/
    platform the sweep ran on.
    """
    ids: List[str] = []
    seeds: List[int] = []
    for run in runs:
        if run["id"] not in ids:
            ids.append(run["id"])
        if run["seed"] not in seeds:
            seeds.append(run["seed"])
    failures = sum(len(run["failed_checks"]) for run in runs) + sum(
        1 for run in runs if run.get("error")
    )
    return {
        "format": _FORMAT_VERSION,
        "kind": "run-manifest",
        "created_unix": time.time() if created_unix is None else created_unix,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "code_version": code_version,
        "jobs": jobs,
        "cache": cache,
        "ids": ids,
        "seeds": seeds,
        "experiments": runs,
        "failures": failures,
    }


_MANIFEST_KEYS = (
    "created_unix",
    "python",
    "platform",
    "code_version",
    "jobs",
    "cache",
    "ids",
    "seeds",
    "experiments",
    "failures",
)


def manifest_from_dict(data: dict) -> dict:
    """Validate a run manifest loaded from disk."""
    if data.get("kind") != "run-manifest":
        raise ValueError(f"not a run-manifest payload: {data.get('kind')!r}")
    missing = [key for key in _MANIFEST_KEYS if key not in data]
    if missing:
        raise ValueError(f"run manifest missing keys: {', '.join(missing)}")
    for run in data["experiments"]:
        for key in ("id", "seed", "wall_s", "cache_hit", "failed_checks"):
            if key not in run:
                raise ValueError(f"manifest experiment entry missing {key!r}")
    return data


def read_manifest(path: Union[str, Path]) -> Tuple[Path, dict]:
    """Load a ``manifest.json``, or the one in a ``--save`` directory:
    the file read (its directory holds the archives the entries name)
    and the JSON, which :func:`manifest_from_dict` validates."""
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.json"
    return path, load_json(path)


def metrics_to_dict(snapshot: dict, *, code_version: str = "") -> dict:
    """Wrap a :meth:`repro.obs.MetricsRegistry.snapshot` for archival
    (the ``--metrics-out`` file and the manifest ``obs`` section)."""
    return {
        "format": _FORMAT_VERSION,
        "kind": "metrics-snapshot",
        "code_version": code_version,
        "metrics": snapshot,
    }


def metrics_from_dict(data: dict) -> dict:
    """Validate a metrics snapshot loaded from disk; returns the inner
    counters/gauges/histograms dict."""
    if data.get("kind") != "metrics-snapshot":
        raise ValueError(f"not a metrics-snapshot payload: {data.get('kind')!r}")
    metrics = data.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError("metrics snapshot missing 'metrics' dict")
    return metrics


def _jsonable(value):
    """Best-effort conversion of experiment data payloads to JSON types."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    return str(value)


def save_json(payload: dict, path: Union[str, Path]) -> Path:
    """Write any of the payload dicts above to ``path``.

    Atomic (temp + fsync + rename via :mod:`repro.core.atomicio`): a
    sweep killed mid-manifest, or an archive write hit by disk-full,
    can never leave a torn JSON file for ``--resume`` or the report
    tooling to trip over.
    """
    from .atomicio import atomic_write_json

    return atomic_write_json(Path(path), payload, indent=2)


def load_json(path: Union[str, Path]) -> dict:
    return json.loads(Path(path).read_text())
