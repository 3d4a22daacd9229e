"""Bottleneck attribution over stage envelopes.

A :class:`StageAttribution` groups finalized envelopes by
``(app, OS personality, scenario)``, with one
:class:`~repro.fleet.sketch.QuantileSketch` per pipeline stage plus one
for the end-to-end wait.  That gives every experiment, fleet sweep and
remote scenario the same question-answering surface:

* :meth:`dominant_stage` — which stage dominates p95 (the paper's
  "where does the time go", as a query);
* :meth:`summary_rows` — the ``repro-experiments stats``
  stage-breakdown table;
* :meth:`merge` / :meth:`digest` — exactly commutative folding, so
  fleet shards can combine envelope sketches in any interleaving and
  land on byte-identical digests (the same contract as
  :class:`~repro.fleet.sketch.FleetAggregator`).

An :class:`~repro.obs.envelope.EnvelopeRecorder`'s ``attribution`` is a
view over its stamp columns: its groups are folded when first read, and
:meth:`stage_sketches` folds each stage's durations straight into one
sketch without building any group.  A sketch depends only on the
multiset of values folded in, so both equal what folding envelope by
envelope would give.

:func:`merge_stage_snapshots` is the one roll-up of whole envelope
snapshots (attribution plus alerts and counters): a session merges its
recorders' snapshots with it, and the runner merges its jobs'.

The sketch class is imported lazily: ``repro.obs`` is imported by
``repro.winsys`` which ``repro.fleet`` imports transitively, so a
module-level import here would close an import cycle.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Mapping, Optional, Tuple

from .envelope import STAGES

__all__ = ["StageAttribution", "dominant_stage_of", "merge_stage_snapshots"]


def _sketch_cls():
    from ..fleet.sketch import QuantileSketch

    return QuantileSketch


def _group_key_str(app: str, os_name: str, scenario: str) -> str:
    return f"{app}|{os_name}|{scenario}"


class StageAttribution:
    """Per-(app, os, scenario) stage-latency sketches."""

    __slots__ = ("_groups", "_recorder")

    def __init__(self, recorder=None) -> None:
        #: The envelope recorder this attribution views, or None for one
        #: built by merging or from a payload.
        self._recorder = recorder
        #: (app, os, scenario) -> {"wait": sketch, "stages": {stage:
        #: sketch}, "events": int}; a recorder's view folds them when
        #: first read.
        self._groups: Optional[Dict[Tuple[str, str, str], dict]] = (
            None if recorder is not None else {}
        )

    @property
    def groups(self) -> Dict[Tuple[str, str, str], dict]:
        if self._groups is None:
            sketch_cls = _sketch_cls()
            self._groups = {
                key: {
                    "wait": sketch_cls().add_ns(waits),
                    "stages": {
                        stage: sketch_cls().add_ns(ns)
                        for stage, ns in stages.items()
                    },
                    "events": len(waits),
                }
                for key, (waits, stages) in (
                    self._recorder.group_durations().items()
                )
            }
        return self._groups

    def _group(self, app: str, os_name: str, scenario: str) -> dict:
        key = (app, os_name, scenario)
        group = self.groups.get(key)
        if group is None:
            group = {"wait": _sketch_cls()(), "stages": {}, "events": 0}
            self.groups[key] = group
        return group

    # ------------------------------------------------------------------
    # Merging (commutative, shard-shape independent)
    # ------------------------------------------------------------------
    def merge(self, other: "StageAttribution") -> "StageAttribution":
        for key, theirs in other.groups.items():
            mine = self._group(*key)
            mine["events"] += theirs["events"]
            mine["wait"].merge(theirs["wait"])
            for stage, sketch in theirs["stages"].items():
                if stage in mine["stages"]:
                    mine["stages"][stage].merge(sketch)
                else:
                    copied = _sketch_cls().from_dict(sketch.to_dict())
                    mine["stages"][stage] = copied
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def stage_sketches(self) -> Dict[str, object]:
        """Per-stage sketches collapsed across every group.  A
        recorder's unread view folds each stage's durations straight
        into one sketch, and builds no group or wait sketch."""
        if self._groups is None:
            sketch_cls = _sketch_cls()
            return {
                stage: sketch_cls().add_ns(ns)
                for stage, ns in self._recorder.stage_durations().items()
            }
        collapsed: Dict[str, object] = {}
        for group in self.groups.values():
            for stage, sketch in group["stages"].items():
                if stage in collapsed:
                    collapsed[stage].merge(
                        _sketch_cls().from_dict(sketch.to_dict())
                    )
                else:
                    collapsed[stage] = _sketch_cls().from_dict(sketch.to_dict())
        return collapsed

    def dominant_stage(
        self, key: Optional[Tuple[str, str, str]] = None, quantile: float = 0.95
    ) -> Optional[str]:
        """The stage with the largest ``quantile`` latency — the
        bottleneck query.  ``key=None`` collapses every group."""
        if key is not None:
            group = self.groups.get(key)
            stages = group["stages"] if group is not None else {}
        else:
            stages = self.stage_sketches()
        best: Optional[str] = None
        best_value = -1.0
        for stage in STAGES:  # canonical order breaks ties stably
            sketch = stages.get(stage)
            if sketch is None or not sketch.count:
                continue
            value = sketch.quantile(quantile)
            if value > best_value:
                best, best_value = stage, value
        return best

    @property
    def events(self) -> int:
        return sum(group["events"] for group in self.groups.values())

    def summary_rows(self) -> List[dict]:
        """One row per (group, stage): the stats/report table form."""
        rows: List[dict] = []
        for (app, os_name, scenario) in sorted(self.groups):
            group = self.groups[(app, os_name, scenario)]
            dominant = self.dominant_stage((app, os_name, scenario))
            for stage in STAGES:
                sketch = group["stages"].get(stage)
                if sketch is None or not sketch.count:
                    continue
                summary = sketch.summary()
                rows.append(
                    {
                        "app": app,
                        "os": os_name,
                        "scenario": scenario,
                        "stage": stage,
                        "events": summary["count"],
                        "mean_ms": summary["mean_ms"],
                        "p50_ms": summary["p50_ms"],
                        "p95_ms": summary["p95_ms"],
                        "p99_ms": sketch.quantile(0.99),
                        "max_ms": summary["max_ms"],
                        "dominant": stage == dominant,
                    }
                )
        return rows

    # ------------------------------------------------------------------
    # Serialization / identity
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "kind": "stage-attribution",
            "groups": {
                _group_key_str(app, os_name, scenario): {
                    "app": app,
                    "os": os_name,
                    "scenario": scenario,
                    "events": group["events"],
                    "wait": group["wait"].to_dict(),
                    "stages": {
                        stage: group["stages"][stage].to_dict()
                        for stage in sorted(group["stages"])
                    },
                }
                for (app, os_name, scenario), group in sorted(
                    self.groups.items()
                )
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "StageAttribution":
        if data.get("kind") != "stage-attribution":
            raise ValueError(
                f"not a stage-attribution payload: {data.get('kind')!r}"
            )
        sketch_cls = _sketch_cls()
        attribution = cls()
        for group in data["groups"].values():
            attribution.groups[
                (group["app"], group["os"], group["scenario"])
            ] = {
                "events": int(group["events"]),
                "wait": sketch_cls.from_dict(group["wait"]),
                "stages": {
                    stage: sketch_cls.from_dict(payload)
                    for stage, payload in group["stages"].items()
                },
            }
        return attribution

    def digest(self) -> str:
        """Content hash of the canonical state (merge-order invariant)."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StageAttribution(groups={len(self.groups)}, "
            f"events={self.events})"
        )


def dominant_stage_of(data: Mapping, quantile: float = 0.95) -> Optional[str]:
    """Dominant stage straight from a serialized attribution payload."""
    return StageAttribution.from_dict(data).dominant_stage(quantile=quantile)


def merge_stage_snapshots(snapshots: List[Mapping]) -> Optional[dict]:
    """Merge :meth:`~repro.obs.envelope.EnvelopeRecorder.snapshot`-shaped
    dicts into one of the same shape (None when given none).

    Attributions merge commutatively, alerts concatenate in the given
    order, the counters sum, and ``sample_rate`` is kept — every
    snapshot of one session or sweep shares one envelope config.
    """
    if not snapshots:
        return None
    attribution = StageAttribution()
    alerts: List[dict] = []
    for snapshot in snapshots:
        attribution.merge(StageAttribution.from_dict(snapshot["attribution"]))
        alerts.extend(snapshot["alerts"])
    merged = {"attribution": attribution.to_dict(), "alerts": alerts}
    for counter in ("alerts_suppressed", "started", "completed", "sampled_out"):
        merged[counter] = sum(snapshot[counter] for snapshot in snapshots)
    merged["sample_rate"] = snapshots[0]["sample_rate"]
    return merged
