"""Golden-trace regression: content-addressed digests of canonical runs.

The seed contract makes every experiment a pure function of
``(code, experiment_id, seed)``, so the serialized result of a canonical
run has exactly one correct byte sequence.  This module pins that: a
*golden record* under ``tests/golden/`` stores the SHA-256 digest of the
canonical JSON serialization of one ``(experiment_id, seed)`` run, plus
a small summary for humans reading the diff.  ``make golden-check``
re-runs the golden set and fails on any digest drift; an *intentional*
behaviour change is blessed with ``python -m repro.verify.golden
--update`` (or the runner's ``--update-golden``), which makes the change
reviewable as a one-line digest bump in the PR.

Digests are computed over canonical JSON (sorted keys, fixed
separators) so they are independent of dict ordering and whitespace,
and the golden set is chosen from the fastest paper figures so a full
check adds well under a second to CI.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.atomicio import atomic_write_text

__all__ = [
    "GOLDEN_SET",
    "canonical_json",
    "payload_digest",
    "golden_dir",
    "golden_path",
    "check_golden",
    "update_golden",
    "main",
]

#: Canonical (experiment_id, seed) pairs pinned by the golden check —
#: cheap experiments, one per major pipeline path (idle-loop
#: elongation, wait/think FSM, event extraction, NIC event class, and
#: the remote lossy-link transport schedule), plus every other cheap
#: experiment that attaches the measurement rig itself (simple events,
#: faults under the editor profile, and the three ablations), and the
#: cheap readers of the idle trace's every record or its slices
#: (fig3's per-sample utilization, sec25's record hook over jumped
#: runs, and the sliced session traces of ext-decompose and
#: ext-refresh), and fig9, whose OLE edits keep a thread busy across
#: thousands of clock ticks under ``run_until_quiescent``.
GOLDEN_SET: Tuple[Tuple[str, int], ...] = (
    ("fig1", 0),
    ("fig2", 0),
    ("fig4", 0),
    ("ext-network", 0),
    ("ext-remote", 0),
    ("fig6", 0),
    ("ext-faults", 0),
    ("ablation-batching", 0),
    ("ablation-merge", 0),
    ("ablation-idle-n", 0),
    ("fig3", 0),
    ("sec25", 0),
    ("ext-decompose", 0),
    ("ext-refresh", 0),
    ("fig9", 0),
)

_FORMAT_VERSION = 1


def canonical_json(payload: dict) -> str:
    """One byte sequence per value: sorted keys, fixed separators."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_digest(payload: dict) -> str:
    """Content address of a serialized run."""
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
    return f"sha256:{digest.hexdigest()}"


def golden_dir() -> Path:
    """The in-repo golden store, ``tests/golden/``."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def golden_path(experiment_id: str, seed: int, directory: Optional[Path] = None) -> Path:
    return Path(directory or golden_dir()) / f"{experiment_id}-seed{seed}.json"


def _run_payload(experiment_id: str, seed: int) -> dict:
    # Imported lazily: experiments -> runner -> verify would otherwise
    # be a circular import at module load.
    from ..core.serialize import experiment_to_dict
    from ..experiments.registry import run_experiment

    return experiment_to_dict(run_experiment(experiment_id, seed=seed))


def _record_from_payload(experiment_id: str, seed: int, payload: dict) -> dict:
    return {
        "format": _FORMAT_VERSION,
        "kind": "golden-record",
        "experiment_id": experiment_id,
        "seed": seed,
        "digest": payload_digest(payload),
        # Human-oriented summary: lets a reviewer see *what* drifted
        # from the git diff of this file, not just that something did.
        "summary": {
            "title": payload.get("title", ""),
            "checks": [
                {"name": c["name"], "passed": c["passed"]}
                for c in payload.get("checks", [])
            ],
            "figures": payload.get("figures", []),
        },
    }


def check_golden(
    pairs: Optional[Sequence[Tuple[str, int]]] = None,
    directory: Optional[Path] = None,
) -> List[Dict[str, object]]:
    """Re-run the golden set and compare digests.

    Returns one dict per pair with ``status`` in ``"matched"``,
    ``"drifted"`` (digest mismatch) or ``"missing"`` (no record yet).
    """
    results: List[Dict[str, object]] = []
    for experiment_id, seed in pairs or GOLDEN_SET:
        path = golden_path(experiment_id, seed, directory)
        payload = _run_payload(experiment_id, seed)
        actual = payload_digest(payload)
        entry: Dict[str, object] = {
            "experiment_id": experiment_id,
            "seed": seed,
            "path": str(path),
            "actual": actual,
        }
        try:
            record = json.loads(path.read_text())
            expected = record.get("digest")
        except (OSError, ValueError):
            expected = None
        entry["expected"] = expected
        if expected is None:
            entry["status"] = "missing"
        elif expected == actual:
            entry["status"] = "matched"
        else:
            entry["status"] = "drifted"
        results.append(entry)
    return results


def update_golden(
    pairs: Optional[Sequence[Tuple[str, int]]] = None,
    directory: Optional[Path] = None,
) -> List[Path]:
    """Re-run the golden set and (re)write the records."""
    written: List[Path] = []
    for experiment_id, seed in pairs or GOLDEN_SET:
        payload = _run_payload(experiment_id, seed)
        record = _record_from_payload(experiment_id, seed, payload)
        path = golden_path(experiment_id, seed, directory)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            path, json.dumps(record, indent=2, sort_keys=True) + "\n"
        )
        written.append(path)
    return written


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.golden",
        description="Check (default) or update the golden-run digests.",
    )
    parser.add_argument(
        "--update",
        "--update-golden",
        action="store_true",
        help="bless current outputs as golden",
    )
    parser.add_argument(
        "--dir", type=Path, default=None, help="golden store (default tests/golden/)"
    )
    args = parser.parse_args(argv)

    if args.update:
        for path in update_golden(directory=args.dir):
            print(f"golden: wrote {path}")
        return 0

    failed = False
    for entry in check_golden(directory=args.dir):
        status = entry["status"]
        label = f"{entry['experiment_id']} seed={entry['seed']}"
        if status == "matched":
            print(f"golden: ok      {label}")
        elif status == "missing":
            failed = True
            print(f"golden: MISSING {label} (run with --update to create)")
        else:
            failed = True
            print(
                f"golden: DRIFT   {label}\n"
                f"  expected {entry['expected']}\n"
                f"  actual   {entry['actual']}\n"
                f"  If intentional, re-bless with --update and commit the diff."
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
