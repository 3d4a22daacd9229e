#!/usr/bin/env python3
"""Record the outputs each workload seed must reproduce.

    python3 perfbench/record.py --workload fleet-local --seeds 0-63

Runs the workload once per seed in a fresh interpreter, with only the
program's counters captured, and stores in ``golden/<workload>.json``,
for every seed whose outputs passed all checks (a complete fleet; every
shape check of fig7 and fig10), the output digests and the simulated
nanoseconds.  Seeds that failed a check go under ``rejected`` with the
reason; ``run.py`` never selects them.  Re-record only when a change is
meant to alter the program's outputs, and say so.
"""

from __future__ import annotations

import argparse
import json
import time

from run import BenchError, child_options, golden_path, spawn
from workloads import WORKLOADS


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, required=True)
    args = parser.parse_args()

    path = golden_path(args.workload)
    table = (
        json.loads(path.read_text(encoding="utf-8"))
        if path.exists()
        else {"seeds": {}, "rejected": {}}
    )
    for seed in args.seeds:
        key = str(seed)
        table["seeds"].pop(key, None)
        table["rejected"].pop(key, None)
        try:
            report = spawn(child_options(args, seed, counts=True), time.monotonic() + 600)
        except BenchError as error:
            table["rejected"][key] = str(error).strip().splitlines()[-1]
        else:
            counted = report["counted"]
            if counted["failed"]:
                table["rejected"][key] = (
                    f"{counted['failed']} of {counted['ops']} operations failed"
                )
            else:
                table["seeds"][key] = {
                    "digests": counted["digests"],
                    "sim_ns": counted["probe"]["counts"]["sim_ns"],
                }
        print(args.workload, seed, table["rejected"].get(key, "recorded"), flush=True)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
