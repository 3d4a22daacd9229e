#!/usr/bin/env python3
"""Benchmark of the harness, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet-local --seed 1 --seconds 30 --trace 0

Workloads: ``fleet-local``, ``fleet-remote`` and ``paper-figures`` (see
``workloads.py`` and ``DESIGN.md``).  Every measurement runs in fresh
interpreters started by this script, one after another:

* ``--trace 0`` starts five, each timing ``--seconds / 5`` of
  back-to-back iterations with nothing wrapped but the fleet's session
  timer, and prints the end-to-end metrics in host seconds: wall time
  restated at a fixed host speed (``hostspeed.py``).
* ``--trace 1`` starts an untraced baseline (at least two timed
  iterations, then one more with only the counters captured) and then
  a traced interpreter that repeats the same number of iterations with
  every layer entry point wrapped (``probe.py``).  It prints the
  per-layer metrics and writes the spans to ``.perfbench/``.

``--seed`` picks five of the workload seeds recorded in ``golden/``,
one per untraced interpreter, whose output digests and simulated time
were recorded on outputs that passed every check; ``record.py``
rebuilds the tables.  Every iteration's digests must equal the
recorded ones, the counters must repeat exactly between iterations and
between the traced and untraced interpreters, and a traced iteration's
layer self times must partition its wall time.  Any failure makes every operation of the
run count as failed and the command exit 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from hostspeed import HostSpeed
from probe import LAYERS, Probe
from workloads import WORKLOADS, prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"
SPANS_DIR = ROOT / ".perfbench"

#: Fresh interpreters per untraced run, each on its own recorded seed;
#: ``setup_s`` and ``peak_rss_mb`` are their medians.
CHILDREN = 5
#: Share of ``--seconds`` the traced run's baseline spends timing.
BASELINE_SHARE = 0.4
#: Every run ends within this many seconds of starting.
DEADLINE_S = 170.0

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("sessions_per_s", "sessions/s"),
    ("session_ms_p50", "ms"),
    ("session_ms_p90", "ms"),
    ("payloads_per_s", "payloads/s"),
    ("sim_s_per_s", "s/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("winsys.boot.ms", "ms"),
    ("winsys.boot.calls", "count"),
    ("sim.engine.self_ms", "ms"),
    ("sim.engine.events_run", "count"),
    ("sim.engine.ns_per_event", "ns/event"),
    ("sim.engine.calendar_high_water", "count"),
    ("sim.engine.compactions", "count"),
    ("sim.sim_s", "s"),
    ("sim.engine.events_ff", "count"),
    ("sim.engine.ff_ratio", "fraction"),
    ("sim.engine.ff_calls", "count"),
    ("sim.engine.ff_ms", "ms"),
    ("sim.interrupts.calls", "count"),
    ("sim.interrupts.self_ms", "ms"),
    ("sim.interrupts.delivered.clock", "count"),
    ("sim.interrupts.delivered.keyboard", "count"),
    ("sim.interrupts.delivered.disk", "count"),
    ("sim.interrupts.delivered.nic", "count"),
    ("core.idleloop.records", "count"),
    ("core.extract.ms", "ms"),
    ("core.extract.calls", "count"),
    ("core.extract.events", "count"),
    ("obs.harvest.ms", "ms"),
    ("obs.envelope.events", "count"),
    ("fleet.sketch.fold_ms", "ms"),
    ("fleet.sketch.merge_ms", "ms"),
    ("fleet.sketch.events", "count"),
    ("remote.session.self_ms", "ms"),
    ("remote.link.sends", "count"),
    ("remote.link.ms", "ms"),
    ("remote.channel.sent", "count"),
    ("remote.channel.retransmits", "count"),
    ("remote.channel.acked_ratio", "fraction"),
    ("faults.injected", "count"),
    ("experiments.transport.bytes", "bytes"),
    ("experiments.transport.ms", "ms"),
    ("experiments.fig7.wall_s", "s"),
    ("experiments.fig10.wall_s", "s"),
    ("trace.overhead", "fraction"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ----------------------------------------------------------------------
# Child interpreter: set up, then time iterations of one workload
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    started_ns = time.perf_counter_ns()
    host = HostSpeed().start() if args.host_speed else None
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]()
    probe = Probe(timed=True).install() if args.traced else None
    prepare()
    if probe is not None:
        probe.reset()
    workload.bind(args.seed)
    setup_done = time.monotonic()
    setup_scale = host.scale(started_ns, time.perf_counter_ns()) if host else 1.0

    iterations: List[dict] = []
    spent = 0.0

    def more() -> bool:
        done = len(iterations)
        if done < args.min_iterations:
            return True
        # Stop where the run's length lands nearest the budget.
        return spent + (spent / done / 2 if done else 0.0) < args.budget

    while more():
        start = time.perf_counter_ns()
        if probe is None:
            iteration = workload.run()
        else:
            iteration = probe.run(len(iterations), workload.run)
        end = time.perf_counter_ns()
        iteration.wall_s = (end - start) / 1e9
        record = asdict(iteration)
        record["scale"] = host.scale(start, end) if host else 1.0
        if probe is not None:
            record["probe"] = probe.take()
        iterations.append(record)
        spent += iteration.wall_s
    if host is not None:
        host.stop()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    counted = None
    if args.counts:
        counter = Probe(timed=False).install()
        iteration = counter.run(0, workload.run)
        counted = dict(asdict(iteration), probe=counter.take())

    spans = 0
    if probe is not None:
        spans = probe.write_spans(SPANS_DIR / f"spans-{args.workload}.tsv")
    print(
        json.dumps(
            {
                "setup_done": setup_done,
                "setup_scale": setup_scale,
                "iterations": iterations,
                "counted": counted,
                "peak_rss_kb": peak_rss_kb,
                "spans": spans,
            }
        )
    )
    return 0


def spawn(options: List[str], deadline: float) -> dict:
    """Run one child interpreter to completion and return its report,
    with ``setup_s`` measured from just before the interpreter starts."""
    started = time.monotonic()
    if started >= deadline:
        raise BenchError("out of time before starting another interpreter")
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child", *options],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=deadline - started,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("a benchmark interpreter ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(
            f"benchmark interpreter exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["setup_done"] - started
    return report


# ----------------------------------------------------------------------
# Recorded outputs
# ----------------------------------------------------------------------
def golden_path(workload: str) -> Path:
    return GOLDEN / f"{workload}.json"


def recorded_seeds(workload: str, seed: int, count: int) -> List[Tuple[int, dict]]:
    """The ``count`` recorded workload seeds ``--seed`` selects, with
    their recorded outputs.  Consecutive values of ``--seed`` select
    disjoint sets until the table wraps around."""
    table = json.loads(golden_path(workload).read_text(encoding="utf-8"))["seeds"]
    seeds = sorted(int(s) for s in table)
    chosen = [seeds[(count * seed + offset) % len(seeds)] for offset in range(count)]
    return [(chosen_seed, table[str(chosen_seed)]) for chosen_seed in chosen]


def counts_of(record: dict) -> dict:
    """The deterministic counters of one iteration, for cross-checks."""
    return dict(record["probe"]["counts"], folded=record["folded"])


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(children: List[dict]) -> Dict[str, float]:
    """End-to-end metrics of an untraced run, in host seconds: each
    wall time is restated at the nominal host speed (``hostspeed.py``).
    Rates are medians over the run's iterations; the session timings
    pool every timed operation."""
    runs = [run for report in children for run in report["iterations"]]
    op_ms = [ms * run["scale"] for run in runs for ms in run["op_ms"]]
    deciles = statistics.quantiles(op_ms, n=10, method="inclusive")

    def rate(amount) -> float:
        return statistics.median(
            amount(run) / (run["wall_s"] * run["scale"]) for run in runs
        )

    return {
        "sessions_per_s": rate(lambda run: run["ops"] - run["failed"]),
        "session_ms_p50": statistics.median(op_ms),
        "session_ms_p90": deciles[8],
        "payloads_per_s": rate(lambda run: run["payloads"]),
        "sim_s_per_s": rate(lambda run: run["sim_ns"] / 1e9),
        "setup_s": statistics.median(
            report["setup_s"] * report["setup_scale"] for report in children
        ),
        "peak_rss_mb": statistics.median(
            report["peak_rss_kb"] / 1024 for report in children
        ),
    }


def layer_metrics(record: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    probe = record["probe"]
    self_ns, calls, counts = probe["self_ns"], probe["calls"], probe["counts"]

    def ms(*names: str) -> float:
        return sum(self_ns.get(name, 0) for name in names) / 1e6

    executed = counts.get("events_executed", 0)
    fast_forwarded = counts.get("events_fast_forwarded", 0)
    events_run = executed - fast_forwarded
    sent = counts.get("channel.sent", 0)
    return {
        "winsys.boot.ms": ms("winsys.boot"),
        "winsys.boot.calls": calls.get("winsys.boot", 0),
        "sim.engine.self_ms": ms("sim.engine"),
        "sim.engine.events_run": events_run,
        "sim.engine.ns_per_event": (
            self_ns.get("sim.engine", 0) / events_run if events_run else 0.0
        ),
        "sim.engine.calendar_high_water": counts.get("calendar_high_water", 0),
        "sim.engine.compactions": counts.get("compactions", 0),
        "sim.sim_s": counts.get("sim_ns", 0) / 1e9,
        "sim.engine.events_ff": fast_forwarded,
        "sim.engine.ff_ratio": fast_forwarded / executed if executed else 0.0,
        "sim.engine.ff_calls": calls.get("sim.ff", 0),
        "sim.engine.ff_ms": ms("sim.ff"),
        "sim.interrupts.calls": calls.get("sim.interrupts", 0),
        "sim.interrupts.self_ms": ms("sim.interrupts"),
        **{
            f"sim.interrupts.delivered.{vector}": counts.get(f"delivered.{vector}", 0)
            for vector in ("clock", "keyboard", "disk", "nic")
        },
        "core.idleloop.records": counts.get("idleloop.records", 0),
        "core.extract.ms": ms("core.idleloop", "core.extract"),
        "core.extract.calls": calls.get("core.extract", 0),
        "core.extract.events": counts.get("extract.events", 0),
        "obs.harvest.ms": ms("obs.harvest"),
        "obs.envelope.events": counts.get("envelope.events", 0),
        "fleet.sketch.fold_ms": ms("fleet.fold"),
        "fleet.sketch.merge_ms": ms("fleet.merge"),
        "fleet.sketch.events": record["folded"],
        "remote.session.self_ms": ms("remote.session"),
        "remote.link.sends": calls.get("remote.link", 0),
        "remote.link.ms": ms("remote.link"),
        "remote.channel.sent": sent,
        "remote.channel.retransmits": counts.get("channel.retransmits", 0),
        "remote.channel.acked_ratio": (
            counts.get("channel.acked", 0) / sent if sent else 0.0
        ),
        "faults.injected": counts.get("faults.injected", 0),
        "experiments.transport.bytes": probe["transport_bytes"],
        "experiments.transport.ms": ms("experiments.transport"),
    }


def ledger(record: dict) -> List[Tuple[str, float]]:
    """(layer, self ms) of one traced iteration, plus the ``other``
    remainder; the entries sum to the iteration's root span."""
    probe = record["probe"]
    rows = [(name, probe["self_ns"].get(name, 0) / 1e6) for name in LAYERS]
    rows.append(("other", probe["root_ns"] / 1e6 - sum(ms for _, ms in rows)))
    return rows


# ----------------------------------------------------------------------
# Parent: orchestrate, check, report
# ----------------------------------------------------------------------
def child_options(args, seed: int, **extra) -> List[str]:
    options = ["--workload", args.workload, "--seed", str(seed)]
    for key, value in extra.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            options.append(flag)
        elif value is not False:
            options += [flag, str(value)]
    return options


def digest_problems(records: List[dict], expected: dict) -> List[str]:
    return [
        f"iteration digests {record['digests']} != recorded {expected}"
        for record in records
        if record["digests"] != expected
    ]


def measure(args, deadline: float):
    """Untraced run: end-to-end metrics from fresh interpreters, each
    on its own recorded seed."""
    children: List[dict] = []
    problems: List[str] = []
    for seed, recorded in recorded_seeds(args.workload, args.seed, CHILDREN):
        report = spawn(
            child_options(
                args,
                seed,
                budget=args.seconds / CHILDREN,
                min_iterations=1,
                host_speed=True,
            ),
            deadline,
        )
        for record in report["iterations"]:
            record["sim_ns"] = recorded["sim_ns"]
        problems += digest_problems(report["iterations"], recorded["digests"])
        children.append(report)
    records = [record for report in children for record in report["iterations"]]
    print(
        f"{len(records)} iterations in {CHILDREN} fresh interpreters, "
        f"{sum(len(record['op_ms']) for record in records)} timed operations; "
        f"host seconds per wall second {statistics.median(r['scale'] for r in records):.3f} "
        f"(median; the metrics below are in host seconds)"
    )
    return records, end_to_end(children), problems


def trace(args, deadline: float):
    """Traced run: per-layer metrics, checked against an untraced baseline."""
    seed, recorded = recorded_seeds(args.workload, args.seed, CHILDREN)[0]
    baseline = spawn(
        child_options(
            args,
            seed,
            budget=args.seconds * BASELINE_SHARE,
            min_iterations=2,
            counts=True,
        ),
        deadline,
    )
    repeats = len(baseline["iterations"])
    traced = spawn(
        child_options(args, seed, traced=True, min_iterations=repeats), deadline
    )
    untraced_records = baseline["iterations"] + [baseline["counted"]]
    traced_records = traced["iterations"]
    records = untraced_records + traced_records
    problems = digest_problems(records, recorded["digests"])

    reference = counts_of(baseline["counted"])
    if reference.get("sim_ns") != recorded["sim_ns"]:
        problems.append(
            f"simulated {reference.get('sim_ns')} ns != recorded {recorded['sim_ns']}"
        )
    for index, record in enumerate(traced_records):
        counts = counts_of(record)
        if counts != reference:
            drift = {
                key: (reference.get(key), counts.get(key))
                for key in sorted(set(reference) | set(counts))
                if reference.get(key) != counts.get(key)
            }
            problems.append(f"traced iteration {index} counters drifted: {drift}")
        if not record["probe"]["balanced"]:
            problems.append(
                f"traced iteration {index}: layer self times do not sum to its wall"
            )

    per_iteration = [layer_metrics(record) for record in traced_records]
    metrics = {
        name: statistics.median(values[name] for values in per_iteration)
        for name in per_iteration[0]
    }
    for experiment_id in ("fig7", "fig10"):
        metrics[f"experiments.{experiment_id}.wall_s"] = statistics.median(
            record["job_wall_s"].get(experiment_id, 0.0)
            for record in baseline["iterations"]
        )
    metrics["trace.overhead"] = (
        sum(record["wall_s"] for record in traced_records)
        / sum(record["wall_s"] for record in baseline["iterations"])
        - 1.0
    )

    wall_ms = statistics.median(record["probe"]["root_ns"] for record in traced_records) / 1e6
    print(
        f"{repeats} untraced + 1 counted + {repeats} traced iterations; "
        f"{traced['spans']} spans in {SPANS_DIR.name}/spans-{args.workload}.tsv"
    )
    print(f"layer self time, traced iteration 0 (wall {wall_ms:.1f} ms median):")
    rows = ledger(traced_records[0])
    total = sum(ms for _, ms in rows)
    for name, ms in rows:
        print(f"  {name:<24} {ms:10.1f} ms  {100 * ms / total:5.1f}%")
    return records, metrics, problems


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Child-interpreter options (set by this script, not by hand).
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--counts", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--host-speed", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--budget", type=float, default=0.0, help=argparse.SUPPRESS)
    parser.add_argument("--min-iterations", type=int, default=0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    started = time.monotonic()
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    seeds = [seed for seed, _ in recorded_seeds(args.workload, args.seed, CHILDREN)]
    print(f"workload {args.workload}, --seed {args.seed} -> recorded seeds {seeds}")
    run = trace if args.trace else measure
    try:
        records, metrics, problems = run(args, started + DEADLINE_S)
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1

    attempted = sum(record["ops"] for record in records)
    failed = sum(record["failed"] for record in records)
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    if problems:
        failed = attempted
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for name, value in metrics.items():
        print(f"  {name:<36} {value:14.6g} {units[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
