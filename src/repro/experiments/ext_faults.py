"""Extension — event latency under injected machine faults.

The paper measures three *healthy* systems.  This extension asks the
question its methodology was built for but its testbed could not pose:
how does event latency degrade when the machine misbehaves?  A seeded
:class:`~repro.faults.injector.FaultInjector` perturbs the simulated
hardware — disk stalls, interrupt storms, message-queue pressure,
scheduler jitter, TLB-flush storms — while a typing workload runs, and
the unchanged measurement pipeline (idle-loop instrument, message-API
monitor, event extraction) produces the same per-event latency series
and cumulative curves as Figures 6–8, healthy vs degraded, per OS.

The probe application is the fleet's ``editor`` profile
(:class:`~repro.fleet.session.FleetSessionApp`): it autosaves every few
keystrokes through *synchronous* write-through I/O, so an injected disk
stall lands where Figure 2 says it must: in the outstanding-sync-I/O
FSM input, i.e. in time the user visibly waits.

Determinism: identical ``(seed, scenario)`` pairs replay identical
fault sequences (checked below by re-running one OS and comparing the
full latency series), which is what makes degraded runs cacheable and
comparable across code versions like any other experiment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core import instrumented
from ..core.report import TextTable
from ..core.serialize import profile_from_dict, profile_to_dict
from ..core.visualize import cumulative_latency_plot, event_time_series
from ..faults import FaultInjector, get_scenario
from ..fleet.population import APP_PROFILES
from ..fleet.session import FleetSessionApp
from ..sim.timebase import ns_from_ms
from .common import ALL_OS, ExperimentResult, inject_keystroke

ID = "ext-faults"
TITLE = "Extension: event latency under injected machine faults"

#: Fixed keystroke pacing so healthy and degraded runs cover the same
#: simulated time span (a settle-until-quiescent loop would let a
#: degraded system take longer and bias the comparison).
KEY_PERIOD_MS = 60.0
DRAIN_MS = 400.0


def _measure(
    os_name: str, seed: int, chars: int, scenario: Optional[str]
) -> Dict[str, object]:
    """One instrumented typing run; ``scenario=None`` means healthy."""
    rig = instrumented(
        os_name,
        lambda system: FleetSessionApp(system, APP_PROFILES["editor"]),
        seed=seed,
    )
    system = rig.system
    system.run_for(ns_from_ms(200))
    injector = None
    if scenario is not None:
        injector = FaultInjector(system, get_scenario(scenario)).install()
    for index in range(chars):
        inject_keystroke(system, chr(ord("a") + index % 26))
        system.run_for(ns_from_ms(KEY_PERIOD_MS))
    system.run_for(ns_from_ms(DRAIN_MS))
    profile = rig.extract().profile.filter(
        lambda e: any("WM_KEYDOWN" in kind for kind in e.message_kinds)
    )
    latencies = profile.latencies_ms
    return {
        "profile": profile,
        "latencies_ms": [round(float(x), 6) for x in latencies],
        "median_ms": float(np.median(latencies)) if len(latencies) else 0.0,
        "p95_ms": float(np.percentile(latencies, 95)) if len(latencies) else 0.0,
        "total_ms": float(latencies.sum()) if len(latencies) else 0.0,
        "sync_wait_ms": system.iomgr.sync_wait_ns / 1e6,
        "autosaves": rig.app.autosaves,
        "faults": injector.summary() if injector is not None else None,
    }


def _measured(
    checkpoint,
    key: str,
    os_name: str,
    seed: int,
    chars: int,
    scenario: Optional[str],
) -> Dict[str, object]:
    """One measurement unit, served from the checkpoint when possible.

    Each ``(os, workload, plan)`` run is deterministic in its inputs, so
    a snapshot taken after it completed is interchangeable with
    re-running it — which is what makes a killed-and-resumed experiment
    byte-identical to an uninterrupted one.  The live profile is stored
    through the exact integer round-trip of
    :func:`~repro.core.serialize.profile_to_dict`.
    """
    if checkpoint is not None:
        cached = checkpoint.get(key)
        if cached is not None:
            data = dict(cached)
            data["profile"] = profile_from_dict(data["profile"])
            return data
    data = _measure(os_name, seed, chars, scenario)
    if checkpoint is not None:
        payload = {k: v for k, v in data.items() if k != "profile"}
        payload["profile"] = profile_to_dict(data["profile"])
        checkpoint.record(key, payload)
    return data


def run(
    seed: int = 0,
    chars: int = 36,
    scenario: str = "degraded",
    os_names: Sequence[str] = ALL_OS,
    checkpoint=None,
) -> ExperimentResult:
    result = ExperimentResult(id=ID, title=TITLE)
    plan = get_scenario(scenario)
    table = TextTable(
        [
            "system",
            "median ms (ok)",
            "median ms (flt)",
            "p95 ms (flt)",
            "cum ms (ok)",
            "cum ms (flt)",
            "sync wait ms (flt)",
            "injections",
        ],
        title=f"keystroke latency, healthy vs scenario {plan.name!r} ({chars} chars)",
    )
    stats: Dict[str, Dict[str, object]] = {}
    for os_name in os_names:
        healthy = _measured(
            checkpoint, f"{os_name}:healthy", os_name, seed, chars, None
        )
        degraded = _measured(
            checkpoint, f"{os_name}:{scenario}", os_name, seed, chars, scenario
        )
        stats[os_name] = {
            "healthy": {k: v for k, v in healthy.items() if k != "profile"},
            "degraded": {k: v for k, v in degraded.items() if k != "profile"},
            "_healthy_profile": healthy["profile"],
            "_degraded_profile": degraded["profile"],
        }
        table.add_row(
            os_name,
            healthy["median_ms"],
            degraded["median_ms"],
            degraded["p95_ms"],
            healthy["total_ms"],
            degraded["total_ms"],
            degraded["sync_wait_ms"],
            degraded["faults"]["total"],
        )
    result.tables.append(table)

    show_os = os_names[0]
    result.figures.append(
        f"{show_os} keystroke latency series, healthy:\n"
        + event_time_series(
            stats[show_os]["_healthy_profile"], threshold_ms=100.0, width=80
        )
    )
    result.figures.append(
        f"{show_os} keystroke latency series, scenario {plan.name!r}:\n"
        + event_time_series(
            stats[show_os]["_degraded_profile"], threshold_ms=100.0, width=80
        )
    )
    result.figures.append(
        f"{show_os} cumulative latency, healthy:\n"
        + cumulative_latency_plot(stats[show_os]["_healthy_profile"])
    )
    result.figures.append(
        f"{show_os} cumulative latency, scenario {plan.name!r}:\n"
        + cumulative_latency_plot(stats[show_os]["_degraded_profile"])
    )
    # Profiles are live measurement objects; keep only plain data.
    for os_name in list(stats):
        stats[os_name].pop("_healthy_profile")
        stats[os_name].pop("_degraded_profile")

    injected: Dict[str, Dict[str, int]] = {
        os_name: dict(stats[os_name]["degraded"]["faults"]["by_kind"])
        for os_name in os_names
    }
    result.data = {
        "scenario": scenario,
        "plan_fingerprint": plan.fingerprint(),
        "per_os": stats,
        "injected_faults": {
            "total": sum(sum(v.values()) for v in injected.values()),
            "by_os": injected,
        },
    }

    # sched-jitter is probabilistic per requeue (checked separately);
    # link-degrade only acts on systems carrying a remote link, which
    # these local probes deliberately are not (ext-remote covers it).
    arrival_kinds = [
        k for k in plan.kinds if k not in ("sched-jitter", "link-degrade")
    ]
    result.check(
        "every arrival-driven fault kind injected on every system",
        all(
            all(injected[os_name].get(kind, 0) >= 1 for kind in arrival_kinds)
            for os_name in os_names
        ),
        ", ".join(f"{k}: {v}" for k, v in injected.items()),
    )
    if "sched-jitter" in plan.kinds:
        result.check(
            "scheduler jitter demoted at least one requeue somewhere",
            sum(injected[os_name].get("sched-jitter", 0) for os_name in os_names) >= 1,
            str({k: v.get("sched-jitter", 0) for k, v in injected.items()}),
        )
    result.check(
        "faults increase cumulative keystroke latency on every system",
        all(
            stats[os_name]["degraded"]["total_ms"]
            > stats[os_name]["healthy"]["total_ms"]
            for os_name in os_names
        ),
        ", ".join(
            f"{os_name}: {stats[os_name]['healthy']['total_ms']:.1f} -> "
            f"{stats[os_name]['degraded']['total_ms']:.1f} ms"
            for os_name in os_names
        ),
    )
    result.check(
        "injected disk stalls surface as synchronous-I/O wait (Figure 2)",
        all(
            stats[os_name]["degraded"]["sync_wait_ms"]
            > stats[os_name]["healthy"]["sync_wait_ms"]
            for os_name in os_names
        ),
        ", ".join(
            f"{os_name}: {stats[os_name]['healthy']['sync_wait_ms']:.1f} -> "
            f"{stats[os_name]['degraded']['sync_wait_ms']:.1f} ms"
            for os_name in os_names
        ),
    )
    replay = _measured(checkpoint, "replay", show_os, seed, chars, scenario)
    result.check(
        "identical (seed, plan) replays an identical degraded run",
        replay["latencies_ms"] == stats[show_os]["degraded"]["latencies_ms"]
        and replay["faults"] == stats[show_os]["degraded"]["faults"],
        f"{show_os}: {len(replay['latencies_ms'])} event latencies compared",
    )

    # Measurement-integrity evidence: run the fully instrumented verify
    # probe under this scenario on every system and require the whole
    # invariant catalog to hold — degradation must never come from the
    # measurement stack miscounting.
    from ..verify import InvariantChecker, gather_probe_evidence, summarize_reports

    checker = InvariantChecker()
    integrity: Dict[str, Dict[str, List[str]]] = {}
    for os_name in os_names:
        reports = checker.check(
            gather_probe_evidence(os_name, seed=seed, scenario=scenario)
        )
        integrity[os_name] = summarize_reports(reports)
    result.data["integrity"] = integrity
    result.check(
        "measurement invariants hold under injected faults on every system",
        all(not summary["failed"] for summary in integrity.values()),
        ", ".join(
            f"{os_name}: {len(summary['passed'])} passed"
            + (f", FAILED {summary['failed']}" if summary["failed"] else "")
            for os_name, summary in integrity.items()
        ),
    )
    return result
