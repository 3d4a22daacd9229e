"""Extension — population-scale session fleet with mergeable sketches.

The paper measures a handful of hand-driven sessions; its question at
production scale — *what latency distribution does a whole population
of users see?* — needs orders of magnitude more sessions than any
per-event trace can hold.  This experiment runs a seeded population of
simulated sessions (typist speed, app mix, think time, OS personality
and fault scenario all drawn per session index) through the
work-stealing shard scheduler, aggregating per-event wait times into
deterministically mergeable quantile sketches
(:mod:`repro.fleet.sketch`), and reports per-personality/per-scenario
p50/p95/p99.9 plus the capacity plan (``p95 -> max concurrent sessions
under a latency budget``).

In-experiment evidence for the two contracts the fleet layer makes:

* **Determinism** — a sub-population is run three ways (single shard in
  natural order; two shards with a different batch partition in
  permuted submission order; an in-process fold with no batching at
  all) and all three merged aggregates must be *byte-identical* by
  digest.
* **Accuracy** — the same sub-population's exact per-group wait lists
  are compared against the merged sketch's p50/p95/p99.9; every
  estimate must sit within the sketch's guaranteed relative error
  bound (:func:`~repro.fleet.sketch.relative_error_bound`).

Memory stays O(shards x sketch size) however many sessions run —
``benchmarks/test_fleet_scale.py`` measures that; here we only assert
the statistical and determinism contracts.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..core.report import TextTable
from ..fleet.population import PopulationConfig, SessionPopulation
from ..fleet.report import (
    capacity_plan,
    capacity_table,
    fleet_data,
    fleet_timing,
    stage_table,
    wait_table,
)
from ..fleet.session import run_session
from ..fleet.shards import run_fleet
from ..fleet.sketch import (
    DEFAULT_COMPRESSION,
    FleetAggregator,
    relative_error_bound,
)
from .common import ExperimentResult

ID = "ext-fleet"
TITLE = "Extension: population-scale session fleet with mergeable sketches"

#: Quantiles the accuracy check pins against an exact reference.
_CHECKED_QUANTILES: Tuple[Tuple[float, str], ...] = (
    (0.5, "p50"),
    (0.95, "p95"),
    (0.999, "p99.9"),
)


def _exact_quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile with the sketch's own rank semantics."""
    ordered = sorted(values)
    target = q * (len(ordered) - 1)
    return ordered[int(math.floor(target))]


def _exact_reference(
    config: PopulationConfig,
) -> Tuple[FleetAggregator, Dict[Tuple[str, str], List[float]], Dict[str, float]]:
    """Run every session of ``config`` in-process, keeping exact data.

    Returns the hand-folded aggregator (no batching, no scheduler), the
    exact per-group wait lists the sketches are checked against, and
    per-scenario mean sync-I/O wait per session.
    """
    population = SessionPopulation(config)
    aggregator = FleetAggregator(DEFAULT_COMPRESSION)
    waits: Dict[Tuple[str, str], List[float]] = {}
    sync_ms: Dict[str, float] = {}
    sessions: Dict[str, int] = {}
    for index in range(config.size):
        session = run_session(population.spec(index))
        aggregator.add_session(session)
        scenario = session.scenario if session.scenario is not None else "healthy"
        waits.setdefault((session.os_name, scenario), []).extend(session.wait_ms)
        sync_ms[scenario] = sync_ms.get(scenario, 0.0) + session.stage_ms.get(
            "sync_io_wait", 0.0
        )
        sessions[scenario] = sessions.get(scenario, 0) + 1
    sync_mean = {
        scenario: sync_ms[scenario] / sessions[scenario] for scenario in sync_ms
    }
    return aggregator, waits, sync_mean


def run(
    seed: int = 0,
    sessions: int = 120,
    shards: int = 2,
    batch_size: int = 20,
    compression: int = DEFAULT_COMPRESSION,
    sub_sessions: int = 45,
    budget_hours: float = 1.0,
    checkpoint=None,
    chaos: Optional[str] = None,
    chaos_seed: int = 0,
    hedge: bool = False,
) -> ExperimentResult:
    """``chaos``/``chaos_seed``/``hedge`` harden the *main* sweep with
    a named harness-fault scenario (see :mod:`repro.chaos`); both chaos
    parameters enter the cache variant via the runner's kwarg
    filtering, so chaotic and clean runs never serve each other's
    cache entries.  The determinism cross-checks always run clean —
    their digests are compared against an unbatched in-process fold
    that no harness fault can reach."""
    result = ExperimentResult(id=ID, title=TITLE)

    # --- the fleet sweep itself -------------------------------------
    config = PopulationConfig(seed=seed, size=sessions)
    fleet = run_fleet(
        config,
        shards=shards,
        batch_size=batch_size,
        compression=compression,
        checkpoint=checkpoint,
        chaos=chaos,
        chaos_seed=chaos_seed,
        retries=2 if chaos else 0,
        hedge=hedge,
    )
    data = fleet_data(fleet)
    result.host = fleet_timing(fleet)
    result.tables.append(wait_table(data))
    result.tables.append(stage_table(data))
    result.tables.append(capacity_table(data, budget_hours))

    # --- determinism: partition/shards/steal order cannot matter ----
    sub_config = PopulationConfig(seed=seed, size=sub_sessions)
    natural = run_fleet(sub_config, shards=1, batch_size=9)
    permuted_batches = len(SessionPopulation(sub_config).batches(7))
    stolen = run_fleet(
        sub_config,
        shards=2,
        batch_size=7,
        batch_order=list(reversed(range(permuted_batches))),
    )
    reference, exact_waits, sync_mean = _exact_reference(sub_config)
    determinism = {
        "sub_sessions": sub_sessions,
        "natural_digest": natural.digest,
        "permuted_digest": stolen.digest,
        "unbatched_digest": reference.digest(),
        "natural": {"shards": 1, "batch_size": 9, "order": "natural"},
        "permuted": {"shards": 2, "batch_size": 7, "order": "reversed"},
    }

    # --- accuracy: merged sketches vs the exact reference -----------
    bound = relative_error_bound(compression)
    accuracy: List[dict] = []
    for (os_name, scenario), values in sorted(exact_waits.items()):
        sketch = natural.aggregate.groups[(os_name, scenario)]["wait"]
        for q, label in _CHECKED_QUANTILES:
            exact = _exact_quantile(values, q)
            estimate = sketch.quantile(q)
            rel_err = abs(estimate - exact) / exact if exact > 0 else 0.0
            accuracy.append(
                {
                    "group": f"{os_name}/{scenario}",
                    "quantile": label,
                    "events": len(values),
                    "exact_ms": round(exact, 6),
                    "sketch_ms": round(estimate, 6),
                    "rel_err": round(rel_err, 6),
                    "bound": round(bound, 6),
                }
            )
    accuracy_table = TextTable(
        ["group", "quantile", "events", "exact ms", "sketch ms", "rel err", "bound"],
        title=(
            f"sketch accuracy vs exact reference "
            f"({sub_sessions} sessions, compression {compression})"
        ),
    )
    for row in accuracy:
        accuracy_table.add_row(
            row["group"],
            row["quantile"],
            row["events"],
            round(row["exact_ms"], 3),
            round(row["sketch_ms"], 3),
            f"{row['rel_err']:.3%}",
            f"{row['bound']:.3%}",
        )
    result.tables.append(accuracy_table)

    result.data = {
        "fleet": data,
        "determinism": determinism,
        "accuracy": accuracy,
        "capacity": capacity_plan(data, budget_hours),
        "sync_mean_ms_by_scenario": {
            scenario: round(value, 6) for scenario, value in sync_mean.items()
        },
    }

    # --- shape checks -----------------------------------------------
    accounted = (
        fleet.sessions_expected
        == fleet.sessions_completed
        + fleet.sessions_quarantined
        + fleet.sessions_skipped
    )
    result.check(
        "session accounting is exact "
        "(expected == completed + quarantined + skipped)",
        accounted and not fleet.failures,
        f"{fleet.sessions_expected} expected = "
        f"{fleet.sessions_completed} completed + "
        f"{fleet.sessions_quarantined} quarantined + "
        f"{fleet.sessions_skipped} skipped; "
        f"{len(fleet.failures)} unaccounted batch failure(s)",
    )
    from ..chaos import HEALABLE_SCENARIOS

    expect_partial = bool(chaos) and chaos not in HEALABLE_SCENARIOS
    result.check(
        "fleet sweep is complete (chaos-free and healable-chaos runs "
        "must heal to 100%)",
        fleet.complete or expect_partial,
        f"completeness {fleet.completeness:.1%}, "
        f"digest scope {fleet.digest_scope}"
        + (f", chaos {chaos!r}" if chaos else ""),
    )
    by_os: Dict[str, int] = {}
    by_os_events: Dict[str, int] = {}
    for os_name, scenario in fleet.aggregate.group_keys():
        group = fleet.aggregate.groups[(os_name, scenario)]
        by_os[os_name] = by_os.get(os_name, 0) + group["sessions"]
        by_os_events[os_name] = (
            by_os_events.get(os_name, 0) + group["wait"].count
        )
    result.check(
        "every OS personality contributed sessions and events",
        all(by_os.get(os, 0) > 0 and by_os_events.get(os, 0) > 0
            for os in config.os_mix),
        ", ".join(
            f"{os}: {by_os.get(os, 0)} sessions / {by_os_events.get(os, 0)} events"
            for os in sorted(config.os_mix)
        ),
    )
    ordered = all(
        group["p50_ms"] <= group["p95_ms"] <= group["p999_ms"]
        <= group["max_ms"] + 1e-9
        for group in (
            fleet.aggregate.groups[key]["wait"].summary()
            for key in fleet.aggregate.group_keys()
        )
    )
    result.check(
        "merged quantiles are monotone per group (p50 <= p95 <= p99.9 <= max)",
        ordered,
        f"{len(list(fleet.aggregate.group_keys()))} groups checked",
    )
    result.check(
        "merged digest is identical across shard count, batch partition "
        "and steal order",
        natural.digest == stolen.digest == reference.digest(),
        f"natural={natural.digest} permuted={stolen.digest} "
        f"unbatched={reference.digest()}",
    )
    worst = max(accuracy, key=lambda row: row["rel_err"] - row["bound"])
    result.check(
        "sketch p50/p95/p99.9 within guaranteed relative error of exact",
        all(row["rel_err"] <= row["bound"] + 1e-9 for row in accuracy),
        f"worst {worst['group']} {worst['quantile']}: "
        f"rel err {worst['rel_err']:.4%} vs bound {worst['bound']:.4%}",
    )
    healthy_sync = sync_mean.get("healthy", 0.0)
    degraded_sync = {
        scenario: value
        for scenario, value in sync_mean.items()
        if scenario != "healthy"
    }
    result.check(
        "fault-scenario sessions wait longer in synchronous I/O than healthy",
        bool(degraded_sync)
        and all(value > healthy_sync for value in degraded_sync.values()),
        ", ".join(
            [f"healthy: {healthy_sync:.3f} ms/session"]
            + [
                f"{scenario}: {value:.3f} ms/session"
                for scenario, value in sorted(degraded_sync.items())
            ]
        ),
    )
    return result
