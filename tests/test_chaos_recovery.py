"""Healable chaos: the recovery machinery must restore byte-identity.

Acceptance bar (ISSUE 7): for every *healable* chaos schedule —
crashes, hangs, stragglers, torn transport, torn artifact writes, full
disks — retries, hedging and quarantine re-runs heal the sweep and the
merged fleet digest is **byte-identical** to the chaos-free run.
"""

import time

import pytest

from repro.chaos import (
    ChaosEngine,
    ChaosPlan,
    ChaosSpec,
    chaos_payload,
)
from repro.core.runcache import RunCache
from repro.experiments.parallel import run_specs
from repro.fleet.population import PopulationConfig
from repro.fleet.shards import batch_job_id, execute_fleet_batch, run_fleet

_CONFIG = dict(seed=7, size=18, chars_range=(3, 5))


def _config() -> PopulationConfig:
    return PopulationConfig(**_CONFIG)


@pytest.fixture(scope="module")
def clean():
    """The chaos-free reference sweep."""
    return run_fleet(_config(), shards=1, batch_size=5)


def _assert_healed(fleet, clean) -> None:
    assert fleet.digest == clean.digest  # byte-identical merge
    assert fleet.complete
    assert fleet.digest_scope == "complete"
    assert not fleet.failures
    assert (
        fleet.sessions_expected
        == fleet.sessions_completed
        + fleet.sessions_quarantined
        + fleet.sessions_skipped
    )


@pytest.mark.parametrize(
    "scenario", ["flaky-crash", "stragglers", "corrupt-results", "mayhem"]
)
def test_healable_scenarios_restore_digest(scenario, clean, tmp_path):
    fleet = run_fleet(
        _config(),
        shards=1,
        batch_size=5,
        retries=2,
        cache=RunCache(tmp_path / "cache"),
        chaos=scenario,
        chaos_seed=3,
    )
    _assert_healed(fleet, clean)
    assert fleet.chaos == {
        "plan": scenario,
        "seed": 3,
        "kinds": fleet.chaos["kinds"],
    }


def test_hung_batches_heal_via_watchdog_and_recovery(clean):
    fleet = run_fleet(
        _config(),
        shards=1,
        batch_size=5,
        timeout_s=0.8,
        chaos="hung-batches",
        chaos_seed=2,
    )
    _assert_healed(fleet, clean)
    # The hang fired somewhere (else this test is vacuous) and every
    # hung batch came back through the recovery channel.
    assert fleet.recovery is not None
    assert fleet.recovery["healed_sessions"] > 0
    assert all(
        entry["failure_kind"] == "timeout"
        for entry in fleet.recovery["observed_failures"]
    )


def test_torn_cache_yields_clean_results_and_degraded_cache(clean, tmp_path):
    cache = RunCache(tmp_path / "cache")
    first = run_fleet(
        _config(),
        shards=1,
        batch_size=5,
        cache=cache,
        chaos="torn-cache",
        chaos_seed=1,
    )
    _assert_healed(first, clean)
    # Every cache entry this run wrote is torn; a fresh chaos-free run
    # over the same cache must evict them as misses and still converge
    # on the identical digest.
    second = run_fleet(_config(), shards=1, batch_size=5, cache=cache)
    _assert_healed(second, clean)


def test_disk_full_degrades_writes_not_results(clean, tmp_path):
    fleet = run_fleet(
        _config(),
        shards=1,
        batch_size=5,
        cache=RunCache(tmp_path / "cache"),
        chaos="disk-full",
        chaos_seed=1,
    )
    _assert_healed(fleet, clean)


def test_chaos_schedule_replays_identically(tmp_path):
    """Same (plan, seed): the same batches fail, the same sessions are
    quarantined — a chaos bug report is two integers and a name."""
    runs = [
        run_fleet(
            _config(),
            shards=1,
            batch_size=5,
            chaos="poison-sessions",
            chaos_seed=5,
        )
        for _ in range(2)
    ]
    assert runs[0].digest == runs[1].digest
    assert [e["index"] for e in runs[0].quarantined] == [
        e["index"] for e in runs[1].quarantined
    ]


def test_attempt_history_records_crash_then_heal():
    """A crash windowed to attempt 0 plus one retry: the job's attempt
    history must read ['pool', 'ok'] with both attempts counted."""
    config = PopulationConfig(seed=3, size=4, chars_range=(3, 4))
    plan = ChaosPlan(
        "crash-once",
        (ChaosSpec.make("c", "crash", probability=1.0, max_attempt=1),),
    )
    results = run_specs(
        [(batch_job_id(0, 4), 3)],
        jobs=1,
        retries=1,
        backoff_s=0.0,
        sleep=lambda seconds: None,
        run_kwargs={"population": config.to_dict()},
        executor=execute_fleet_batch,
        chaos=chaos_payload(plan, seed=0),
    )
    job = results[0]
    assert job.error is None
    assert job.attempts == 2
    assert job.attempt_history == ["pool", "ok"]


def test_retry_exhaustion_keeps_full_history():
    """An unwindowed crash burns every round; the history shows it."""
    config = PopulationConfig(seed=3, size=4, chars_range=(3, 4))
    plan = ChaosPlan(
        "crash-always", (ChaosSpec.make("c", "crash", probability=1.0),)
    )
    results = run_specs(
        [(batch_job_id(0, 4), 3)],
        jobs=1,
        retries=2,
        backoff_s=0.0,
        sleep=lambda seconds: None,
        run_kwargs={"population": config.to_dict()},
        executor=execute_fleet_batch,
        chaos=chaos_payload(plan, seed=0),
    )
    job = results[0]
    assert job.failure_kind == "pool"
    assert job.attempts == 3
    assert job.attempt_history == ["pool", "pool", "pool"]


def _straggler_seed(plan: ChaosPlan, job_ids, want: int = 1) -> int:
    """Find a chaos seed under which exactly ``want`` of ``job_ids``
    straggle on attempt 0 — pure engine computation, no processes."""
    for seed in range(200):
        engine = ChaosEngine(plan, seed=seed)
        if sum(bool(engine.active(j, 0)) for j in job_ids) == want:
            return seed
    raise AssertionError("no seed found (plan probability unsuitable)")


def test_hedging_beats_straggler_and_preserves_digest(clean):
    """Pool round with hedging: the straggler's duplicate (on the hedge
    attempt channel, where the windowed straggle cannot fire) finishes
    first and wins; the merged digest is untouched."""
    config = _config()
    batch_ids = [batch_job_id(s, t) for s, t in [(0, 5), (5, 10), (10, 15), (15, 18)]]
    plan = ChaosPlan(
        "one-straggler",
        (
            ChaosSpec.make(
                "slow",
                "straggle",
                probability=0.3,
                max_attempt=1,
                params={"seconds": 20.0},
            ),
        ),
    )
    seed = _straggler_seed(plan, batch_ids, want=1)
    started = time.perf_counter()
    fleet = run_fleet(
        config,
        shards=4,
        batch_size=5,
        chaos=ChaosPlan.from_dict(plan.to_dict()),
        chaos_seed=seed,
        hedge=True,
    )
    elapsed = time.perf_counter() - started
    _assert_healed(fleet, clean)
    assert fleet.hedging is not None
    assert fleet.hedging["issued"] >= 1
    assert fleet.hedging["won"] >= 1
    # The 20s primary never gated the sweep: the hedge won the race.
    assert elapsed < 15.0
