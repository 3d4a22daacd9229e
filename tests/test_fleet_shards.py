"""Shard-scheduler tests: determinism, cache reuse, checkpoint resume.

The headline contract: a fixed ``(population seed, config)`` produces a
byte-identical merged sketch digest regardless of batch partition,
shard count, or work-stealing submission order.
"""

import pytest

from repro.core.runcache import RunCache
from repro.experiments.parallel import JobOptions, JobResult, run_specs
from repro.fleet.population import PopulationConfig, SessionPopulation
from repro.fleet.session import run_session
from repro.fleet.shards import (
    batch_job_id,
    execute_fleet_batch,
    run_fleet,
)
from repro.fleet.sketch import FleetAggregator
from repro.verify.checkpoint import Checkpointer

#: Small, fast population shared by the scheduler tests (~20 ms per
#: session; every run below stays well under a second).
CONFIG = PopulationConfig(seed=0, size=10, chars_range=(3, 5))


def test_batch_job_id_round_trip():
    from repro.fleet.shards import _parse_batch_id

    assert batch_job_id(0, 10) == "fleet:0-10"
    assert _parse_batch_id("fleet:5-9") == (5, 9)
    with pytest.raises(ValueError):
        _parse_batch_id("fleet:9-5")
    with pytest.raises(ValueError):
        _parse_batch_id("fig7")


def test_digest_invariant_under_partition_shards_and_order():
    runs = [
        run_fleet(CONFIG, shards=1, batch_size=10),            # one batch
        run_fleet(CONFIG, shards=1, batch_size=3),             # fine partition
        run_fleet(CONFIG, shards=2, batch_size=4),             # stolen shards
        run_fleet(CONFIG, shards=2, batch_size=3,
                  batch_order=[3, 1, 2, 0]),                   # permuted order
    ]
    digests = {fleet.digest for fleet in runs}
    assert len(digests) == 1, digests
    # And identical to an unbatched in-process fold.
    population = SessionPopulation(CONFIG)
    reference = FleetAggregator()
    for index in range(CONFIG.size):
        reference.add_session(run_session(population.spec(index)))
    assert reference.digest() in digests
    # Session/event totals carried through unchanged.
    assert runs[0].aggregate.sessions == CONFIG.size
    assert all(fleet.aggregate.events == runs[0].aggregate.events
               for fleet in runs)


def test_invalid_batch_order_rejected():
    with pytest.raises(ValueError, match="batch_order"):
        run_fleet(CONFIG, shards=1, batch_size=5, batch_order=[0, 0])


def test_cache_serves_repeat_fleet(tmp_path):
    cache = RunCache(tmp_path / "cache")
    first = run_fleet(CONFIG, shards=1, batch_size=4, cache=cache)
    assert all(batch["source"] == "run" for batch in first.batches)
    second = run_fleet(CONFIG, shards=1, batch_size=4, cache=cache)
    assert all(batch["source"] == "cache" for batch in second.batches)
    assert second.digest == first.digest
    assert second.provenance()["batches_from_cache"] == len(second.batches)
    # A different population never reuses these entries.
    other = run_fleet(
        PopulationConfig(seed=1, size=10, chars_range=(3, 5)),
        shards=1, batch_size=4, cache=cache,
    )
    assert all(batch["source"] == "run" for batch in other.batches)
    assert other.digest != first.digest


def test_checkpoint_restores_completed_batches(tmp_path):
    path = tmp_path / "fleet.ckpt.json"
    identity = {"population": CONFIG.fingerprint()}
    first = run_fleet(
        CONFIG, shards=1, batch_size=4,
        checkpoint=Checkpointer(path, identity),
    )
    assert path.exists()
    resumed = run_fleet(
        CONFIG, shards=1, batch_size=4,
        checkpoint=Checkpointer(path, identity),
    )
    assert all(batch["source"] == "checkpoint" for batch in resumed.batches)
    assert resumed.digest == first.digest
    assert resumed.provenance()["batches_from_checkpoint"] == len(
        resumed.batches
    )


def test_checkpoint_keys_namespaced_by_population(tmp_path):
    # Two different populations sharing one checkpoint file can never
    # serve each other's batches (same batch ids, different sessions).
    path = tmp_path / "fleet.ckpt.json"
    identity = {"shared": True}
    first = run_fleet(
        CONFIG, shards=1, batch_size=5,
        checkpoint=Checkpointer(path, identity),
    )
    other_config = PopulationConfig(seed=1, size=10, chars_range=(3, 5))
    other = run_fleet(
        other_config, shards=1, batch_size=5,
        checkpoint=Checkpointer(path, identity),
    )
    assert all(batch["source"] == "run" for batch in other.batches)
    assert other.digest != first.digest


def test_batch_executor_seed_mismatch_is_an_error_result():
    job = execute_fleet_batch(
        "fleet:0-2",
        CONFIG.seed + 1,
        JobOptions(run_kwargs={"population": CONFIG.to_dict()}),
    )
    assert job.failure_kind == "error"
    assert "population seed" in job.error


def test_batch_executor_bad_id_is_an_error_result():
    job = execute_fleet_batch(
        "fig7", 0, JobOptions(run_kwargs={"population": CONFIG.to_dict()})
    )
    assert job.failure_kind == "error"


def test_batch_executor_produces_mergeable_aggregate():
    job = execute_fleet_batch(
        "fleet:0-3", 0, JobOptions(run_kwargs={"population": CONFIG.to_dict()})
    )
    assert job.error is None and not job.cache_hit
    data = job.payload["data"]
    aggregate = FleetAggregator.from_dict(data["aggregate"])
    assert aggregate.sessions == 3
    assert data["digest"] == aggregate.digest()


def test_provenance_and_utilization_shape():
    fleet = run_fleet(CONFIG, shards=1, batch_size=5)
    provenance = fleet.provenance()
    assert provenance["sessions"] == CONFIG.size
    assert provenance["population_fingerprint"] == CONFIG.fingerprint()
    assert provenance["merge"] == "commutative-bucket-add"
    assert provenance["merged_digest"] == fleet.digest
    assert provenance["batches"] == 2
    assert 0.0 < fleet.shard_utilization() <= 1.0
    counters = fleet.metrics["counters"]
    assert counters["repro_fleet_sessions_total"]["samples"][0]["value"] == (
        CONFIG.size
    )
    assert "repro_fleet_batches_total" in counters
    assert "repro_fleet_shard_utilization" in fleet.metrics["gauges"]


def _echo_executor(experiment_id, seed, options):
    return JobResult(
        experiment_id=experiment_id,
        seed=seed,
        rendered=f"echo:{experiment_id}:{options.run_kwargs}",
    )


def test_run_specs_executor_hook_replaces_execute_job():
    results = run_specs(
        [("a", 0), ("b", 1)],
        jobs=1,
        executor=_echo_executor,
        run_kwargs={"tag": "hook"},
    )
    assert [job.rendered for job in results] == [
        "echo:a:{'tag': 'hook'}",
        "echo:b:{'tag': 'hook'}",
    ]
