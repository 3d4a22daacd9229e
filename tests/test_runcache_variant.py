"""Fault-plan identity in run-cache keys (the caching regression).

The defect these tests pin down: before variants, a cached *healthy*
``ext-faults`` run could be served for a request that asked for a fault
scenario (or vice versa), because the cache key was only
``(id, seed, code_version)``.  Now the key carries a variant digest of
the run-time configuration, with fault scenarios contributing their
plan *fingerprint* (content identity), not their name.
"""

from __future__ import annotations

import pytest

from repro.core.runcache import RunCache, variant_key
from repro.experiments.parallel import JobOptions, execute_job, job_variant
from repro.faults import get_scenario


def test_variant_key_empty_and_stable():
    assert variant_key(None) == ""
    assert variant_key({}) == ""
    assert variant_key({"a": 1, "b": 2}) == variant_key({"b": 2, "a": 1})
    assert variant_key({"a": 1}) != variant_key({"a": 2})


def test_job_variant_expands_scenario_to_plan_fingerprint():
    kwargs, variant = job_variant("ext-faults", {"scenario": "smoke"})
    assert kwargs == {"scenario": "smoke"}
    assert variant == variant_key(
        {"fault-plan": get_scenario("smoke").fingerprint()}
    )
    # different plans, different variants
    _, degraded = job_variant("ext-faults", {"scenario": "degraded"})
    assert degraded != variant


def test_job_variant_drops_kwargs_the_experiment_rejects():
    kwargs, variant = job_variant("fig2", {"scenario": "smoke"})
    assert kwargs == {} and variant == ""


def test_entry_paths_are_disjoint_per_variant(tmp_path):
    cache = RunCache(tmp_path, version="v1")
    healthy = cache.entry_path("ext-faults", 0)
    faulted = cache.entry_path("ext-faults", 0, "abc123")
    assert healthy != faulted
    assert "vabc123" in faulted.name


def test_load_rejects_entry_with_wrong_variant(tmp_path):
    """Even a hand-moved file cannot cross the healthy/faulted line:
    the entry re-asserts its own variant on load and is evicted."""
    cache = RunCache(tmp_path, version="v1")
    job = execute_job(
        "ext-faults",
        11,
        JobOptions(
            cache=cache,
            run_kwargs={"scenario": "smoke", "chars": 6, "os_names": ("nt40",)},
        ),
    )
    assert job.error is None
    _, variant = job_variant(
        "ext-faults", {"scenario": "smoke", "chars": 6, "os_names": ("nt40",)}
    )
    stored = cache.entry_path("ext-faults", 11, variant)
    assert stored.exists()
    # masquerade as the healthy slot
    healthy_slot = cache.entry_path("ext-faults", 11)
    healthy_slot.write_bytes(stored.read_bytes())
    assert cache.load("ext-faults", 11) is None
    assert not healthy_slot.exists()  # evicted as corruption


def test_cached_healthy_run_never_serves_a_faulted_request(tmp_path):
    """The headline regression, end to end through execute_job."""
    cache = RunCache(tmp_path)
    base_kwargs = {"chars": 6, "os_names": ("nt40",)}

    healthy = execute_job(
        "ext-faults", 9, JobOptions(cache=cache, run_kwargs=base_kwargs)
    )
    assert healthy.error is None and not healthy.cache_hit

    # A faulted request must MISS the healthy entry and run fresh...
    faulted = execute_job(
        "ext-faults",
        9,
        JobOptions(cache=cache, run_kwargs=dict(base_kwargs, scenario="smoke")),
    )
    assert faulted.error is None and not faulted.cache_hit
    assert faulted.payload != healthy.payload

    # ...and vice versa: each now hits only its own slot.
    healthy_again = execute_job(
        "ext-faults", 9, JobOptions(cache=cache, run_kwargs=base_kwargs)
    )
    assert healthy_again.cache_hit
    assert healthy_again.payload == healthy.payload
    faulted_again = execute_job(
        "ext-faults",
        9,
        JobOptions(cache=cache, run_kwargs=dict(base_kwargs, scenario="smoke")),
    )
    assert faulted_again.cache_hit
    assert faulted_again.payload == faulted.payload


def test_default_configuration_uses_the_unsuffixed_slot(tmp_path):
    cache = RunCache(tmp_path)
    job = execute_job("fig4", 0, JobOptions(cache=cache))
    assert job.error is None
    assert cache.entry_path("fig4", 0).exists()
    hit = execute_job("fig4", 0, JobOptions(cache=cache))
    assert hit.cache_hit


def test_fast_forward_setting_stays_out_of_the_cache_key(tmp_path):
    """The fast path is bit-identical to the slow one, so an entry
    cached with fast-forward on serves a run with it off."""
    cache = RunCache(tmp_path)
    fast = execute_job("fig4", 0, JobOptions(cache=cache, fast_forward=True))
    assert fast.error is None and not fast.cache_hit
    slow = execute_job("fig4", 0, JobOptions(cache=cache, fast_forward=False))
    assert slow.cache_hit
    assert slow.payload == fast.payload
