"""Benchmark: cold vs warm-cache experiment sweeps.

The acceptance bar for the result cache: serving a whole sweep from a
warm cache must cost < 20% of the cold run that populated it, while
returning byte-identical archival payloads.
"""

import time

from repro.core.runcache import RunCache
from repro.experiments.parallel import run_specs

SWEEP_IDS = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig6",
    "sec25",
    "ablation-merge",
]
SWEEP_SPECS = [(experiment_id, 0) for experiment_id in SWEEP_IDS]


def test_warm_cache_sweep(benchmark, tmp_path_factory):
    cache = RunCache(tmp_path_factory.mktemp("runcache"), version="bench")

    started = time.perf_counter()
    cold = run_specs(SWEEP_SPECS, jobs=1, cache=cache)
    cold_s = time.perf_counter() - started
    assert all(job.error is None and not job.cache_hit for job in cold)

    warm = benchmark(lambda: run_specs(SWEEP_SPECS, jobs=1, cache=cache))
    assert all(job.cache_hit for job in warm)

    started = time.perf_counter()
    timed = run_specs(SWEEP_SPECS, jobs=1, cache=cache)
    warm_s = time.perf_counter() - started

    # Byte-identity of what --save would write, cold vs warm.
    for before, after in zip(cold, timed):
        assert after.payload == before.payload
        assert after.rendered == before.rendered

    benchmark.extra_info["cold_s"] = round(cold_s, 3)
    benchmark.extra_info["warm_s"] = round(warm_s, 3)
    benchmark.extra_info["speedup"] = round(cold_s / max(warm_s, 1e-9), 1)
    assert warm_s < 0.2 * cold_s, (
        f"warm sweep {warm_s:.3f}s not < 20% of cold {cold_s:.3f}s"
    )
