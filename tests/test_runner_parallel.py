"""Parallel runner: sequential/parallel byte identity, caching, manifests.

Uses only the cheapest experiments (fig1/fig4/ablation-merge, well
under 0.2 s each) so the sweep matrix stays fast.
"""

import multiprocessing
from concurrent.futures import Future

import pytest

from repro.core.runcache import RunCache, code_version, default_cache_dir
from repro.core.serialize import load_json, manifest_from_dict
from repro.experiments import parallel
from repro.experiments.parallel import JobOptions
from repro.experiments.runner import main

CHEAP_IDS = ["fig1", "fig4", "ablation-merge"]


def run_cli(tmp_path, name, *extra):
    out = tmp_path / name
    rc = main([*CHEAP_IDS, "--seed", "0,1", "--save", str(out), *extra])
    return rc, out


# ----------------------------------------------------------------------
# Determinism: --jobs N must be byte-identical to --jobs 1
# ----------------------------------------------------------------------
def test_parallel_matches_sequential_bytes(tmp_path):
    rc_seq, seq = run_cli(tmp_path, "seq", "--jobs", "1", "--no-cache")
    rc_par, par = run_cli(tmp_path, "par", "--jobs", "3", "--no-cache")
    assert rc_seq == 0 and rc_par == 0

    names = sorted(p.name for p in seq.glob("*.json"))
    assert names == sorted(p.name for p in par.glob("*.json"))
    # 3 experiments x 2 seeds, plus the manifest.
    assert len(names) == len(CHEAP_IDS) * 2 + 1
    for name in names:
        if name == "manifest.json":  # wall times legitimately differ
            continue
        assert (seq / name).read_bytes() == (par / name).read_bytes(), name


def test_results_ordered_id_major(tmp_path):
    order = []
    parallel.run_specs(
        [("fig4", 0), ("fig4", 1), ("fig1", 0), ("fig1", 1)],
        jobs=4,
        cache=None,
        on_result=lambda job: order.append((job.experiment_id, job.seed)),
    )
    assert order == [("fig4", 0), ("fig4", 1), ("fig1", 0), ("fig1", 1)]


# ----------------------------------------------------------------------
# Cache behaviour
# ----------------------------------------------------------------------
def test_cache_hit_on_second_run_and_refresh(tmp_path):
    cache = ["--cache-dir", str(tmp_path / "cache")]
    rc, cold = run_cli(tmp_path, "cold", "--jobs", "1", *cache)
    assert rc == 0
    cold_manifest = manifest_from_dict(load_json(cold / "manifest.json"))
    assert all(not r["cache_hit"] for r in cold_manifest["experiments"])

    rc, warm = run_cli(tmp_path, "warm", "--jobs", "1", *cache)
    assert rc == 0
    warm_manifest = manifest_from_dict(load_json(warm / "manifest.json"))
    assert all(r["cache_hit"] for r in warm_manifest["experiments"])

    # Cache hits serve byte-identical archives.
    for run in warm_manifest["experiments"]:
        name = run["saved"]
        assert (cold / name).read_bytes() == (warm / name).read_bytes()

    rc, again = run_cli(tmp_path, "again", "--jobs", "1", "--refresh", *cache)
    assert rc == 0
    again_manifest = manifest_from_dict(load_json(again / "manifest.json"))
    assert all(not r["cache_hit"] for r in again_manifest["experiments"])


def test_execute_job_cache_roundtrip(tmp_path):
    cache = RunCache(tmp_path / "cache", version="testver")
    miss = parallel.execute_job("ablation-merge", 0, JobOptions(cache=cache))
    assert not miss.cache_hit and miss.error is None
    assert miss.payload["kind"] == "experiment-result"
    assert cache.entry_path("ablation-merge", 0).exists()

    hit = parallel.execute_job("ablation-merge", 0, JobOptions(cache=cache))
    assert hit.cache_hit
    assert hit.payload == miss.payload
    assert hit.rendered == miss.rendered
    assert hit.checks == miss.checks

    refreshed = parallel.execute_job(
        "ablation-merge", 0, JobOptions(cache=cache, refresh=True)
    )
    assert not refreshed.cache_hit and refreshed.payload == miss.payload


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = RunCache(tmp_path / "cache", version="testver")
    parallel.execute_job("ablation-merge", 0, JobOptions(cache=cache))
    cache.entry_path("ablation-merge", 0).write_text("{ not json")
    job = parallel.execute_job("ablation-merge", 0, JobOptions(cache=cache))
    assert not job.cache_hit and job.error is None


def test_corrupt_cache_entry_evicted_and_rewritten(tmp_path):
    cache = RunCache(tmp_path / "cache", version="testver")
    parallel.execute_job("ablation-merge", 0, JobOptions(cache=cache))
    path = cache.entry_path("ablation-merge", 0)

    # A truncated entry (killed writer, disk full) is evicted on read
    # so it cannot shadow the slot forever...
    path.write_text('{"kind": "cache-entry", "experiment')
    assert cache.load("ablation-merge", 0) is None
    assert not path.exists()
    # ...and the next execute_job transparently rewrites it.
    job = parallel.execute_job("ablation-merge", 0, JobOptions(cache=cache))
    assert not job.cache_hit and job.error is None
    assert path.exists()
    assert parallel.execute_job(
        "ablation-merge", 0, JobOptions(cache=cache)
    ).cache_hit

    # An entry whose content contradicts its path (here: claiming to be
    # a different experiment) is corruption, not staleness: also evicted.
    path.write_text(path.read_text().replace("ablation-merge", "fig1"))
    assert cache.load("ablation-merge", 0) is None
    assert not path.exists()


def test_missing_cache_entry_is_a_plain_miss_without_eviction(tmp_path):
    # An absent file is the ordinary cold-cache case: load() must not
    # try to evict (nothing to remove) and must leave the dir intact.
    cache = RunCache(tmp_path / "cache", version="testver")
    assert cache.load("ablation-merge", 0) is None


def test_different_code_version_is_a_miss(tmp_path):
    root = tmp_path / "cache"
    parallel.execute_job(
        "ablation-merge", 0, JobOptions(cache=RunCache(root, version="v1"))
    )
    job = parallel.execute_job(
        "ablation-merge", 0, JobOptions(cache=RunCache(root, version="v2"))
    )
    assert not job.cache_hit


def test_code_version_stable_and_short():
    first = code_version()
    assert first == code_version()
    assert len(first) == 16
    int(first, 16)  # hex digest


def test_default_cache_dir_respects_xdg(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "repro"


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
def test_manifest_contents(tmp_path):
    rc, out = run_cli(tmp_path, "run", "--jobs", "2", "--no-cache")
    assert rc == 0
    manifest = manifest_from_dict(load_json(out / "manifest.json"))
    assert manifest["ids"] == CHEAP_IDS
    assert manifest["seeds"] == [0, 1]
    assert manifest["jobs"] == 2
    assert manifest["failures"] == 0
    assert manifest["python"] and manifest["platform"]
    assert manifest["code_version"] == code_version()
    assert manifest["cache"] == {"enabled": False, "dir": None, "refresh": False}

    runs = manifest["experiments"]
    assert len(runs) == len(CHEAP_IDS) * 2
    for run in runs:
        assert run["wall_s"] >= 0
        assert run["error"] is None and run["failed_checks"] == []
        assert (out / run["saved"]).exists()


def test_manifest_validation_rejects_garbage():
    with pytest.raises(ValueError):
        manifest_from_dict({"kind": "experiment-result"})
    with pytest.raises(ValueError):
        manifest_from_dict({"kind": "run-manifest", "jobs": 1})


# ----------------------------------------------------------------------
# Failure surfacing (the executor-swallowing bugfix)
# ----------------------------------------------------------------------
def _install_boom(monkeypatch):
    from repro.experiments import registry

    def boom(seed=0, **kwargs):
        raise RuntimeError("kaboom from the experiment")

    monkeypatch.setitem(registry.EXPERIMENTS, "fig1", boom)


def test_failing_experiment_surfaces_sequentially(tmp_path, monkeypatch, capsys):
    _install_boom(monkeypatch)
    out = tmp_path / "out"
    rc = main(["fig1", "fig4", "--jobs", "1", "--no-cache", "--save", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "kaboom from the experiment" in err
    assert "Traceback" in err
    assert "1 experiment(s) failed" in err

    manifest = manifest_from_dict(load_json(out / "manifest.json"))
    assert manifest["failures"] == 1
    by_id = {run["id"]: run for run in manifest["experiments"]}
    assert "kaboom" in by_id["fig1"]["error"]
    assert by_id["fig1"]["saved"] is None
    # The healthy experiment still ran and archived.
    assert by_id["fig4"]["error"] is None
    assert (out / by_id["fig4"]["saved"]).exists()


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="monkeypatched registry only reaches workers under fork",
)
def test_failing_experiment_surfaces_from_pool(tmp_path, monkeypatch, capsys):
    _install_boom(monkeypatch)
    rc = main(["fig1", "fig4", "--jobs", "2", "--no-cache"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "kaboom from the experiment" in err and "Traceback" in err


def test_broken_worker_becomes_job_error(monkeypatch):
    # Simulate the pool losing a worker entirely (the future raises).
    class DoomedPool:
        def __init__(self, max_workers=None):
            pass

        def submit(self, fn, *args):
            future = Future()
            future.set_exception(RuntimeError("process pool died"))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", DoomedPool)
    results = parallel.run_specs([("fig1", 0), ("fig4", 0)], jobs=2, cache=None)
    assert len(results) == 2
    for job in results:
        assert "process pool died" in job.error
        assert job.failures == 1


# ----------------------------------------------------------------------
# CLI argument handling
# ----------------------------------------------------------------------
def test_bad_seed_rejected(capsys):
    assert main(["fig1", "--seed", "zero"]) == 2
    assert "invalid --seed" in capsys.readouterr().err


def test_smoke_jobs2_save_manifest_parses(tmp_path):
    """The `make experiments-smoke` contract: two cheap experiments,
    --jobs 2 --save, manifest parses and reports zero failures."""
    out = tmp_path / "smoke"
    rc = main(
        ["fig1", "fig4", "--jobs", "2", "--save", str(out),
         "--cache-dir", str(tmp_path / "cache")]
    )
    assert rc == 0
    manifest = manifest_from_dict(load_json(out / "manifest.json"))
    assert manifest["failures"] == 0
    assert len(manifest["experiments"]) == 2
