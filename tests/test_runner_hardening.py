"""Hardened-runner behaviour: timeouts, retries, Ctrl-C, --resume.

These tests exercise the sweep-survival machinery added to
``experiments/parallel.py`` and ``experiments/runner.py``: a hanging
experiment is bounded by the watchdog, a crashing one becomes a
structured failure record, transient pool losses are retried with
exponential backoff, Ctrl-C still writes a manifest, and ``--resume``
re-runs exactly the jobs the previous sweep did not finish.

Real-hang tests through the CLI need the fork start method (the
monkeypatched registry must reach pool workers) and are skipped
elsewhere; the pool-round tests pass a module-level executor instead,
and everything else uses in-process fakes.
"""

import multiprocessing
import os
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.core.serialize import load_json, manifest_from_dict
from repro.experiments import parallel, registry
from repro.experiments.runner import EXIT_INTERRUPTED, main

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="monkeypatched registry only reaches workers under fork",
)


def _hang(seed=0, **kwargs):
    time.sleep(60)


def _crash(seed=0, **kwargs):
    raise RuntimeError("deliberate crash for the hardening test")


def _manifest(out):
    return manifest_from_dict(load_json(out / "manifest.json"))


def _by_id(manifest):
    return {(run["id"], run["seed"]): run for run in manifest["experiments"]}


# ----------------------------------------------------------------------
# Watchdog timeouts
# ----------------------------------------------------------------------
def test_sequential_timeout_via_sigalrm(tmp_path, monkeypatch, capsys):
    if not hasattr(__import__("signal"), "SIGALRM"):
        pytest.skip("no SIGALRM on this platform")
    monkeypatch.setitem(registry.EXPERIMENTS, "fig1", _hang)
    out = tmp_path / "out"
    started = time.monotonic()
    rc = main(
        ["fig1", "fig4", "--jobs", "1", "--no-cache", "--save", str(out),
         "--timeout", "1"]
    )
    assert rc == 1
    assert time.monotonic() - started < 30
    err = capsys.readouterr().err
    assert "watchdog" in err and "[timeout]" in err

    runs = _by_id(_manifest(out))
    assert runs[("fig1", 0)]["failure_kind"] == "timeout"
    assert "exceeded 1.0s" in runs[("fig1", 0)]["error"]
    # The hang did not take fig4 down with it.
    assert runs[("fig4", 0)]["error"] is None
    assert (out / runs[("fig4", 0)]["saved"]).exists()


@fork_only
def test_pool_timeout_terminates_hung_worker(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(registry.EXPERIMENTS, "fig1", _hang)
    out = tmp_path / "out"
    started = time.monotonic()
    rc = main(
        ["fig1", "fig4", "--jobs", "2", "--no-cache", "--save", str(out),
         "--timeout", "1"]
    )
    assert rc == 1
    # Bounded: nowhere near the 60 s the hung experiment wanted.
    assert time.monotonic() - started < 30
    runs = _by_id(_manifest(out))
    assert runs[("fig1", 0)]["failure_kind"] == "timeout"
    assert runs[("fig4", 0)]["error"] is None


def test_timeout_must_be_positive(capsys):
    assert main(["fig1", "--timeout", "0"]) == 2
    assert "--timeout must be positive" in capsys.readouterr().err


def test_retries_must_be_nonnegative(capsys):
    assert main(["fig1", "--retries", "-1"]) == 2
    assert "--retries must be >= 0" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Retry with exponential backoff (transient pool failures only)
# ----------------------------------------------------------------------
class _FlakyPool:
    """Every future of the first ``fail_rounds`` pools raises; later
    pools run the job in-process.  Class-level counter because
    run_specs constructs a fresh pool per round.  ``submit`` returns a
    real, already-resolved ``Future``, as ``futures.wait`` requires."""

    rounds = 0
    fail_rounds = 1

    def __init__(self, max_workers=None):
        type(self).rounds += 1
        self._fail = type(self).rounds <= type(self).fail_rounds

    def submit(self, fn, *args):
        future = Future()
        if self._fail:
            future.set_exception(RuntimeError("worker lost (simulated)"))
        else:
            future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.fixture
def flaky_pool(monkeypatch):
    _FlakyPool.rounds = 0
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _FlakyPool)
    return _FlakyPool


def test_transient_pool_failure_retried_and_succeeds(flaky_pool):
    flaky_pool.fail_rounds = 1
    naps = []
    results = parallel.run_specs(
        [("ablation-merge", 0), ("ablation-merge", 1)], jobs=2, cache=None,
        retries=2, backoff_s=0.5, sleep=naps.append,
    )
    assert [job.error for job in results] == [None, None]
    assert [job.attempts for job in results] == [2, 2]
    assert naps == [0.5]  # one retry round, base backoff


def test_backoff_doubles_per_round(flaky_pool):
    flaky_pool.fail_rounds = 99  # never recovers
    naps = []
    results = parallel.run_specs(
        [("ablation-merge", 0), ("ablation-merge", 1)], jobs=2, cache=None,
        retries=2, backoff_s=1.0, sleep=naps.append,
    )
    for job in results:
        assert job.failure_kind == "pool"
        assert "worker lost" in job.error
        assert job.attempts == 3
    assert naps == [1.0, 2.0]


def test_no_retries_by_default(flaky_pool):
    flaky_pool.fail_rounds = 1
    naps = []
    results = parallel.run_specs(
        [("ablation-merge", 0), ("ablation-merge", 1)], jobs=2, cache=None,
        sleep=naps.append,
    )
    for job in results:
        assert job.failure_kind == "pool"
        assert job.attempts == 1
    assert naps == []


def test_deterministic_experiment_error_not_retried(monkeypatch):
    monkeypatch.setitem(registry.EXPERIMENTS, "fig1", _crash)
    naps = []
    (job,) = parallel.run_specs(
        [("fig1", 0)], jobs=1, cache=None,
        retries=3, backoff_s=1.0, sleep=naps.append,
    )
    assert job.failure_kind == "error"
    assert job.attempts == 1
    assert naps == []  # "error" is deterministic: retrying is waste


def test_streaming_order_preserved_across_retries(flaky_pool):
    flaky_pool.fail_rounds = 1
    order = []
    parallel.run_specs(
        [("fig4", 0), ("fig1", 0)], jobs=2, cache=None,
        retries=1, backoff_s=0.0, sleep=lambda s: None,
        on_result=lambda job: order.append((job.experiment_id, job.error is None)),
    )
    # Both failed round 1, both retried; delivery stays submission-order.
    assert order == [("fig4", True), ("fig1", True)]


# ----------------------------------------------------------------------
# The pool round: at most one live submission per worker
# ----------------------------------------------------------------------
#: Sleep per id prefix for :func:`_napping_executor` (default 50 ms).
_NAPS = {"hang": 60.0, "nap": 0.4}


def _napping_executor(experiment_id, seed, options):
    """Nap per :data:`_NAPS`; ``run_kwargs["pid_dir"]`` records the
    worker's pid under the job id first."""
    started = time.perf_counter()
    if options.run_kwargs:
        pid_file = Path(options.run_kwargs["pid_dir"]) / experiment_id
        pid_file.write_text(str(os.getpid()))
    time.sleep(_NAPS.get(experiment_id.split("-")[0], 0.05))
    return parallel.JobResult(
        experiment_id=experiment_id,
        seed=seed,
        rendered="ok",
        started_monotonic=started,
    )


def test_queue_time_never_counts_against_the_watchdog():
    """Eight 0.4 s jobs on two workers under a 1 s watchdog all finish:
    each job is timed from its hand-off to an idle worker, and
    ``queue_s`` is the wait before that hand-off."""
    results = parallel.run_specs(
        [(f"nap-{i}", 0) for i in range(8)],
        jobs=2, timeout_s=1.0, hedge=True, executor=_napping_executor,
    )
    assert [job.failure_kind for job in results] == [None] * 8
    expected = [0.0, 0.0, 0.4, 0.4, 0.8, 0.8, 1.2, 1.2]
    for job, queued in zip(results, expected):
        assert abs(job.queue_s - queued) < 0.2, (job.experiment_id, job.queue_s)


def test_job_behind_hung_workers_is_retried():
    """Two hung jobs hold both workers: the short job queued behind
    them is a retryable pool failure, not a timeout, and runs on the
    retry round's fresh pool."""
    started = time.monotonic()
    hang_a, hang_b, short = parallel.run_specs(
        [("hang-a", 0), ("hang-b", 0), ("short", 0)],
        jobs=2, timeout_s=0.5, retries=1, backoff_s=0.0,
        sleep=lambda seconds: None, executor=_napping_executor,
    )
    assert time.monotonic() - started < 30
    assert hang_a.attempt_history == ["timeout"]
    assert hang_b.attempt_history == ["timeout"]
    assert short.attempt_history == ["pool", "ok"]
    assert short.error is None


def test_hung_worker_is_terminated_at_round_end(tmp_path):
    hung, short = parallel.run_specs(
        [("hang-a", 0), ("short", 0)],
        jobs=2, timeout_s=0.5, run_kwargs={"pid_dir": str(tmp_path)},
        executor=_napping_executor,
    )
    assert hung.failure_kind == "timeout" and short.error is None
    with pytest.raises(ProcessLookupError):
        os.kill(int((tmp_path / "hang-a").read_text()), 0)


class _BrokenPool:
    """A pool that is already broken: every ``submit`` raises."""

    def __init__(self, max_workers=None):
        pass

    def submit(self, fn, *args):
        raise BrokenProcessPool("pool broke before the job was sent")

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_failed_submit_is_a_pool_failure(monkeypatch):
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _BrokenPool)
    results = parallel.run_specs([("fig1", 0), ("fig4", 0)], jobs=2, cache=None)
    assert [job.failure_kind for job in results] == ["pool", "pool"]
    assert all("BrokenProcessPool" in job.error for job in results)


# ----------------------------------------------------------------------
# Ctrl-C: cancelled sweep still yields a manifest
# ----------------------------------------------------------------------
def test_interrupt_writes_partial_manifest(tmp_path, monkeypatch, capsys):
    def _interrupt(seed=0, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setitem(registry.EXPERIMENTS, "fig4", _interrupt)
    out = tmp_path / "out"
    rc = main(["fig1", "fig4", "ablation-merge", "--jobs", "1", "--no-cache",
               "--save", str(out)])
    assert rc == EXIT_INTERRUPTED
    assert "writing partial manifest" in capsys.readouterr().err

    manifest = _manifest(out)
    assert manifest["interrupted"] is True
    runs = _by_id(manifest)
    # fig1 completed before the ^C and its archive was kept ...
    assert runs[("fig1", 0)]["error"] is None
    assert (out / runs[("fig1", 0)]["saved"]).exists()
    # ... while fig4 and everything after it are interruption records.
    assert runs[("fig4", 0)]["failure_kind"] == "interrupted"
    assert runs[("ablation-merge", 0)]["failure_kind"] == "interrupted"
    assert runs[("ablation-merge", 0)]["saved"] is None


def test_sweep_interrupted_carries_snapshot():
    def _interrupt(seed=0, **kwargs):
        raise KeyboardInterrupt

    real = registry.EXPERIMENTS["fig4"]
    registry.EXPERIMENTS["fig4"] = _interrupt
    try:
        with pytest.raises(parallel.SweepInterrupted) as excinfo:
            parallel.run_specs([("fig1", 0), ("fig4", 0), ("ablation-merge", 0)],
                               jobs=1, cache=None)
    finally:
        registry.EXPERIMENTS["fig4"] = real
    snapshot = excinfo.value.results
    assert [job.experiment_id for job in snapshot] == [
        "fig1", "fig4", "ablation-merge"
    ]
    assert snapshot[0].error is None
    assert snapshot[1].failure_kind == "interrupted"
    assert snapshot[2].failure_kind == "interrupted"


# ----------------------------------------------------------------------
# --resume: re-run exactly the missing/failed jobs
# ----------------------------------------------------------------------
def test_resume_reruns_only_failures(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(registry.EXPERIMENTS, "fig1", _crash)
    out = tmp_path / "out"
    rc = main(["fig1", "fig4", "ablation-merge", "--jobs", "1", "--no-cache",
               "--save", str(out)])
    assert rc == 1
    first = _by_id(_manifest(out))
    assert first[("fig1", 0)]["failure_kind"] == "error"
    fig4_archive = (out / first[("fig4", 0)]["saved"]).read_bytes()

    # Heal the experiment, then resume from the failed manifest.
    monkeypatch.undo()
    rc = main(["--resume", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "resuming: 2 job(s) preserved, 1 to run" in err

    merged = _manifest(out)
    assert merged["failures"] == 0
    runs = _by_id(merged)
    assert set(runs) == {("fig1", 0), ("fig4", 0), ("ablation-merge", 0)}
    # Preserved entries are flagged and their archives untouched.
    assert runs[("fig4", 0)]["resumed"] is True
    assert (out / runs[("fig4", 0)]["saved"]).read_bytes() == fig4_archive
    # The healed job ran fresh and archived next to the manifest.
    assert runs[("fig1", 0)]["resumed"] is False
    assert runs[("fig1", 0)]["error"] is None
    assert (out / runs[("fig1", 0)]["saved"]).exists()


def test_resume_reruns_job_with_missing_archive(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["fig1", "fig4", "--jobs", "1", "--no-cache", "--save", str(out)])
    assert rc == 0
    runs = _by_id(_manifest(out))
    (out / runs[("fig1", 0)]["saved"]).unlink()

    rc = main(["--resume", str(out / "manifest.json")])
    assert rc == 0
    assert "resuming: 1 job(s) preserved, 1 to run" in capsys.readouterr().err
    runs = _by_id(_manifest(out))
    assert (out / runs[("fig1", 0)]["saved"]).exists()
    assert runs[("fig1", 0)]["resumed"] is False
    assert runs[("fig4", 0)]["resumed"] is True


def test_resume_after_interrupt_completes_the_sweep(tmp_path, monkeypatch):
    def _interrupt(seed=0, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setitem(registry.EXPERIMENTS, "fig4", _interrupt)
    out = tmp_path / "out"
    assert main(["fig1", "fig4", "--jobs", "1", "--no-cache",
                 "--save", str(out)]) == EXIT_INTERRUPTED
    monkeypatch.undo()

    assert main(["--resume", str(out)]) == 0
    manifest = _manifest(out)
    assert "interrupted" not in manifest
    assert manifest["failures"] == 0
    runs = _by_id(manifest)
    assert runs[("fig1", 0)]["resumed"] is True
    assert runs[("fig4", 0)]["error"] is None


def test_resume_nothing_to_do(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["fig1", "--jobs", "1", "--no-cache", "--save", str(out)]) == 0
    assert main(["--resume", str(out)]) == 0
    assert "resuming: 1 job(s) preserved, 0 to run" in capsys.readouterr().err


def test_resume_missing_manifest_rejected(tmp_path, capsys):
    assert main(["--resume", str(tmp_path / "nowhere")]) == 2
    assert "cannot resume" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The ISSUE acceptance flow: hang + crash in one sweep, then resume
# ----------------------------------------------------------------------
@fork_only
def test_acceptance_hang_crash_sweep_then_resume(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(registry.EXPERIMENTS, "fig1", _hang)
    monkeypatch.setitem(registry.EXPERIMENTS, "fig4", _crash)
    out = tmp_path / "out"
    rc = main(["fig1", "fig4", "ablation-merge", "--jobs", "2", "--no-cache",
               "--save", str(out), "--timeout", "1"])
    assert rc == 1

    runs = _by_id(_manifest(out))
    assert runs[("fig1", 0)]["failure_kind"] == "timeout"
    assert runs[("fig4", 0)]["failure_kind"] == "error"
    assert "deliberate crash" in runs[("fig4", 0)]["error"]
    assert runs[("ablation-merge", 0)]["error"] is None

    monkeypatch.undo()
    rc = main(["--resume", str(out)])
    assert rc == 0
    assert "resuming: 1 job(s) preserved, 2 to run" in capsys.readouterr().err
    merged = _manifest(out)
    assert merged["failures"] == 0
    runs = _by_id(merged)
    assert runs[("ablation-merge", 0)]["resumed"] is True
    assert runs[("fig1", 0)]["error"] is None
    assert runs[("fig4", 0)]["error"] is None
