"""Edge cases of the sequential-round SIGALRM watchdog.

The watchdog shares one process-wide ``ITIMER_REAL`` with whoever armed
it before us (an outer harness, a test runner's own timeout).  The
contract: after a watchdogged sequential round the outer timer is
re-armed with its *remaining* time (decremented by however long our
jobs ran), an already-expired outer timer still fires (re-armed at a
near-zero epsilon rather than silently disarmed), and a timeout landing
mid-artifact-write leaves no torn files or temp debris behind.

These tests arm real timers, so they only run where SIGALRM exists and
they always disarm in ``finally``.
"""

import os
import signal
import time
from pathlib import Path

import pytest

from repro.core.atomicio import atomic_write_text
from repro.experiments.parallel import JobResult, run_specs

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="platform has no SIGALRM"
)


def _quick_executor(experiment_id, seed, options):
    return JobResult(experiment_id=experiment_id, seed=seed, rendered="ok")


def _napping_executor(experiment_id, seed, options):
    time.sleep(0.25)
    return JobResult(experiment_id=experiment_id, seed=seed, rendered="ok")


#: Set by the slow-write test so the module-level executor knows where
#: to write (sequential rounds run in-process, so a global is safe).
_WRITE_DIR = None


def _slow_write_executor(experiment_id, seed, options):
    """Stall inside :func:`atomic_write_text`'s fsync — the watchdog's
    ``_JobTimeout`` unwinds through the write's cleanup path."""
    target = Path(_WRITE_DIR) / "entry.json"
    real_fsync = os.fsync

    def stalled_fsync(fd):
        time.sleep(30.0)

    os.fsync = stalled_fsync
    try:
        atomic_write_text(target, "{" + "x" * 4096)
    finally:
        os.fsync = real_fsync
    return JobResult(experiment_id=experiment_id, seed=seed, rendered="ok")


@pytest.fixture(autouse=True)
def _disarm():
    """Never leak a timer or handler into the next test."""
    yield
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def test_outer_timer_restored_with_decremented_remaining():
    fired = []
    signal.signal(signal.SIGALRM, lambda s, f: fired.append(s))
    signal.setitimer(signal.ITIMER_REAL, 60.0)
    results = run_specs(
        [("quick", 0)],
        jobs=1,
        timeout_s=5.0,
        executor=_quick_executor,
    )
    remaining, interval = signal.getitimer(signal.ITIMER_REAL)
    assert results[0].error is None
    assert not fired  # the outer alarm never fired spuriously
    # Re-armed, with the job's elapsed time already deducted.
    assert 0.0 < remaining < 60.0
    assert interval == 0.0


def test_expired_outer_timer_still_fires():
    """An outer timer that should have fired while our watchdog owned
    ``ITIMER_REAL`` is re-armed at a near-zero epsilon — delayed, never
    swallowed (``setitimer(0)`` would disarm it silently)."""
    fired = []
    signal.signal(signal.SIGALRM, lambda s, f: fired.append(s))
    signal.setitimer(signal.ITIMER_REAL, 0.05)  # expires during the job
    results = run_specs(
        [("nap", 0)],
        jobs=1,
        timeout_s=5.0,
        executor=_napping_executor,
    )
    assert results[0].error is None
    deadline = time.monotonic() + 2.0
    while not fired and time.monotonic() < deadline:
        time.sleep(0.01)
    assert fired  # the pending alarm was delivered, late but not lost


def test_no_outer_timer_leaves_alarm_disarmed():
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    results = run_specs(
        [("quick", 0)],
        jobs=1,
        timeout_s=5.0,
        executor=_quick_executor,
    )
    assert results[0].error is None
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_timeout_during_artifact_write_leaves_no_debris(tmp_path):
    global _WRITE_DIR
    _WRITE_DIR = str(tmp_path)
    try:
        results = run_specs(
            [("stuck-writer", 0)],
            jobs=1,
            timeout_s=0.3,
            executor=_slow_write_executor,
        )
    finally:
        _WRITE_DIR = None
    job = results[0]
    assert job.failure_kind == "timeout"
    assert job.attempt_history == ["timeout"]
    assert "watchdog" in job.error
    # The interrupted write published nothing: no target, no temp file.
    assert os.listdir(tmp_path) == []


def test_watchdog_timeout_is_not_retried():
    """Timeouts are deterministic badness, not transient pool loss —
    retry rounds must not re-run them."""
    results = run_specs(
        [("nap", 0)],
        jobs=1,
        timeout_s=0.05,
        retries=2,
        backoff_s=0.0,
        sleep=lambda seconds: None,
        executor=_napping_executor,
    )
    job = results[0]
    assert job.failure_kind == "timeout"
    assert job.attempts == 1
    assert job.attempt_history == ["timeout"]
