"""Crash-safe checkpointing: unit store semantics and kill-and-resume.

The headline test SIGKILLs a real experiment subprocess mid-run (after
its second completed unit), resumes it from the on-disk checkpoint in a
fresh process, and requires the resumed run's archived payload to be
byte-identical to an uninterrupted control run — the property the whole
checkpoint design exists to provide.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.verify.checkpoint import Checkpointer, checkpoint_path

IDENTITY = {
    "experiment_id": "exp",
    "seed": 3,
    "code_version": "abc",
    "variant": "",
}


def _path(tmp_path):
    return tmp_path / "exp-seed3.ckpt.json"


def test_record_get_and_order(tmp_path):
    ck = Checkpointer(_path(tmp_path), IDENTITY)
    assert ck.get("a") is None and "a" not in ck and len(ck) == 0
    ck.record("a", {"x": 1})
    ck.record("b", [1, 2])
    assert ck.get("a") == {"x": 1}
    assert "b" in ck and len(ck) == 2
    assert ck.completed == ["a", "b"]


def test_resume_restores_units_and_audit_trail(tmp_path):
    ck = Checkpointer(_path(tmp_path), IDENTITY)
    ck.record("a", {"x": 1})
    ck.record("b", {"y": 2})
    resumed = Checkpointer(_path(tmp_path), IDENTITY)
    assert resumed.resumed_units == ["a", "b"]
    assert resumed.get("b") == {"y": 2}
    assert ck.resumed_units == []  # the writer started fresh


def test_interval_batches_writes(tmp_path):
    path = _path(tmp_path)
    ck = Checkpointer(path, IDENTITY, interval=3)
    ck.record("a", 1)
    ck.record("b", 2)
    assert not path.exists()  # below the cadence: nothing durable yet
    ck.record("c", 3)
    assert path.exists()
    assert Checkpointer(path, IDENTITY).completed == ["a", "b", "c"]


def test_flush_persists_pending_units(tmp_path):
    path = _path(tmp_path)
    ck = Checkpointer(path, IDENTITY, interval=100)
    ck.record("a", 1)
    ck.flush()
    assert Checkpointer(path, IDENTITY).completed == ["a"]


def test_identity_mismatch_is_ignored_entirely(tmp_path):
    path = _path(tmp_path)
    Checkpointer(path, IDENTITY).record("a", 1)
    stale = Checkpointer(path, dict(IDENTITY, seed=4))
    assert stale.resumed_units == [] and len(stale) == 0


def test_corrupt_file_is_ignored(tmp_path):
    path = _path(tmp_path)
    path.write_text("{not json")
    ck = Checkpointer(path, IDENTITY)
    assert ck.resumed_units == []
    ck.record("a", 1)  # and the slot is recoverable
    assert Checkpointer(path, IDENTITY).completed == ["a"]


def test_discard_removes_the_file(tmp_path):
    path = _path(tmp_path)
    ck = Checkpointer(path, IDENTITY)
    ck.record("a", 1)
    assert path.exists()
    ck.discard()
    assert not path.exists()
    ck.discard()  # idempotent


def test_unserializable_payload_fails_fast(tmp_path):
    ck = Checkpointer(_path(tmp_path), IDENTITY)
    with pytest.raises(TypeError):
        ck.record("a", {"fn": object()})
    assert "a" not in ck


def test_payloads_are_isolated_copies(tmp_path):
    ck = Checkpointer(_path(tmp_path), IDENTITY)
    payload = {"xs": [1]}
    ck.record("a", payload)
    payload["xs"].append(2)
    assert ck.get("a") == {"xs": [1]}
    ck.get("a")["xs"].append(3)
    assert ck.get("a") == {"xs": [1]}


def test_interval_must_be_positive(tmp_path):
    with pytest.raises(ValueError):
        Checkpointer(_path(tmp_path), IDENTITY, interval=0)


def test_checkpoint_path_encodes_identity(tmp_path):
    assert checkpoint_path(tmp_path, "fig2", 7).name == "fig2-seed7.ckpt.json"
    assert (
        checkpoint_path(tmp_path, "fig2", 7, "deadbeef").name
        == "fig2-seed7-vdeadbeef.ckpt.json"
    )


# ----------------------------------------------------------------------
# Kill-and-resume: the property the subsystem exists for.
# ----------------------------------------------------------------------
_RUN_SNIPPET = """
import json, os, signal, sys
from repro.core.serialize import save_json
from repro.experiments.parallel import JobOptions, execute_job
from repro.verify.checkpoint import Checkpointer

mode, ckdir, out = sys.argv[1], sys.argv[2], sys.argv[3]

if mode == "kill":
    # SIGKILL the process the moment the second unit has been made
    # durable: a genuine mid-run crash, no cooperative cleanup.
    original = Checkpointer.record
    def record_then_die(self, key, payload):
        original(self, key, payload)
        if len(self.completed) == 2:
            self.flush()
            os.kill(os.getpid(), signal.SIGKILL)
    Checkpointer.record = record_then_die

job = execute_job(
    "ext-faults", 5,
    JobOptions(run_kwargs={"chars": 8, "scenario": "smoke"}, checkpoint_dir=ckdir),
)
assert job.error is None, job.error
save_json(job.payload, out)
"""


def _run_child(mode: str, ckdir: Path, out: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_RUN_SNIPPET),
         mode, str(ckdir), str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_sigkilled_run_resumes_byte_identical(tmp_path):
    ckdir = tmp_path / "ck"
    control_out = tmp_path / "control.json"
    resumed_out = tmp_path / "resumed.json"

    killed = _run_child("kill", str(ckdir / "a"), tmp_path / "unused.json")
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    leftovers = list((ckdir / "a").glob("*.ckpt.json"))
    assert len(leftovers) == 1, "the killed run must leave its snapshot"
    snapshot = json.loads(leftovers[0].read_text())
    assert len(snapshot["completed"]) == 2

    resumed = _run_child("run", str(ckdir / "a"), resumed_out)
    assert resumed.returncode == 0, resumed.stderr
    control = _run_child("run", str(ckdir / "b"), control_out)
    assert control.returncode == 0, control.stderr

    assert resumed_out.read_bytes() == control_out.read_bytes()
    # completed runs consume their snapshots
    assert not list((ckdir / "a").glob("*.ckpt.json"))
    assert not list((ckdir / "b").glob("*.ckpt.json"))
