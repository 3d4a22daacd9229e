"""Atomic artifact writes and the chaos write-fault hook.

The acceptance bar: a reader can never observe a torn file from
:func:`atomic_write_text` — either the previous complete content or the
new complete content — and a simulated ENOSPC leaves the destination
untouched with no temp-file debris.
"""

import json
import os

import pytest

from repro.core.atomicio import (
    atomic_write_json,
    atomic_write_text,
    write_fault_scope,
)


def test_writes_and_replaces(tmp_path):
    target = tmp_path / "artifact.json"
    atomic_write_text(target, "first")
    assert target.read_text() == "first"
    atomic_write_text(target, "second")
    assert target.read_text() == "second"
    # No temp debris: the only entry is the artifact itself.
    assert os.listdir(tmp_path) == ["artifact.json"]


def test_json_wrapper_round_trips(tmp_path):
    target = tmp_path / "payload.json"
    payload = {"b": [1, 2, 3], "a": {"nested": True}}
    atomic_write_json(target, payload, indent=2)
    assert json.loads(target.read_text()) == payload


def test_json_serialization_failure_touches_nothing(tmp_path):
    target = tmp_path / "payload.json"
    atomic_write_json(target, {"ok": 1})
    with pytest.raises(TypeError):
        atomic_write_json(target, {"bad": object()})
    assert json.loads(target.read_text()) == {"ok": 1}
    assert os.listdir(tmp_path) == ["payload.json"]


def test_enospc_hook_preserves_previous_content(tmp_path):
    target = tmp_path / "artifact.json"
    atomic_write_text(target, "intact")

    def refuse(path, text):
        raise OSError(28, f"chaos enospc: {path}")

    with write_fault_scope(refuse), pytest.raises(OSError):
        atomic_write_text(target, "lost")
    # The destination is exactly as it was, and nothing leaked.
    assert target.read_text() == "intact"
    assert os.listdir(tmp_path) == ["artifact.json"]


def test_failure_mid_write_leaves_no_temp_file(tmp_path):
    """A BaseException unwinding mid-write (the SIGALRM watchdog case)
    must remove its temporary file."""
    target = tmp_path / "artifact.json"

    class Boom(BaseException):
        pass

    class Exploding(str):
        pass

    # Trigger the failure *inside* the temp-file write by handing an
    # object whose str conversion happens late: simplest is a hook that
    # raises a BaseException (not OSError) after mkstemp would run —
    # instead we patch os.replace to blow up post-write.
    real_replace = os.replace

    def exploding_replace(src, dst):
        raise Boom()

    os.replace = exploding_replace
    try:
        with pytest.raises(Boom):
            atomic_write_text(target, "never-published")
    finally:
        os.replace = real_replace
    assert not target.exists()
    assert os.listdir(tmp_path) == []


def test_corrupting_hook_survives_rename_but_is_complete(tmp_path):
    """A torn-write chaos hook produces a *complete* (renamed) file with
    corrupted bytes — the nastier failure load-time validation must
    catch; the write machinery itself stays atomic."""
    target = tmp_path / "cache.json"

    def tear(path, text):
        return text[: len(text) // 2] + "\x00<<torn>>"

    with write_fault_scope(tear):
        atomic_write_text(target, json.dumps({"digest": "abc", "data": [1] * 50}))
    content = target.read_text()
    assert content.endswith("\x00<<torn>>")
    with pytest.raises(json.JSONDecodeError):
        json.loads(content)


def test_nested_scope_restores_the_outer_hook(tmp_path):
    """An inner scope replaces the hook for its block only, and the
    outer hook is back after it, whether the block returns or raises."""
    target = tmp_path / "artifact.json"

    def outer(path, text):
        return text + "+outer"

    def inner(path, text):
        return text + "+inner"

    with write_fault_scope(outer):
        with write_fault_scope(inner):
            atomic_write_text(target, "a")
            assert target.read_text() == "a+inner"
        atomic_write_text(target, "b")
        assert target.read_text() == "b+outer"
        with pytest.raises(RuntimeError), write_fault_scope(inner):
            raise RuntimeError("job failed")
        atomic_write_text(target, "c")
        assert target.read_text() == "c+outer"
    atomic_write_text(target, "d")
    assert target.read_text() == "d"


def test_hook_scope_restoration_via_chaos_harness(tmp_path):
    """The chaos harness installs its write hook for the job's duration
    only — afterwards writes are clean again (no leakage into the next
    sequential job)."""
    from repro.chaos import ChaosPlan, ChaosSpec, chaos_harness, chaos_payload

    plan = ChaosPlan(
        "torn",
        (
            ChaosSpec.make(
                "tear", "corrupt-write", params={"scope": "all"}
            ),
        ),
    )
    target = tmp_path / "artifact.json"
    with chaos_harness(chaos_payload(plan, seed=0), "job:0"):
        atomic_write_text(target, "payload-bytes-here")
        assert "chaos-torn-write" in target.read_text()
    atomic_write_text(target, "payload-bytes-here")
    assert target.read_text() == "payload-bytes-here"


def test_checkpoint_scope_spares_cache_writes(tmp_path):
    """Scope filtering: a checkpoint-scoped fault tears only
    ``*.ckpt.json`` files."""
    from repro.chaos import ChaosPlan, ChaosSpec, chaos_harness, chaos_payload

    plan = ChaosPlan(
        "torn-ckpt",
        (
            ChaosSpec.make(
                "tear", "corrupt-write", params={"scope": "checkpoint"}
            ),
        ),
    )
    cache_file = tmp_path / "entry.json"
    ckpt_file = tmp_path / "unit.ckpt.json"
    with chaos_harness(chaos_payload(plan, seed=0), "job:0"):
        atomic_write_text(cache_file, "cache-entry-bytes")
        atomic_write_text(ckpt_file, "checkpoint-bytes-here")
    assert cache_file.read_text() == "cache-entry-bytes"
    assert "chaos-torn-write" in ckpt_file.read_text()
