"""Atomic durable writes: the single choke point for artifact persistence.

Every durable artifact this repo produces — result-cache entries,
crash-safe checkpoints, saved payload archives, run manifests, metrics
snapshots, golden records — must survive two harness-level disasters
without ever exposing a torn file:

* **Kill mid-write** (SIGKILL, watchdog termination, ``os._exit`` chaos):
  readers may observe the *previous* complete file or no file, never a
  prefix of the new one.
* **Disk-full mid-write** (ENOSPC): the write fails cleanly, the
  temporary file is removed, and the destination is untouched.

:func:`atomic_write_text` implements the classic discipline — write to
a same-directory temporary file, flush, ``fsync`` the file, then
``os.replace`` over the destination (atomic on POSIX), with a
best-effort directory fsync so the rename itself is durable.  Callers
that previously open-coded temp+rename (:mod:`repro.core.runcache`,
:mod:`repro.verify.checkpoint`) and callers that wrote in place
(:func:`repro.core.serialize.save_json`, the runner's ``--metrics-out``,
the golden-record blesser) all route through here, so the chaos
harness's torn-write tests cover every one of them at once.

**Chaos interception.**  :func:`write_fault_scope` routes the writes
of its block through a hook ``hook(path, data) -> data`` that may raise
``OSError`` (simulated ENOSPC) or return corrupted bytes (simulated
torn content that *survives* the rename — the nastier failure, since
the file then looks complete), and restores the enclosing scope's hook
on exit, like the fast-forward and obs scopes.  The hook is how
:class:`repro.chaos.engine.ChaosEngine` drives deterministic
write-level faults inside workers; production code never sets one.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Callable, Iterator, Optional, Union

__all__ = [
    "atomic_write_json",
    "atomic_write_text",
    "write_fault_scope",
]

WriteFault = Callable[[Path, str], str]

#: Write-fault hook of the current scope (chaos injection only).  ``None``
#: in production.  Signature: ``hook(path: Path, data: str) -> str``; may
#: raise ``OSError`` to simulate a failed write.
_write_fault: ContextVar[Optional[WriteFault]] = ContextVar(
    "write_fault", default=None
)


@contextmanager
def write_fault_scope(hook: Optional[WriteFault]) -> Iterator[None]:
    """Pass every write in the block through ``hook`` (``None``: no
    hook), then restore the enclosing scope's hook — so one job's chaos
    never leaks into the next job of a sequential sweep."""
    token = _write_fault.set(hook)
    try:
        yield
    finally:
        _write_fault.reset(token)


def atomic_write_text(
    path: Union[str, Path], text: str, *, fsync: bool = True
) -> Path:
    """Atomically replace ``path``'s content with ``text``.

    Readers can never observe a partial write: the data lands in a
    temporary file in the same directory (same filesystem, so the
    rename is atomic) and is fsynced before ``os.replace`` publishes
    it.  On any failure — including a simulated ENOSPC from the chaos
    hook, or a watchdog alarm unwinding mid-write — the temporary file
    is removed and the original ``path`` is left exactly as it was.

    ``fsync=False`` skips the durability syncs (for tests and
    throwaway scratch output); atomicity is unaffected.
    """
    path = Path(path)
    hook = _write_fault.get()
    if hook is not None:
        # The hook may raise (ENOSPC) or corrupt the payload (a torn
        # write that survives the rename).  Either way the *mechanism*
        # below stays atomic — that is exactly what the chaos tests
        # assert.
        text = hook(path, text)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        # BaseException: a SIGALRM watchdog (_JobTimeout) unwinding a
        # hung write must clean up its temp file too.
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if fsync:
        # Durability of the rename itself; best-effort because some
        # filesystems refuse directory fsync.
        try:
            dir_fd = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError:
            pass
    return path


def atomic_write_json(
    path: Union[str, Path],
    payload,
    *,
    indent: Optional[int] = None,
    sort_keys: bool = True,
    fsync: bool = True,
) -> Path:
    """JSON convenience wrapper over :func:`atomic_write_text`.

    Serialization happens *before* any file is touched, so an
    unserializable payload can never leave a temp file behind.
    """
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys)
    return atomic_write_text(path, text, fsync=fsync)
