"""Operating-system substrate: a simulated Windows family.

One kernel mechanism (scheduler, message queues, GDI batching,
synchronous I/O, buffer cache) with three *personalities* — NT 3.51,
NT 4.0, Windows 95 — that encode exactly the architectural differences
the paper attributes its measured results to.
"""

from . import nt351, nt40, win95
from .filesystem import BufferCache, FileSystem, SimFile
from .gdi import GdiBatch
from .hooks import ApiCallRecord, HookManager
from .iomgr import IoManager, IoPlan
from .kernel import Kernel, KernelPanic
from .loader import ProgramImage, load_image
from .messages import WM, Message, MessageQueue
from .personality import OSPersonality, annotate_proportional
from .scheduler import Scheduler
from .syscalls import (
    Compute,
    GdiFlush,
    GdiOp,
    GetMessage,
    KillTimer,
    PeekMessage,
    ReadCycleCounter,
    SetTimer,
    Syscall,
    SyncRead,
    SyncWrite,
)
from .system import WindowsSystem
from .threads import (
    BACKGROUND_PRIORITY,
    IDLE_PRIORITY,
    INPUT_PRIORITY,
    NORMAL_PRIORITY,
    SimThread,
    ThreadState,
)

#: The three measured systems, keyed by short name.
PERSONALITIES = {
    "nt351": nt351.PERSONALITY,
    "nt40": nt40.PERSONALITY,
    "win95": win95.PERSONALITY,
}

#: Booted-system factories, keyed by short name.
SYSTEM_FACTORIES = {
    "nt351": nt351.system,
    "nt40": nt40.system,
    "win95": win95.system,
}


def boot(os_name: str, seed: int = 0) -> WindowsSystem:
    """Boot one of the three measured systems by short name.

    Inside an :func:`~repro.obs.runtime.observed` scope, the booted
    system comes back instrumented for that scope's session: one trace
    process per boot, kernel/interrupt/I-O/message hooks attached.  The
    system keeps that session for life, even after the scope exits.
    Outside every scope nothing attaches and the system runs the
    zero-cost path.
    """
    try:
        factory = SYSTEM_FACTORIES[os_name]
    except KeyError:
        raise ValueError(
            f"unknown OS {os_name!r}; expected one of {sorted(SYSTEM_FACTORIES)}"
        ) from None
    system = factory(seed=seed)
    from ..obs import runtime as _obs_runtime

    session = _obs_runtime.current()
    if session is not None:
        from ..obs.instrument import instrument_system

        instrument_system(system, os_name, session)
    return system


__all__ = [
    "ApiCallRecord",
    "BACKGROUND_PRIORITY",
    "BufferCache",
    "Compute",
    "FileSystem",
    "GdiBatch",
    "GdiFlush",
    "GdiOp",
    "GetMessage",
    "HookManager",
    "IDLE_PRIORITY",
    "INPUT_PRIORITY",
    "IoManager",
    "IoPlan",
    "Kernel",
    "KernelPanic",
    "KillTimer",
    "Message",
    "MessageQueue",
    "NORMAL_PRIORITY",
    "OSPersonality",
    "PERSONALITIES",
    "PeekMessage",
    "ProgramImage",
    "ReadCycleCounter",
    "SYSTEM_FACTORIES",
    "Scheduler",
    "SetTimer",
    "SimFile",
    "SimThread",
    "Syscall",
    "SyncRead",
    "SyncWrite",
    "ThreadState",
    "WM",
    "WindowsSystem",
    "annotate_proportional",
    "boot",
    "load_image",
    "nt351",
    "nt40",
    "win95",
]
