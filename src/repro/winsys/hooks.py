"""API hook registry.

The paper's message-API monitor works "by intercepting the USER32.DLL
calls" (Section 2.4).  This module is the simulated equivalent of that
DLL interposition: measurement code registers callbacks on named API
entry points and receives a record per call — without access to kernel
or application internals, preserving the paper's black-box constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .messages import Message

__all__ = ["ApiCallRecord", "HookManager"]


@dataclass(frozen=True)
class ApiCallRecord:
    """One intercepted API call."""

    time_ns: int
    thread_name: str
    api: str  # 'GetMessage' | 'PeekMessage' | ...
    #: Queue length observed at the call (after retrieval, if any).
    queue_len: int
    #: The message retrieved, when the call returned one.
    message: Optional[Message] = None
    #: Whether the call blocked waiting for input (GetMessage on empty queue).
    blocked: bool = False


class HookManager:
    """Registry of per-API interception callbacks."""

    def __init__(self) -> None:
        self._hooks: Dict[str, List[Callable[[ApiCallRecord], None]]] = {}
        self.calls_seen = 0
        #: Number of registered callbacks across all APIs.  Call sites
        #: that would build an :class:`ApiCallRecord` check this first:
        #: with no interposed DLL the record is never materialized (the
        #: call is still counted in :attr:`calls_seen`).
        self.active = 0

    def register(self, api: str, callback: Callable[[ApiCallRecord], None]) -> None:
        """Intercept every call to ``api`` ('*' intercepts all APIs)."""
        self._hooks.setdefault(api, []).append(callback)
        self.active += 1

    def unregister(self, api: str, callback: Callable[[ApiCallRecord], None]) -> None:
        callbacks = self._hooks.get(api, [])
        if callback in callbacks:
            callbacks.remove(callback)
            self.active -= 1

    def fire(self, record: ApiCallRecord) -> None:
        """Deliver a call record to interested hooks."""
        self.calls_seen += 1
        for callback in self._hooks.get(record.api, []):
            callback(record)
        for callback in self._hooks.get("*", []):
            callback(record)
