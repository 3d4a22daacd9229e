"""Window messages and per-thread message queues.

Interactive input reaches applications as messages on a per-thread
queue, retrieved with GetMessage/PeekMessage — the API surface the
paper monitors (Section 2.4).  The queue exposes its length and
enqueue/dequeue timestamps because "message queue state (empty or
non-empty)" is one of the three inputs to the wait/think FSM of
Figure 2.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Deque, List, Optional

__all__ = ["WM", "Message", "MessageQueue"]


class WM(str, Enum):
    """The message vocabulary used by the simulated applications."""

    KEYDOWN = "WM_KEYDOWN"
    KEYUP = "WM_KEYUP"
    CHAR = "WM_CHAR"
    LBUTTONDOWN = "WM_LBUTTONDOWN"
    LBUTTONUP = "WM_LBUTTONUP"
    PAINT = "WM_PAINT"
    TIMER = "WM_TIMER"
    COMMAND = "WM_COMMAND"
    #: Winsock 1.1 style async-select notification: packet arrivals
    #: reach applications through the message queue.
    SOCKET = "WM_SOCKET"
    QUEUESYNC = "WM_QUEUESYNC"
    QUIT = "WM_QUIT"
    USER = "WM_USER"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class Message:
    """One queued window message."""

    kind: WM
    payload: object = None
    posted_ns: int = 0
    #: Set by the queue when the message is retrieved.
    retrieved_ns: Optional[int] = None
    #: Marks messages injected by an input driver (vs. app-posted).
    from_input: bool = False
    #: The envelope recorder's opaque handle for the input event this
    #: message carries (set by the kernel's input delivery when envelope
    #: recording is active; inert otherwise — nothing in the simulator
    #: reads it).
    envelope: Optional[int] = None

    @property
    def queue_delay_ns(self) -> Optional[int]:
        """Time the message sat in the queue, once retrieved."""
        if self.retrieved_ns is None:
            return None
        return self.retrieved_ns - self.posted_ns


class MessageQueue:
    """FIFO message queue for one thread.

    ``on_post`` callbacks let the kernel wake a thread blocked in
    GetMessage; observers (the FSM support layer) can subscribe to
    state transitions without perturbing behaviour.
    """

    def __init__(self, owner_name: str = "") -> None:
        self.owner_name = owner_name
        self._queue: Deque[Message] = deque()
        self._on_post: List[Callable[[Message], None]] = []
        self._observers: List[Callable[[str, Message, int], None]] = []
        self.posted_count = 0
        self.retrieved_count = 0
        #: Maximum queued messages; ``None`` (the default) is unbounded.
        #: Real Win16/Win32 queues were finite (8 entries on Win16!) and
        #: overflowing posts were silently discarded — the behaviour the
        #: fault-injection layer recreates for queue-pressure scenarios.
        self.capacity: Optional[int] = None
        #: Messages discarded because the queue was at capacity.
        self.dropped_count = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def empty(self) -> bool:
        return not self._queue

    def add_post_callback(self, callback: Callable[[Message], None]) -> None:
        self._on_post.append(callback)

    def add_observer(self, observer: Callable[[str, Message, int], None]) -> None:
        """Subscribe to ('post'|'get', message, queue_len_after) transitions."""
        self._observers.append(observer)

    def _notify(self, action: str, message: Message) -> None:
        for observer in self._observers:
            observer(action, message, len(self._queue))

    def post(self, message: Message, now_ns: int) -> bool:
        """Append a message (PostMessage / input pipeline delivery).

        Returns True when the message was queued; False when a finite
        ``capacity`` was reached and the message was dropped (the
        PostMessage-returns-FALSE overflow of the real API).  Dropped
        messages reach neither callbacks nor observers — the thread
        never learns they existed.
        """
        if self.capacity is not None and len(self._queue) >= self.capacity:
            self.dropped_count += 1
            return False
        message.posted_ns = now_ns
        self._queue.append(message)
        self.posted_count += 1
        self._notify("post", message)
        for callback in self._on_post:
            callback(message)
        return True

    def get(self, now_ns: int) -> Optional[Message]:
        """Remove and return the head message, or None when empty."""
        if not self._queue:
            return None
        message = self._queue.popleft()
        message.retrieved_ns = now_ns
        self.retrieved_count += 1
        self._notify("get", message)
        return message

    def peek(self) -> Optional[Message]:
        """Head message without removal (diagnostics)."""
        return self._queue[0] if self._queue else None

    def snapshot_kinds(self) -> List[WM]:
        """Kinds currently queued, oldest first (diagnostics)."""
        return [message.kind for message in self._queue]
