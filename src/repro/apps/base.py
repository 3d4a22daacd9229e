"""Interactive application framework.

An :class:`InteractiveApp` is a message-pump program (Section 2.4's
GetMessage/PeekMessage structure) with overridable handlers per message
kind.  Subclasses model the measured applications; they express every
cost through the OS personality's work constructors so that one
application model produces per-OS behaviour the way one binary did on
the paper's three systems (the Notepad experiment "used the same
Notepad executable ... on all three systems").

The pump supports *background work*: when :meth:`has_background_work`
is true the app polls with PeekMessage and runs one background step per
empty poll instead of blocking — the asynchronous-computation structure
the paper infers for Microsoft Word (Section 5.4).
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..winsys.messages import WM, Message
from ..winsys.syscalls import (
    Compute,
    GdiFlush,
    GdiOp,
    GetMessage,
    KillTimer,
    PeekMessage,
    SetTimer,
    Syscall,
)
from ..winsys.system import WindowsSystem
from ..winsys.threads import NORMAL_PRIORITY, SimThread

__all__ = ["InteractiveApp"]


class InteractiveApp:
    """Base class for simulated interactive applications."""

    name = "app"
    #: Default (DefWindowProc-style) USER-path costs, in base cycles.
    #: An unbound key-down walks menu accelerators — the expensive
    #: default path measured in Figure 6.
    DEFAULT_KEYDOWN_BASE = 120_000
    DEFAULT_CHAR_BASE = 30_000
    DEFAULT_KEYUP_BASE = 25_000
    DEFAULT_MOUSEDOWN_BASE = 60_000
    DEFAULT_MOUSEUP_BASE = 40_000

    def __init__(self, system: WindowsSystem) -> None:
        self.system = system
        self.personality = system.personality
        self.fs = system.filesystem
        self.thread: Optional[SimThread] = None
        self._quit = False
        #: Count of input events fully handled (diagnostics).
        self.events_handled = 0

    # ------------------------------------------------------------------
    # Syscall builders (cost vocabulary for subclasses)
    # ------------------------------------------------------------------
    def app_compute(self, cycles: int, label: str = "") -> Compute:
        """OS-independent application computation."""
        return Compute(self.personality.app_work(cycles, label=label))

    def gui_compute(self, cycles: int, label: str = "") -> Compute:
        """GUI-path computation (layout/render preparation)."""
        return Compute(self.personality.gui_work(cycles, label=label))

    def user_compute(self, cycles: int, label: str = "") -> Compute:
        """USER-path computation (window management, default processing)."""
        return Compute(self.personality.user_work(cycles, label=label))

    def draw(self, base_cycles: int, pixels: int = 0, label: str = "draw") -> GdiOp:
        """One batched GDI drawing operation."""
        return GdiOp(
            base=self.personality.app_work(base_cycles, label=label), pixels=pixels
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(
        self,
        foreground: bool = True,
        priority: int = NORMAL_PRIORITY,
    ) -> SimThread:
        """Spawn the app's main thread; returns it."""
        self.thread = self.system.spawn(
            self.name, self.main(), priority=priority, foreground=foreground
        )
        return self.thread

    def main(self) -> Iterator[Syscall]:
        """The message pump."""
        # When the subclass keeps the stock dispatch() and nothing
        # reads app events, route straight to _dispatch_message — one
        # delegating generator per message is pure overhead on the hot
        # pump path.
        kernel = self.system.kernel
        plain_dispatch = (
            type(self).dispatch is InteractiveApp.dispatch
            and kernel.obs is None
            and kernel.envelopes is None
        )
        yield from self.on_start()
        while not self._quit:
            if self.has_background_work():
                message = yield PeekMessage()
                if message is None:
                    yield from self.run_background_step()
                    continue
            else:
                message = yield GetMessage()
            if plain_dispatch:
                yield from self._dispatch_message(message)
            else:
                yield from self.dispatch(message)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def dispatch(self, message: Message) -> Iterator[Syscall]:
        """Route one message to its handler.  A live trace-and-metrics
        sink sees the dispatch as an app-event span, and the envelope
        recorder sees its end as the close of a handler stage."""
        kernel = self.system.kernel
        sink, recorder = kernel.obs, kernel.envelopes
        if sink is not None:
            sink.app_event_begin(self.thread, message)
        try:
            yield from self._dispatch_message(message)
        finally:
            if recorder is not None:
                recorder.on_app_event_end(self.thread, message)
            if sink is not None:
                sink.app_event_end(self.thread, message)

    def _dispatch_message(self, message: Message) -> Iterator[Syscall]:
        kind = message.kind
        if kind == WM.QUIT:
            self._quit = True
            return
        if kind == WM.QUEUESYNC:
            # MS Test's synchronization message (Section 5.4).
            yield Compute(self.personality.queuesync_work)
            yield from self.on_queuesync()
            return
        if kind == WM.CHAR:
            yield from self.on_char(message.payload)
        elif kind == WM.KEYDOWN:
            yield from self.on_key(message.payload)
        elif kind == WM.KEYUP:
            yield from self.on_keyup(message.payload)
        elif kind == WM.LBUTTONDOWN:
            yield from self.on_mouse_down(message.payload)
        elif kind == WM.LBUTTONUP:
            yield from self.on_mouse_up(message.payload)
        elif kind == WM.TIMER:
            yield from self.on_timer(message.payload)
        elif kind == WM.COMMAND:
            yield from self.on_command(message.payload)
        elif kind == WM.SOCKET:
            yield from self.on_socket(message.payload)
        else:
            yield from self.on_other(message)
        if message.from_input:
            self.events_handled += 1

    # ------------------------------------------------------------------
    # Default handlers (DefWindowProc-equivalents; subclasses override)
    # ------------------------------------------------------------------
    def on_start(self) -> Iterator[Syscall]:
        return
        yield  # pragma: no cover

    def on_char(self, char: str) -> Iterator[Syscall]:
        yield self.user_compute(self.DEFAULT_CHAR_BASE, label="def-char")

    def on_key(self, key: str) -> Iterator[Syscall]:
        yield self.user_compute(self.DEFAULT_KEYDOWN_BASE, label="def-keydown")

    def on_keyup(self, key: str) -> Iterator[Syscall]:
        yield self.user_compute(self.DEFAULT_KEYUP_BASE, label="def-keyup")

    def on_mouse_down(self, position) -> Iterator[Syscall]:
        yield self.user_compute(self.DEFAULT_MOUSEDOWN_BASE, label="def-mousedown")

    def on_mouse_up(self, position) -> Iterator[Syscall]:
        yield self.user_compute(self.DEFAULT_MOUSEUP_BASE, label="def-mouseup")

    def on_timer(self, timer_id: int) -> Iterator[Syscall]:
        yield self.user_compute(5_000, label="def-timer")

    def on_command(self, command) -> Iterator[Syscall]:
        yield self.user_compute(20_000, label="def-command")

    def on_socket(self, packet) -> Iterator[Syscall]:
        yield self.app_compute(10_000, label="def-socket")

    def on_queuesync(self) -> Iterator[Syscall]:
        return
        yield  # pragma: no cover

    def on_other(self, message: Message) -> Iterator[Syscall]:
        yield self.user_compute(5_000, label="def-other")

    # ------------------------------------------------------------------
    # Background-work protocol (Word-style asynchrony)
    # ------------------------------------------------------------------
    def has_background_work(self) -> bool:
        return False

    def run_background_step(self) -> Iterator[Syscall]:
        return
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # Small conveniences
    # ------------------------------------------------------------------
    def set_timer(self, timer_id: int, period_ns: int) -> SetTimer:
        return SetTimer(timer_id=timer_id, period_ns=period_ns)

    def kill_timer(self, timer_id: int) -> KillTimer:
        return KillTimer(timer_id=timer_id)

    def flush_gdi(self) -> GdiFlush:
        return GdiFlush()
