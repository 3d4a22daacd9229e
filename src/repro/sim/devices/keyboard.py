"""Keyboard device.

An input driver (Microsoft-Test analog or the typist model) calls
:meth:`Keyboard.key` at scripted times; the device raises the
``keyboard`` interrupt, and the OS input pipeline turns the scancode
into a WM_CHAR/WM_KEYDOWN message on the focused thread's queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..engine import Simulator

__all__ = ["KeyEvent", "Keyboard"]


@dataclass(frozen=True)
class KeyEvent:
    """A scancode edge: key name plus press/release."""

    key: str
    down: bool
    time_ns: int


class Keyboard:
    """Raises one interrupt per key edge."""

    VECTOR = "keyboard"

    def __init__(
        self,
        sim: Simulator,
        raise_interrupt: Optional[Callable[[str, object], None]] = None,
    ) -> None:
        self.sim = sim
        self._raise_interrupt = raise_interrupt
        self.events_raised = 0

    def key(self, key: str, down: bool = True) -> KeyEvent:
        """Deliver a key edge right now."""
        if self._raise_interrupt is None:
            raise RuntimeError("keyboard not connected to an interrupt controller")
        event = KeyEvent(key=key, down=down, time_ns=self.sim.now)
        self.events_raised += 1
        self._raise_interrupt(self.VECTOR, event)
        return event

    def keystroke(self, key: str, hold_ns: int = 0) -> None:
        """Press now and release after ``hold_ns`` (0 = immediate release)."""
        self.key(key, down=True)
        if hold_ns > 0:
            self.sim.schedule(
                hold_ns, lambda: self.key(key, down=False), label="key-up"
            )
        else:
            self.key(key, down=False)
