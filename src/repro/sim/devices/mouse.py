"""Mouse device.

Button edges matter to the reproduction because of the Windows 95
behaviour the paper found (Figure 6): the system busy-waits between
"mouse down" and "mouse up", so measured click latency equals the
duration of the user's press rather than any processing time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..engine import Simulator

__all__ = ["MouseEvent", "Mouse"]


@dataclass(frozen=True)
class MouseEvent:
    """A button edge or movement sample at a screen position."""

    kind: str  # 'down' | 'up' | 'move'
    button: str
    position: Tuple[int, int]
    time_ns: int


class Mouse:
    """Raises one interrupt per button edge / movement sample."""

    VECTOR = "mouse"

    def __init__(
        self,
        sim: Simulator,
        raise_interrupt: Optional[Callable[[str, object], None]] = None,
    ) -> None:
        self.sim = sim
        self._raise_interrupt = raise_interrupt
        self.events_raised = 0
        self.position: Tuple[int, int] = (0, 0)

    def _raise(self, kind: str, button: str) -> MouseEvent:
        if self._raise_interrupt is None:
            raise RuntimeError("mouse not connected to an interrupt controller")
        event = MouseEvent(
            kind=kind, button=button, position=self.position, time_ns=self.sim.now
        )
        self.events_raised += 1
        self._raise_interrupt(self.VECTOR, event)
        return event

    def move(self, x: int, y: int) -> MouseEvent:
        self.position = (x, y)
        return self._raise("move", "none")

    def button_down(self, button: str = "left") -> MouseEvent:
        return self._raise("down", button)

    def button_up(self, button: str = "left") -> MouseEvent:
        return self._raise("up", button)

    def click(self, button: str = "left", hold_ns: int = 0) -> None:
        """Press now, release after ``hold_ns``.

        A non-zero hold models a human press (~80-120 ms); it is what
        exposes the Windows 95 busy-wait in the Figure 6 experiment.
        """
        self.button_down(button)
        if hold_ns > 0:
            self.sim.schedule(
                hold_ns, lambda: self.button_up(button), label="mouse-up"
            )
        else:
            self.button_up(button)
