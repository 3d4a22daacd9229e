"""Input-script intermediate representation.

A script is a flat sequence of actions — keystrokes, pauses,
menu commands, labels — consumed by a driver (the MS-Test analogue or
the human-typist model).  Scripts are pure data: the same script driven
by different drivers is how the Section 5.4 Test-vs-hand comparison is
expressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Union

__all__ = [
    "Key",
    "Pause",
    "Command",
    "Mark",
    "WaitIdle",
    "Action",
    "InputScript",
    "type_text_actions",
]


@dataclass(frozen=True)
class Key:
    """One keystroke (press + release).

    ``key`` is a single character for printables, or a name like
    'Enter', 'PageDown', 'Backspace', 'Left'.
    """

    key: str
    #: Extra pause after this keystroke, in milliseconds (None = the
    #: driver's default inter-event gap).
    pause_ms: Optional[float] = None


@dataclass(frozen=True)
class Pause:
    """Think time: nothing is injected for this long."""

    ms: float


@dataclass(frozen=True)
class Command:
    """A WM_COMMAND posted to the foreground app (menu action)."""

    payload: object
    pause_ms: Optional[float] = None


@dataclass(frozen=True)
class Mark:
    """A label recorded with the current time; used by experiments to
    associate extracted latency events with script operations."""

    label: str


@dataclass(frozen=True)
class WaitIdle:
    """Wait until the system is quiescent (plus settle), with a timeout.

    Used before/after long operations whose duration the script cannot
    know (opening documents, OLE activations).
    """

    timeout_ms: float = 30_000.0
    settle_ms: float = 200.0


Action = Union[Key, Pause, Command, Mark, WaitIdle]


class InputScript:
    """An ordered list of actions with small composition helpers."""

    def __init__(self, actions: Optional[Iterable[Action]] = None) -> None:
        self.actions: List[Action] = list(actions) if actions else []

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)

    def __getitem__(self, index):
        return self.actions[index]

    def add(self, *actions: Action) -> "InputScript":
        self.actions.extend(actions)
        return self

    def key_count(self) -> int:
        return sum(1 for action in self.actions if isinstance(action, Key))

    def marks(self) -> List[str]:
        return [action.label for action in self.actions if isinstance(action, Mark)]


def type_text_actions(text: str, pause_ms: Optional[float] = None) -> List[Action]:
    """Expand a string into Key actions.

    Newlines become 'Enter'; everything else is a literal character
    keystroke.
    """
    actions: List[Action] = []
    for char in text:
        if char == "\n":
            actions.append(Key("Enter", pause_ms=pause_ms))
        else:
            actions.append(Key(char, pause_ms=pause_ms))
    return actions
