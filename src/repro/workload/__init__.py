"""Input generation: scripts, the MS-Test-style driver, the typist model."""

from .mstest import MsTestDriver
from .network import PacketSource
from .script import (
    Action,
    Command,
    InputScript,
    Key,
    Mark,
    Pause,
    WaitIdle,
    type_text_actions,
)
from .tasks import TaskSpec, notepad_task, powerpoint_task, word_task
from .text import generate_text
from .typist import TypistDriver, TypistModel, humanize_script

__all__ = [
    "Action",
    "Command",
    "InputScript",
    "Key",
    "Mark",
    "MsTestDriver",
    "PacketSource",
    "Pause",
    "TaskSpec",
    "TypistDriver",
    "TypistModel",
    "WaitIdle",
    "generate_text",
    "humanize_script",
    "notepad_task",
    "powerpoint_task",
    "type_text_actions",
    "word_task",
]
