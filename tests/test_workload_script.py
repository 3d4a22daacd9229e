"""Unit tests for the input-script IR and text generation."""

import random

import pytest

from repro.workload.script import (
    Command,
    InputScript,
    Key,
    Mark,
    Pause,
    WaitIdle,
    type_text_actions,
)
from repro.workload.tasks import notepad_task, powerpoint_task, word_task
from repro.workload.text import generate_text


class TestInputScript:
    def test_add_and_iterate(self):
        script = InputScript()
        script.add(Key("a"), Pause(100), Mark("here"))
        assert len(script) == 3
        assert isinstance(script[1], Pause)

    def test_key_count(self):
        script = InputScript([Key("a"), Pause(1), Key("b"), Command("x")])
        assert script.key_count() == 2

    def test_marks(self):
        script = InputScript([Mark("a"), Key("x"), Mark("b")])
        assert script.marks() == ["a", "b"]

    def test_type_text_actions(self):
        actions = type_text_actions("ab\nc", pause_ms=50.0)
        assert [a.key for a in actions] == ["a", "b", "Enter", "c"]
        assert all(a.pause_ms == 50.0 for a in actions)


class TestTextGeneration:
    def test_deterministic(self):
        a = generate_text(random.Random(3), 500)
        b = generate_text(random.Random(3), 500)
        assert a == b

    def test_approximate_length(self):
        text = generate_text(random.Random(1), 1000)
        assert 900 <= len(text) <= 1300

    def test_has_sentences_and_paragraphs(self):
        text = generate_text(random.Random(2), 2000)
        assert ". " in text
        assert text.count("\n") >= 2

    def test_ends_at_paragraph(self):
        text = generate_text(random.Random(5), 800)
        assert text.endswith("\n")

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            generate_text(random.Random(0), 0)


class TestTasks:
    def test_notepad_task_shape(self):
        spec = notepad_task(random.Random(7), chars=400)
        assert spec.name == "notepad"
        assert spec.script.key_count() >= 380
        assert spec.info["page_downs"] > 0
        assert spec.info["arrows"] > 0

    def test_word_task_has_varied_pauses(self):
        spec = word_task(random.Random(7), chars=300)
        pauses = {
            action.pause_ms
            for action in spec.script
            if isinstance(action, Key) and action.pause_ms is not None
        }
        assert len(pauses) > 50  # per-key variation

    def test_word_task_has_paragraphs_and_backspaces(self):
        spec = word_task(random.Random(7), chars=800)
        keys = [a.key for a in spec.script if isinstance(a, Key)]
        assert keys.count("Enter") >= 4
        assert "Backspace" in keys

    def test_powerpoint_task_structure(self):
        spec = powerpoint_task()
        marks = spec.script.marks()
        assert marks[0] == "start-powerpoint"
        assert "open-document" in marks
        assert "save-document" in marks
        for index in (1, 2, 3):
            assert f"ole-edit-{index}" in marks
        # 45 page-downs through the 46-page deck.
        assert sum(1 for m in marks if m.startswith("page-down")) == 45

    def test_powerpoint_waits_for_slow_ops(self):
        spec = powerpoint_task()
        actions = list(spec.script)
        launch_index = next(
            i for i, a in enumerate(actions) if isinstance(a, Command)
        )
        assert isinstance(actions[launch_index + 1], WaitIdle)

    def test_tasks_deterministic(self):
        a = word_task(random.Random(9), chars=200)
        b = word_task(random.Random(9), chars=200)
        assert [(type(x).__name__, getattr(x, "key", None)) for x in a.script] == [
            (type(x).__name__, getattr(x, "key", None)) for x in b.script
        ]
