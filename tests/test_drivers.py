"""Unit tests for the MS Test and typist drivers."""

import pytest

from repro.apps import NotepadApp
from repro.sim.timebase import ns_from_ms
from repro.winsys import WM, boot
from repro.workload.mstest import MsTestDriver
from repro.workload.script import Command, InputScript, Key, Mark, Pause, WaitIdle
from repro.workload.typist import TypistDriver, TypistModel, humanize_script


def app_on(system):
    app = NotepadApp(system)
    app.start(foreground=True)
    system.run_for(ns_from_ms(5))
    return app


class TestMsTestDriver:
    def test_plays_keys_in_order(self, nt40):
        app = app_on(nt40)
        driver = MsTestDriver(
            nt40, InputScript([Key("a"), Key("b")]), queuesync=False,
            default_pause_ms=50.0,
        )
        driver.run_to_completion()
        assert app.keystrokes >= 2
        assert driver.finished
        assert driver.events_injected == 2

    def test_marks_recorded_with_times(self, nt40):
        app_on(nt40)
        driver = MsTestDriver(
            nt40,
            InputScript([Mark("one"), Key("a"), Mark("two"), Key("b")]),
            queuesync=False,
        )
        driver.run_to_completion()
        labels = [label for label, _t in driver.marks]
        assert labels == ["one", "two"]
        assert driver.marks[1][1] > driver.marks[0][1]

    def test_pause_delays_next_action(self, nt40):
        app_on(nt40)
        driver = MsTestDriver(
            nt40,
            InputScript([Key("a"), Pause(500.0), Mark("after"), Key("b")]),
            queuesync=False,
            default_pause_ms=10.0,
        )
        driver.run_to_completion()
        marks = dict(driver.marks)
        assert marks["after"] >= ns_from_ms(500)

    def test_queuesync_posted_after_each_event(self, nt40):
        app = app_on(nt40)
        seen = []
        nt40.hooks.register(
            "GetMessage",
            lambda r: seen.append(r.message.kind) if r.message else None,
        )
        driver = MsTestDriver(nt40, InputScript([Key("a")]), queuesync=True)
        driver.run_to_completion()
        assert WM.QUEUESYNC in seen

    def test_no_queuesync_when_disabled(self, nt40):
        app_on(nt40)
        seen = []
        nt40.hooks.register(
            "GetMessage",
            lambda r: seen.append(r.message.kind) if r.message else None,
        )
        MsTestDriver(nt40, InputScript([Key("a")]), queuesync=False).run_to_completion()
        assert WM.QUEUESYNC not in seen

    def test_wait_idle_blocks_until_quiescent(self, nt40):
        app_on(nt40)
        driver = MsTestDriver(
            nt40,
            InputScript([Key("a"), WaitIdle(timeout_ms=5000), Mark("idle")]),
            queuesync=False,
        )
        driver.run_to_completion()
        assert dict(driver.marks)["idle"] > 0

    def test_command_action(self, nt40):
        got = []

        class CommandApp(NotepadApp):
            def on_command(self, command):
                got.append(command)
                yield self.app_compute(1000)

        app = CommandApp(nt40)
        app.start(foreground=True)
        nt40.run_for(ns_from_ms(5))
        MsTestDriver(
            nt40, InputScript([Command("hello")]), queuesync=False
        ).run_to_completion()
        assert got == ["hello"]

    def test_timeout_raises(self, nt40):
        app_on(nt40)
        driver = MsTestDriver(
            nt40, InputScript([Key("a")] * 100), default_pause_ms=500.0,
            queuesync=False,
        )
        with pytest.raises(TimeoutError):
            driver.run_to_completion(max_seconds=0.2)

    def test_unknown_action_rejected(self, nt40):
        app_on(nt40)
        driver = MsTestDriver(nt40, InputScript(["bogus"]), queuesync=False)
        driver.start(nt40.now + 1000)
        with pytest.raises(TypeError):
            nt40.run_for(ns_from_ms(10))


class TestTypistModel:
    def test_min_keystroke_floor(self):
        import random

        model = TypistModel(random.Random(0), wpm=500)
        assert model.base_gap_ms == 120.0  # Shneiderman's floor

    def test_gap_longer_after_sentence(self):
        import random

        model = TypistModel(random.Random(0))
        normal = sum(model.gap_after_ms("a") for _ in range(50)) / 50
        sentence = sum(model.gap_after_ms(".") for _ in range(50)) / 50
        assert sentence > normal + 500

    def test_paragraph_pause_longest(self):
        import random

        model = TypistModel(random.Random(0))
        enter = sum(model.gap_after_ms("Enter") for _ in range(50)) / 50
        sentence = sum(model.gap_after_ms(".") for _ in range(50)) / 50
        assert enter > sentence

    def test_typo_model(self):
        import random

        model = TypistModel(random.Random(0), typo_rate=1.0)
        wrong = model.maybe_typo("a")
        assert wrong is not None and wrong != "a" and wrong.isalpha()
        assert model.maybe_typo("Enter") is None

    def test_humanize_inserts_corrections(self):
        import random

        from repro.workload.script import InputScript, Key

        model = TypistModel(random.Random(0), typo_rate=1.0)
        script = humanize_script(InputScript([Key("a")]), model)
        keys = [action.key for action in script]
        assert keys == [script[0].key, "Backspace", "a"]

    def test_wpm_validation(self):
        import random

        with pytest.raises(ValueError):
            TypistModel(random.Random(0), wpm=0)


class TestTypistDriver:
    def test_slower_than_mstest(self, nt40):
        app_on(nt40)
        script = InputScript([Key("a") for _ in range(10)])
        driver = TypistDriver(nt40, script)
        start = nt40.now
        driver.run_to_completion()
        elapsed = nt40.now - start
        # 10 keystrokes at >= 120 ms each.
        assert elapsed >= ns_from_ms(10 * 120)

    def test_no_queuesync(self, nt40):
        app_on(nt40)
        seen = []
        nt40.hooks.register(
            "GetMessage",
            lambda r: seen.append(r.message.kind) if r.message else None,
        )
        TypistDriver(nt40, InputScript([Key("a")])).run_to_completion()
        assert WM.QUEUESYNC not in seen

    def test_deterministic_given_seed(self):
        from repro.winsys import boot

        def run_once():
            system = boot("nt40", seed=3)
            app_on(system)
            driver = TypistDriver(system, InputScript([Key(c) for c in "hello world"]))
            driver.run_to_completion()
            return system.now

        assert run_once() == run_once()
