"""Unit tests for the WindowsSystem facade."""

import pytest

from repro.sim.timebase import ns_from_ms
from repro.winsys import Compute, GetMessage, SyncRead, WM, boot
from repro.winsys.threads import IDLE_PRIORITY


class TestBoot:
    def test_boot_by_name(self):
        for name in ("nt351", "nt40", "win95"):
            system = boot(name)
            assert system.personality.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            boot("os2warp")

    def test_boot_starts_clock(self, nt40):
        nt40.run_for(ns_from_ms(100))
        assert nt40.machine.clock.ticks == 10

    def test_double_boot_is_noop(self, nt40):
        assert nt40.boot() is nt40


class TestSpawning:
    def test_spawn_idle_uses_idle_priority(self, nt40):
        def program():
            while True:
                yield Compute(nt40.personality.app_work(1000))

        thread = nt40.spawn_idle("idle", program())
        assert thread.priority == IDLE_PRIORITY

    def test_spawn_foreground(self, nt40):
        def program():
            yield GetMessage()

        thread = nt40.spawn("app", program(), foreground=True)
        assert nt40.kernel.foreground is thread

    def test_post_queuesync_reaches_foreground(self, nt40):
        got = []

        def program():
            message = yield GetMessage()
            got.append(message.kind)

        nt40.spawn("app", program(), foreground=True)
        nt40.run_for(ns_from_ms(2))
        nt40.post_queuesync()
        nt40.run_for(ns_from_ms(10))
        assert got == [WM.QUEUESYNC]


class TestQuiescence:
    def test_fresh_system_quiescent(self, nt40):
        nt40.run_for(ns_from_ms(5))
        assert nt40.quiescent()

    def test_busy_thread_not_quiescent(self, nt40):
        def program():
            yield Compute(nt40.personality.app_work(10_000_000))

        nt40.spawn("busy", program())
        nt40.run_for(ns_from_ms(1))
        assert not nt40.quiescent()

    def test_idle_priority_thread_is_quiescent(self, nt40):
        def program():
            while True:
                yield Compute(nt40.personality.app_work(1000))

        nt40.spawn_idle("idle", program())
        nt40.run_for(ns_from_ms(5))
        assert nt40.quiescent()

    def test_pending_io_not_quiescent(self, nt40):
        file = nt40.filesystem.create("f", 64 * 4096)

        def program():
            yield SyncRead(file, 0, 64 * 4096)

        nt40.spawn("reader", program())
        nt40.run_for(ns_from_ms(3))
        assert not nt40.quiescent()

    def test_run_until_quiescent_survives_injected_input(self, nt40):
        """The calendar gap between ISR and DPC must not fool it."""
        handled = []

        def program():
            while True:
                message = yield GetMessage()
                yield Compute(nt40.personality.app_work(500_000))
                handled.append(message.kind)

        nt40.spawn("app", program(), foreground=True)
        nt40.run_for(ns_from_ms(5))
        nt40.machine.keyboard.keystroke("a")
        nt40.run_until_quiescent(max_ns=nt40.now + ns_from_ms(5000))
        assert WM.CHAR in handled

    def test_run_until_quiescent_respects_deadline(self, nt40):
        def spinner():
            while True:
                yield Compute(nt40.personality.app_work(1_000_000))

        nt40.spawn("spinner", spinner())
        deadline = nt40.now + ns_from_ms(50)
        nt40.run_until_quiescent(max_ns=deadline)
        assert nt40.now >= deadline

    def test_sleeping_thread_is_quiescent(self, nt40):
        def program():
            yield GetMessage()  # nothing is posted: blocks for good

        nt40.spawn("sleeper", program())
        nt40.run_for(ns_from_ms(30))
        assert nt40.quiescent()
