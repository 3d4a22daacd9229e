"""Unit tests for the input pipeline (keyboard, mouse, Win95 spin)."""

import pytest

from repro.sim.timebase import ns_from_ms
from repro.winsys import GetMessage, WM, boot


def collecting_app(system, got):
    def program():
        while True:
            message = yield GetMessage()
            got.append((message.kind, message.payload, system.now))

    return program()


class TestKeyboardPipeline:
    def test_printable_key_generates_down_char_up(self, nt40):
        got = []
        nt40.spawn("app", collecting_app(nt40, got), foreground=True)
        nt40.run_for(ns_from_ms(5))
        nt40.machine.keyboard.keystroke("a")
        nt40.run_for(ns_from_ms(20))
        kinds = [kind for kind, _p, _t in got]
        assert kinds == [WM.KEYDOWN, WM.CHAR, WM.KEYUP]
        assert got[1][1] == "a"

    def test_special_key_has_no_char(self, nt40):
        got = []
        nt40.spawn("app", collecting_app(nt40, got), foreground=True)
        nt40.run_for(ns_from_ms(5))
        nt40.machine.keyboard.keystroke("PageDown")
        nt40.run_for(ns_from_ms(20))
        kinds = [kind for kind, _p, _t in got]
        assert kinds == [WM.KEYDOWN, WM.KEYUP]

    def test_input_latency_includes_dispatch_cost(self, nt40):
        got = []
        nt40.spawn("app", collecting_app(nt40, got), foreground=True)
        nt40.run_for(ns_from_ms(5))
        injected = nt40.now
        nt40.machine.keyboard.keystroke("a")
        nt40.run_for(ns_from_ms(20))
        first_delivery = got[0][2]
        # ISR + input-dispatch DPC must take real time (> 0.1 ms).
        assert first_delivery - injected > 100_000

    def test_no_foreground_drops_input(self, nt40):
        nt40.machine.keyboard.keystroke("a")
        nt40.run_for(ns_from_ms(20))  # must not crash

    def test_focus_routing(self, nt40):
        got_a, got_b = [], []
        nt40.spawn("a", collecting_app(nt40, got_a), foreground=True)
        thread_b = nt40.spawn("b", collecting_app(nt40, got_b))
        nt40.run_for(ns_from_ms(5))
        nt40.machine.keyboard.keystroke("x")
        nt40.run_for(ns_from_ms(20))
        nt40.kernel.set_foreground(thread_b)
        nt40.machine.keyboard.keystroke("y")
        nt40.run_for(ns_from_ms(20))
        assert [p for _k, p, _t in got_a if p] == ["x", "x", "x"]
        assert [p for _k, p, _t in got_b if p] == ["y", "y", "y"]


class TestMousePipeline:
    def test_nt_click_generates_down_up(self, nt40):
        got = []
        nt40.spawn("app", collecting_app(nt40, got), foreground=True)
        nt40.run_for(ns_from_ms(5))
        nt40.machine.mouse.click(hold_ns=ns_from_ms(50))
        nt40.run_for(ns_from_ms(100))
        kinds = [kind for kind, _p, _t in got]
        assert kinds == [WM.LBUTTONDOWN, WM.LBUTTONUP]

    def test_nt_down_delivered_before_up(self, nt40):
        """On NT the button-down is processed while the button is held."""
        got = []
        nt40.spawn("app", collecting_app(nt40, got), foreground=True)
        nt40.run_for(ns_from_ms(5))
        press = nt40.now
        nt40.machine.mouse.click(hold_ns=ns_from_ms(80))
        nt40.run_for(ns_from_ms(200))
        down_time = got[0][2]
        assert down_time - press < ns_from_ms(10)


class TestWin95MouseSpin:
    def test_messages_delivered_only_after_release(self, win95):
        got = []
        win95.spawn("app", collecting_app(win95, got), foreground=True)
        win95.run_for(ns_from_ms(5))
        press = win95.now
        win95.machine.mouse.click(hold_ns=ns_from_ms(90))
        win95.run_for(ns_from_ms(300))
        kinds = [kind for kind, _p, _t in got]
        assert kinds == [WM.LBUTTONDOWN, WM.LBUTTONUP]
        # Both deliveries happen after the button-up (the spin blocked them).
        assert got[0][2] - press >= ns_from_ms(90)

    def test_cpu_spins_during_press(self, win95):
        win95.spawn("app", collecting_app(win95, []), foreground=True)
        win95.run_for(ns_from_ms(5))
        busy_before = win95.machine.cpu.busy_ns
        win95.machine.mouse.click(hold_ns=ns_from_ms(90))
        win95.run_for(ns_from_ms(150))
        busy_delta = win95.machine.cpu.busy_ns - busy_before
        # Nearly the whole 90 ms press burned as busy-wait.
        assert busy_delta >= ns_from_ms(85)

    def test_system_recovers_after_spin(self, win95):
        got = []
        win95.spawn("app", collecting_app(win95, got), foreground=True)
        win95.run_for(ns_from_ms(5))
        win95.machine.mouse.click(hold_ns=ns_from_ms(50))
        win95.run_for(ns_from_ms(200))
        win95.machine.keyboard.keystroke("z")
        win95.run_for(ns_from_ms(50))
        assert WM.CHAR in [kind for kind, _p, _t in got]
