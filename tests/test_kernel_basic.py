"""Unit tests for kernel syscall dispatch."""

import pytest

from repro.sim.timebase import ns_from_ms
from repro.winsys import (
    Compute,
    GetMessage,
    KillTimer,
    Message,
    PeekMessage,
    ReadCycleCounter,
    SetTimer,
    WM,
    boot,
)
from repro.winsys.threads import ThreadState


def run_program(system, program, until_ms=1000):
    thread = system.spawn("test", program)
    system.run_for(ns_from_ms(until_ms))
    return thread


class TestCompute:
    def test_compute_takes_simulated_time(self, nt40):
        finished = []

        def program():
            yield Compute(nt40.personality.app_work(100_000))  # 1 ms
            finished.append(nt40.now)

        run_program(nt40, program())
        assert len(finished) == 1
        assert finished[0] >= ns_from_ms(1)

    def test_sequential_computes_accumulate(self, nt40):
        stamps = []

        def program():
            for _ in range(3):
                yield Compute(nt40.personality.app_work(100_000))
                stamps.append(nt40.now)

        run_program(nt40, program())
        assert len(stamps) == 3
        assert stamps[2] - stamps[0] >= ns_from_ms(2)

    def test_thread_finishes(self, nt40):
        def program():
            yield Compute(nt40.personality.app_work(1000))

        thread = run_program(nt40, program())
        assert thread.state == ThreadState.DONE


class TestMessaging:
    def test_getmessage_blocks_until_post(self, nt40):
        got = []

        def receiver():
            message = yield GetMessage()
            got.append((message.kind, nt40.now))

        thread = nt40.spawn("receiver", receiver())
        nt40.run_for(ns_from_ms(5))
        assert got == []
        assert thread.blocked
        nt40.kernel.post_message(thread, Message(WM.USER, payload=1))
        nt40.run_for(ns_from_ms(5))
        assert got and got[0][0] == WM.USER

    def test_getmessage_nonblocking_when_queued(self, nt40):
        got = []

        def receiver():
            message = yield GetMessage()
            got.append(message.payload)

        thread = nt40.spawn("receiver", receiver())
        nt40.kernel.post_message(thread, Message(WM.USER, payload="hi"))
        nt40.run_for(ns_from_ms(5))
        assert got == ["hi"]

    def test_peekmessage_returns_none_when_empty(self, nt40):
        results = []

        def program():
            results.append((yield PeekMessage()))

        run_program(nt40, program(), until_ms=10)
        assert results == [None]

    def test_peekmessage_remove_semantics(self, nt40):
        results = []

        def program():
            results.append((yield PeekMessage()))
            results.append((yield PeekMessage()))

        thread = nt40.spawn("peeker", program())
        nt40.kernel.post_message(thread, Message(WM.USER, payload="only"))
        nt40.run_for(ns_from_ms(10))
        assert results[0].payload == "only"  # removed
        assert results[1] is None

class TestTimersAndSleep:
    def test_set_timer_posts_wm_timer(self, nt40):
        fired = []

        def program():
            yield SetTimer(timer_id=1, period_ns=ns_from_ms(20))
            for _ in range(3):
                message = yield GetMessage()
                if message.kind == WM.TIMER:
                    fired.append(nt40.now)
            yield KillTimer(timer_id=1)

        run_program(nt40, program(), until_ms=200)
        assert len(fired) == 3
        gaps = [b - a for a, b in zip(fired, fired[1:])]
        for gap in gaps:
            assert abs(gap - ns_from_ms(20)) <= ns_from_ms(11)

    def test_kill_timer_stops_messages(self, nt40):
        count = [0]

        def program():
            yield SetTimer(timer_id=1, period_ns=ns_from_ms(10))
            message = yield GetMessage()
            assert message.kind == WM.TIMER
            count[0] += 1
            yield KillTimer(timer_id=1)
            message = yield GetMessage()  # blocks forever
            count[0] += 1

        thread = run_program(nt40, program(), until_ms=300)
        assert count[0] == 1
        assert thread.blocked


class TestMisc:
    def test_read_cycle_counter(self, nt40):
        values = []

        def program():
            values.append((yield ReadCycleCounter()))
            yield Compute(nt40.personality.app_work(100_000))
            values.append((yield ReadCycleCounter()))

        run_program(nt40, program())
        assert values[1] - values[0] >= 100_000
