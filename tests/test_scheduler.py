"""Unit tests for the priority scheduler."""

import pytest

from repro.winsys.scheduler import Scheduler
from repro.winsys.threads import SimThread, ThreadState


def make_thread(name="t", priority=8):
    def program():
        yield None

    return SimThread(name, program(), priority=priority)


class TestScheduler:
    def test_highest_priority_first(self):
        scheduler = Scheduler()
        low = make_thread("low", 1)
        high = make_thread("high", 12)
        scheduler.make_ready(low)
        scheduler.make_ready(high)
        assert scheduler.pick() is high
        assert scheduler.pick() is low

    def test_fifo_within_priority(self):
        scheduler = Scheduler()
        a, b = make_thread("a", 8), make_thread("b", 8)
        scheduler.make_ready(a)
        scheduler.make_ready(b)
        assert scheduler.pick() is a
        assert scheduler.pick() is b

    @pytest.mark.parametrize("times", [0, 1, 3])
    def test_requeue_and_pick_draws_once_per_preemption(self, times):
        """Without a jitter source one round stands for all of them; with
        one, each replayed preemption draws, and none is replayed for
        zero."""
        draws = []
        scheduler = Scheduler()
        idle, thread = make_thread("idle", 0), make_thread("busy", 8)
        scheduler.make_ready(idle)
        scheduler.make_ready(thread)
        assert scheduler.pick() is thread
        scheduler.requeue_and_pick(thread, times)
        assert thread.state == ThreadState.RUNNING
        assert scheduler.top == 0
        scheduler.set_requeue_jitter(lambda t: draws.append(t) or len(draws) % 2)
        scheduler.requeue_and_pick(thread, times)
        assert draws == [thread] * times
        assert thread.state == ThreadState.RUNNING
        assert scheduler.top == 0
        assert scheduler.pick() is idle

    def test_front_requeue(self):
        scheduler = Scheduler()
        a, b = make_thread("a", 8), make_thread("b", 8)
        scheduler.make_ready(a)
        scheduler.make_ready(b, front=True)
        assert scheduler.pick() is b

    def test_pick_empty_returns_none(self):
        assert Scheduler().pick() is None

    def test_pick_sets_running_state(self):
        scheduler = Scheduler()
        thread = make_thread()
        scheduler.make_ready(thread)
        assert thread.state == ThreadState.READY
        scheduler.pick()
        assert thread.state == ThreadState.RUNNING

    def test_top_priority(self):
        scheduler = Scheduler()
        assert scheduler.top_priority() is None
        low, high = make_thread(priority=3), make_thread(priority=9)
        scheduler.make_ready(low)
        scheduler.make_ready(high)
        assert scheduler.top_priority() == 9
        # Both threads are queued, best first.
        assert [scheduler.pick(), scheduler.pick(), scheduler.pick()] == [high, low, None]

    def test_has_ready_at(self):
        scheduler = Scheduler()
        scheduler.make_ready(make_thread(priority=5))
        assert scheduler.has_ready_at(5)
        assert not scheduler.has_ready_at(8)

    def test_remove(self):
        scheduler = Scheduler()
        thread = make_thread()
        scheduler.make_ready(thread)
        assert scheduler.remove(thread)
        assert scheduler.pick() is None
        assert not scheduler.remove(thread)

    def test_cannot_ready_done_thread(self):
        scheduler = Scheduler()
        thread = make_thread()
        thread.state = ThreadState.DONE
        with pytest.raises(ValueError):
            scheduler.make_ready(thread)


class TestSimThread:
    def test_advance_starts_then_sends(self):
        received = []

        def program():
            value = yield "first"
            received.append(value)
            yield "second"

        thread = SimThread("t", program())
        assert thread.advance() == "first"
        assert thread.advance("hello") == "second"
        assert received == ["hello"]

    def test_stopiteration_on_finish(self):
        def program():
            yield "only"

        thread = SimThread("t", program())
        thread.advance()
        with pytest.raises(StopIteration):
            thread.advance(None)

    def test_unique_ids(self):
        a, b = make_thread(), make_thread()
        assert a.tid != b.tid
