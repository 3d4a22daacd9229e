"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0

    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(30, lambda: order.append("c"))
        sim.schedule(10, lambda: order.append("a"))
        sim.schedule(20, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self, sim):
        order = []
        sim.schedule(10, lambda: order.append(1))
        sim.schedule(10, lambda: order.append(2))
        sim.schedule(10, lambda: order.append(3))
        sim.run()
        assert order == [1, 2, 3]

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]

    def test_zero_delay_allowed(self, sim):
        fired = []
        sim.schedule(0, lambda: fired.append(True))
        sim.run()
        assert fired == [True]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_in_past_rejected(self, sim):
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(50, lambda: None)

    def test_callbacks_can_schedule_more(self, sim):
        seen = []

        def first():
            seen.append("first")
            sim.schedule(5, lambda: seen.append("second"))

        sim.schedule(10, first)
        sim.run()
        assert seen == ["first", "second"]
        assert sim.now == 15


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(10, lambda: fired.append(True))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_one_of_many(self, sim):
        fired = []
        sim.schedule(10, lambda: fired.append("a"))
        handle = sim.schedule(20, lambda: fired.append("b"))
        sim.schedule(30, lambda: fired.append("c"))
        handle.cancel()
        sim.run()
        assert fired == ["a", "c"]

    def test_pending_count_ignores_cancelled(self, sim):
        handle = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        assert sim.pending_count() == 2
        handle.cancel()
        assert sim.pending_count() == 1

    def test_peek_next_time_skips_cancelled(self, sim):
        first = sim.schedule(10, lambda: None)
        sim.schedule(25, lambda: None)
        first.cancel()
        assert sim.peek_next_time() == 25


class TestRunBounds:
    def test_until_ns_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(100, lambda: fired.append(True))
        sim.run(until_ns=50)
        assert fired == []
        assert sim.now == 50

    def test_until_ns_inclusive_of_boundary_events(self, sim):
        fired = []
        sim.schedule(50, lambda: fired.append(True))
        sim.run(until_ns=50)
        assert fired == [True]

    def test_resume_after_horizon(self, sim):
        fired = []
        sim.schedule(100, lambda: fired.append(True))
        sim.run(until_ns=50)
        sim.run(until_ns=150)
        assert fired == [True]

    def test_until_predicate(self, sim):
        count = []
        for delay in (10, 20, 30, 40):
            sim.schedule(delay, lambda: count.append(1))
        sim.run(until=lambda: len(count) >= 2)
        assert len(count) == 2

    def test_max_events(self, sim):
        count = []
        for delay in (10, 20, 30):
            sim.schedule(delay, lambda: count.append(1))
        sim.run(max_events=1)
        assert len(count) == 1

    def test_stop_from_callback(self, sim):
        fired = []

        def stopper():
            fired.append("stopper")
            sim.stop()

        sim.schedule(10, stopper)
        sim.schedule(20, lambda: fired.append("late"))
        sim.run()
        assert fired == ["stopper"]

    def test_run_not_reentrant(self, sim):
        def inner():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1, inner)
        sim.run()

    def test_empty_run_advances_to_horizon(self, sim):
        assert sim.run(until_ns=1000) == 1000

    def test_events_executed_counter(self, sim):
        sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        sim.run()
        assert sim.events_executed == 2


class TestCompaction:
    """Lazy-deletion bookkeeping: the calendar compacts itself when
    cancelled entries dominate, without changing pop order."""

    def test_pending_count_is_live_events_only(self, sim):
        handles = [sim.schedule(10 * i + 10, lambda: None) for i in range(5)]
        assert sim.pending_count() == 5
        handles[0].cancel()
        handles[3].cancel()
        assert sim.pending_count() == 3

    def test_double_cancel_counted_once(self, sim):
        handle = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending_count() == 1

    def test_small_queues_never_compact(self, sim):
        handles = [sim.schedule(10 + i, lambda: None) for i in range(10)]
        for handle in handles:
            handle.cancel()
        assert sim.compactions == 0

    def test_cancel_heavy_queue_compacts(self, sim):
        handles = [sim.schedule(10 + i, lambda: None) for i in range(200)]
        for handle in handles[:150]:
            handle.cancel()
        assert sim.compactions >= 1
        # Compaction purged the dead majority; the handful cancelled
        # since may still sit in the heap awaiting lazy discard.
        assert sim.calendar_depth() < 100
        assert sim.pending_count() == 50

    def test_compaction_preserves_execution_order(self, sim):
        order = []
        handles = []
        for index in range(300):
            handles.append(
                sim.schedule(1000 - index, lambda i=index: order.append(i))
            )
        for index, handle in enumerate(handles):
            if index % 3:
                handle.cancel()
        assert sim.compactions >= 1
        sim.run()
        # Survivors fire in descending index order (later index = earlier
        # time) — exactly the order the uncompacted calendar would use.
        expected = [i for i in range(299, -1, -1) if i % 3 == 0]
        assert order == expected

    def test_cancelled_fraction_gauge(self, sim):
        assert sim.cancelled_fraction() == 0.0
        handles = [sim.schedule(10 + i, lambda: None) for i in range(10)]
        handles[0].cancel()
        handles[1].cancel()
        assert sim.cancelled_fraction() == pytest.approx(0.2)

    def test_calendar_high_water(self, sim):
        for i in range(7):
            sim.schedule(10 + i, lambda: None)
        sim.run()
        assert sim.calendar_high_water == 7

    def test_churn_stays_compact(self, sim):
        """The preempt/reschedule pattern must not grow the heap."""
        decoy = [None]
        count = [0]

        def tick():
            count[0] += 1
            if decoy[0] is not None:
                decoy[0].cancel()
            decoy[0] = sim.schedule(10**9, lambda: None)
            if count[0] < 5000:
                sim.schedule(10, tick)

        sim.schedule(10, tick)
        sim.run(until_ns=5000 * 10 + 1)
        assert count[0] == 5000
        assert sim.calendar_depth() < 200  # not ~5000 dead entries


class TestKindConventions:
    """``register_handler`` fixes one entry point per handler id:
    ``schedule_kind``/``schedule_kind_at`` call ``fn()`` and
    ``schedule_call`` calls ``fn(payload)``."""

    def test_schedule_kind_calls_with_no_args(self, sim):
        seen = []
        hid = sim.register_handler(lambda: seen.append(sim.now))
        sim.schedule_kind(10, hid)
        sim.run()
        assert seen == [10]

    def test_schedule_kind_at_absolute(self, sim):
        seen = []
        hid = sim.register_handler(lambda: seen.append(sim.now))
        sim.schedule_kind_at(25, hid)
        sim.run()
        assert seen == [25]

    def test_schedule_call_carries_payload(self, sim):
        seen = []
        hid = sim.register_handler(seen.append)
        sim.schedule_call(5, hid, "payload")
        sim.run()
        assert seen == ["payload"]

    def test_schedule_call_none_payload_still_delivered(self, sim):
        # None is a legitimate payload (4-tuple entry), not "no argument".
        seen = []
        hid = sim.register_handler(lambda p: seen.append(p))
        sim.schedule_call(5, hid, None)
        sim.run()
        assert seen == [None]

    def test_kind_events_interleave_with_handles_in_time_seq_order(self, sim):
        order = []
        hid = sim.register_handler(lambda: order.append("kind"))
        sim.schedule(10, lambda: order.append("handle-a"))
        sim.schedule_kind(10, hid)
        sim.schedule(10, lambda: order.append("handle-b"))
        sim.run()
        assert order == ["handle-a", "kind", "handle-b"]

    def test_negative_delays_rejected(self, sim):
        hid = sim.register_handler(lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_kind(-1, hid)
        with pytest.raises(SimulationError):
            sim.schedule_call(-1, hid, None)

    def test_cancel_kind_suppresses_delivery(self, sim):
        seen = []
        hid = sim.register_handler(lambda: seen.append("fired"))
        seq = sim.schedule_kind(10, hid)
        sim.cancel_kind(seq)
        sim.run()
        assert seen == []

    def test_cancel_kind_twice_harmless(self, sim):
        hid = sim.register_handler(lambda: None)
        seq = sim.schedule_kind(10, hid)
        sim.cancel_kind(seq)
        sim.cancel_kind(seq)
        assert sim.calendar_cancelled == 1
        sim.run()
        assert sim.pending_count() == 0


class TestAccounting:
    """``pending_count`` / ``calendar_depth`` / ``calendar_cancelled``
    stay exact through schedule -> cancel -> discard -> compact
    sequences that cross the slot, handles and kind entries."""

    def test_pending_count_counts_all_three_sources(self, sim):
        hid = sim.register_handler(lambda: None)
        sim.schedule(10, lambda: None)  # slot
        sim.schedule(20, lambda: None)  # heap handle
        sim.schedule_kind(30, hid)  # heap kind entry
        assert sim.pending_count() == 3
        assert sim.calendar_depth() == 3
        assert sim.calendar_high_water == 3

    def test_cancel_moves_live_to_cancelled_not_depth(self, sim):
        hid = sim.register_handler(lambda: None)
        seqs = [sim.schedule_kind(10 * i, hid) for i in range(1, 6)]
        sim.cancel_kind(seqs[1])
        sim.cancel_kind(seqs[3])
        assert sim.calendar_depth() == 5
        assert sim.pending_count() == 3
        assert sim.calendar_cancelled == 2

    def test_cancelled_head_discarded_without_skew(self, sim):
        hid = sim.register_handler(lambda: None)
        seq = sim.schedule_kind(10, hid)
        sim.schedule_kind(20, hid)
        sim.cancel_kind(seq)
        assert sim.peek_next_time() == 20
        assert sim.pending_count() == 1
        assert sim.calendar_cancelled == 0  # discarding forgot the seq
        sim.run()
        assert sim.pending_count() == 0

    def test_heap_compaction_sweeps_cancelled_kind_entries(self):
        sim = Simulator()
        hid = sim.register_handler(lambda: None)
        seqs = [sim.schedule_kind(10 * (i + 1), hid) for i in range(100)]
        for seq in seqs[:60]:
            sim.cancel_kind(seq)
        # Kind cancellations are tracked in a seq set; heap compaction is
        # triggered through the handle path, so force one via cancel().
        handles = [sim.schedule(2000 + i, lambda: None) for i in range(20)]
        for handle in handles:
            handle.cancel()
        sim._compact()
        assert sim.calendar_cancelled == 0
        assert sim.pending_count() == 40
        sim.run()
        assert sim.events_executed == 40
