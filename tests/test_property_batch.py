"""Differential hypothesis tests: the engine vs a pure-heapq oracle.

The oracle executes every scheduled entry one at a time off a plain
``heapq`` keyed ``(time, seq)`` — no slot, no kind table, no
compaction.  Randomised schedule / cancel / reschedule workloads over
closure handles (``schedule`` / ``ScheduledEvent.cancel``) and kind
entries (``schedule_call`` / ``cancel_kind``) must produce the
oracle's ``(time, seq, callback-order)`` history on the real engine:
the next-event slot, the kind table and lazy deletion are pure
execution-strategy choices.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator


class _HeapqOracle:
    """Reference semantics for the mixed calendar, one heap, no tricks."""

    def __init__(self):
        self.now = 0
        self.seq = 0
        self.heap = []
        self.cancelled = set()
        self.history = []

    def schedule(self, delay, tag):
        time_ns = self.now + delay
        seq = self.seq
        self.seq += 1
        heapq.heappush(self.heap, (time_ns, seq, tag))
        return seq

    def cancel(self, seq):
        self.cancelled.add(seq)

    def run(self):
        while self.heap:
            time_ns, seq, tag = heapq.heappop(self.heap)
            if seq in self.cancelled:
                self.cancelled.discard(seq)
                continue
            self.now = time_ns
            self.history.append((tag, time_ns, seq))


# One workload program: a list of operations interpreted in order.
#   ("kind", delay)     — kind entry (schedule_call)
#   ("handle", delay)   — closure-handle event (schedule)
#   ("cancel", k)       — cancel the k-th still-live scheduled entry
#   ("resched", k, d)   — cancel the k-th live entry, schedule a new kind
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("kind"), st.integers(0, 500)),
        st.tuples(st.just("handle"), st.integers(0, 500)),
        st.tuples(st.just("cancel"), st.integers(0, 30)),
        st.tuples(st.just("resched"), st.integers(0, 30), st.integers(0, 500)),
    ),
    min_size=1,
    max_size=60,
)


def _run_engine(ops):
    sim = Simulator()
    history = []
    # Kind entries carry a one-slot box as payload so the handler can
    # report its own seq at fire time.
    kind_hid = sim.register_handler(
        lambda box: history.append(("kind", sim.now, box[0]))
    )
    live = []  # (seq or handle, canceller) in schedule order

    def schedule_kind(delay):
        box = [None]
        box[0] = sim.schedule_call(delay, kind_hid, box)
        live.append((box[0], sim.cancel_kind))

    def do_cancel(k):
        if live:
            target, canceller = live.pop(k % len(live))
            canceller(target)

    for op in ops:
        if op[0] == "kind":
            schedule_kind(op[1])
        elif op[0] == "handle":
            handle = sim.schedule(
                op[1], lambda: history.append(("handle", sim.now))
            )
            live.append((handle, lambda h: h.cancel()))
        elif op[0] == "cancel":
            do_cancel(op[1])
        else:  # resched: cancel one, schedule a replacement
            do_cancel(op[1])
            schedule_kind(op[2])
    sim.run()
    return history, sim.now


def _run_oracle(ops):
    oracle = _HeapqOracle()
    live = []

    def do_cancel(k):
        if live:
            oracle.cancel(live.pop(k % len(live)))

    for op in ops:
        if op[0] in ("kind", "handle"):
            live.append(oracle.schedule(op[1], op[0]))
        elif op[0] == "cancel":
            do_cancel(op[1])
        else:
            do_cancel(op[1])
            live.append(oracle.schedule(op[2], "kind"))
    oracle.run()
    return oracle.history, oracle.now


def _normalise(history):
    # Handle events carry no seq on the engine side; compare (tag, time)
    # there and (tag, time, seq) for kind entries.
    return [
        (entry[0], entry[1]) if entry[0] == "handle" else entry
        for entry in history
    ]


@given(ops=_OPS)
@settings(max_examples=200, deadline=None)
def test_engine_matches_heapq_oracle(ops):
    history, now = _run_engine(ops)
    oracle_history, oracle_now = _run_oracle(ops)
    assert _normalise(history) == _normalise(oracle_history)
    # The engine parks the clock where the last event ran; so does the
    # oracle (both leave now untouched when nothing fired).
    if oracle_history:
        assert now == oracle_now


@given(
    periods=st.lists(st.integers(1, 50), min_size=1, max_size=8),
    population=st.integers(1, 20),
    horizon=st.integers(100, 2000),
)
@settings(max_examples=100, deadline=None)
def test_periodic_populations_match_oracle_under_horizon(
    periods, population, horizon
):
    """Self-re-arming timer populations — the clock tick's shape — stay
    identical to the oracle across run horizons."""

    def engine_history():
        sim = Simulator()
        history = []

        def arm(index, delay):
            box = [index, None]
            box[1] = sim.schedule_call(delay, hid, box)

        def fire(box):
            index, seq = box
            history.append((index, sim.now, seq))
            if sim.now + periods[index] <= horizon:
                arm(index, periods[index])

        hid = sim.register_handler(fire)
        for index, period in enumerate(periods):
            for _ in range(population):
                arm(index, period)
        sim.run(until_ns=horizon)
        return history

    def oracle_history():
        oracle = _HeapqOracle()
        results = []
        for index, period in enumerate(periods):
            for _ in range(population):
                oracle.schedule(period, index)
        while oracle.heap and oracle.heap[0][0] <= horizon:
            time_ns, seq, index = heapq.heappop(oracle.heap)
            oracle.now = time_ns
            results.append((index, time_ns, seq))
            if time_ns + periods[index] <= horizon:
                oracle.schedule(periods[index], index)
        return results

    assert engine_history() == oracle_history()
