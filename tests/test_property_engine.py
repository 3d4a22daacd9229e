"""Property-based tests for the discrete-event engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator


@given(delays=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=50))
@settings(max_examples=100)
def test_events_always_execute_in_nondecreasing_time_order(delays):
    sim = Simulator()
    executed = []
    for delay in delays:
        sim.schedule(delay, lambda: executed.append(sim.now))
    sim.run()
    assert executed == sorted(executed)
    assert len(executed) == len(delays)


@given(
    delays=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=30),
    cancel_mask=st.lists(st.booleans(), min_size=1, max_size=30),
)
@settings(max_examples=100)
def test_cancelled_events_never_fire(delays, cancel_mask):
    sim = Simulator()
    fired = []
    handles = []
    for index, delay in enumerate(delays):
        handles.append(sim.schedule(delay, lambda i=index: fired.append(i)))
    cancelled = set()
    for index, (handle, cancel) in enumerate(zip(handles, cancel_mask)):
        if cancel:
            handle.cancel()
            cancelled.add(index)
    sim.run()
    assert set(fired) == set(range(len(delays))) - cancelled


@given(
    delays=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=30),
    horizon=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=100)
def test_horizon_splits_execution_exactly(delays, horizon):
    sim = Simulator()
    early, late = [], []
    for delay in delays:
        sim.schedule(
            delay,
            lambda d=delay: (early if d <= horizon else late).append(d),
        )
    sim.run(until_ns=horizon)
    assert sorted(early) == sorted(d for d in delays if d <= horizon)
    assert late == []
    sim.run()
    assert sorted(late) == sorted(d for d in delays if d > horizon)


@given(seed_delays=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=20))
@settings(max_examples=50)
def test_clock_never_goes_backwards(seed_delays):
    sim = Simulator()
    observed = []

    def chain(remaining):
        observed.append(sim.now)
        if remaining:
            sim.schedule(remaining[0], lambda: chain(remaining[1:]))

    sim.schedule(seed_delays[0], lambda: chain(seed_delays[1:]))
    sim.run()
    assert observed == sorted(observed)


class _ReferenceCalendar:
    """Naive, compaction-free model of the event calendar: a sorted list
    of (time, seq) keys, with cancellation by removal."""

    def __init__(self):
        self.now = 0
        self.seq = 0
        self.entries = []

    def schedule(self, delay, token):
        key = (self.now + delay, self.seq)
        self.seq += 1
        self.entries.append((key, token))
        return key

    def cancel(self, key):
        self.entries = [item for item in self.entries if item[0] != key]

    def run(self):
        fired = []
        while self.entries:
            self.entries.sort(key=lambda item: item[0])
            (time, _), token = self.entries.pop(0)
            self.now = time
            fired.append(token)
        return fired


@given(
    delays=st.lists(
        st.integers(min_value=0, max_value=1000), min_size=64, max_size=200
    ),
    data=st.data(),
)
@settings(max_examples=50)
def test_compacting_simulator_matches_reference(delays, data):
    """Random schedules + random cancellations: the compacting heap must
    fire exactly the events the naive sorted-list calendar fires, in the
    same order — compaction is invisible."""
    cancel_mask = data.draw(
        st.lists(
            st.booleans(), min_size=len(delays), max_size=len(delays)
        )
    )
    sim = Simulator()
    fired = []
    handles = []
    reference = _ReferenceCalendar()
    ref_keys = []
    for index, delay in enumerate(delays):
        handles.append(sim.schedule(delay, lambda i=index: fired.append(i)))
        ref_keys.append(reference.schedule(delay, index))
    for index, cancel in enumerate(cancel_mask):
        if cancel:
            handles[index].cancel()
            reference.cancel(ref_keys[index])
    sim.run()
    assert fired == reference.run()
    assert sim.pending_count() == 0


@given(
    step=st.integers(min_value=1, max_value=500),
    next_event=st.integers(min_value=1, max_value=10**6),
)
@settings(max_examples=200)
def test_fast_forward_budget_lands_strictly_before_next_event(step, next_event):
    sim = Simulator()
    sim.schedule(next_event, lambda: None)
    limit, _reason = sim.jump_window()
    budget = max(0, (limit - sim.now) // step)
    assert budget >= 0
    if budget:
        # The largest admissible jump still leaves the event in the future,
        sim.fast_forward(budget * step, events=budget)
        assert sim.now < next_event
        # and one more segment would reach or cross it.
        assert sim.now + step >= next_event
