"""Unit tests for the bounded trace buffer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.trace import IntTraceBuffer, TraceBuffer, TraceOverflow


class TestBasics:
    def test_append_and_read(self):
        buffer = TraceBuffer(10)
        buffer.append(1)
        buffer.append(2)
        assert buffer.records() == [1, 2]
        assert len(buffer) == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TraceBuffer(0)

    def test_space_left(self):
        buffer = TraceBuffer(3)
        assert buffer.space_left == 3
        buffer.append(1)
        assert buffer.space_left == 2

    def test_last(self):
        buffer = TraceBuffer(3)
        assert buffer.last() is None
        buffer.append(5)
        buffer.append(6)
        assert buffer.last() == 6

    def test_clear(self):
        buffer = TraceBuffer(3)
        buffer.append(1)
        buffer.clear()
        assert len(buffer) == 0
        assert buffer.dropped == 0


class TestOverflowPolicies:
    def test_stop_drops_silently(self):
        buffer = TraceBuffer(2)
        assert buffer.append(1)
        assert buffer.append(2)
        assert not buffer.append(3)
        assert buffer.records() == [1, 2]
        assert buffer.dropped == 1
        assert buffer.lossy

    def test_iteration(self):
        buffer = TraceBuffer(4)
        for value in (7, 8):
            buffer.append(value)
        assert list(buffer) == [7, 8]


class TestLastIsO1:
    """last() never materialises the copy records() builds."""

    def test_stop_full_buffer_last_is_newest_kept(self):
        buffer = TraceBuffer(2)
        for value in range(5):
            buffer.append(value)
        assert buffer.last() == 1  # drops, never overwrites

    def test_last_does_not_copy(self, monkeypatch):
        buffer = TraceBuffer(3)
        for value in range(5):
            buffer.append(value)

        def boom():  # records() is the O(n) path last() must avoid
            raise AssertionError("last() called records()")

        monkeypatch.setattr(buffer, "records", boom)
        assert buffer.last() == 2

    def test_run_store_last_does_not_expand(self, monkeypatch):
        buffer = IntTraceBuffer(10)
        buffer.extend_ramp(100, 7, 4)

        def boom():  # view() expands every record; last() must not
            raise AssertionError("last() expanded the runs")

        monkeypatch.setattr(buffer, "view", boom)
        monkeypatch.setattr(buffer, "records", boom)
        assert buffer.last() == 121


class TestView:
    """view() is the zero-copy read path; records() returns a copy."""

    def test_view_matches_records(self):
        buffer = TraceBuffer(4)
        for value in (1, 2, 3):
            buffer.append(value)
        assert list(buffer.view()) == buffer.records() == [1, 2, 3]

    def test_unwrapped_view_is_not_a_copy(self):
        buffer = TraceBuffer(4)
        buffer.append(1)
        assert buffer.view() is buffer.view()

    def test_records_is_a_defensive_copy(self):
        buffer = TraceBuffer(4)
        buffer.append(1)
        copy = buffer.records()
        copy.append(99)
        assert buffer.records() == [1]

    def test_iteration_uses_view(self, monkeypatch):
        buffer = TraceBuffer(3)
        for value in range(5):
            buffer.append(value)
        monkeypatch.setattr(buffer, "view", lambda: [7, 8])
        assert list(buffer) == [7, 8]


class TestExtendRamp:
    def test_ramp_matches_appends(self):
        ramp = TraceBuffer(10)
        ramp.extend_ramp(100, 7, 4)
        loop = TraceBuffer(10)
        for i in range(4):
            loop.append(100 + 7 * i)
        assert ramp.records() == loop.records() == [100, 107, 114, 121]

    def test_ramp_zero_count_is_noop(self):
        buffer = TraceBuffer(2)
        buffer.extend_ramp(100, 7, 0)
        assert len(buffer) == 0

    def test_ramp_never_overflows(self):
        buffer = TraceBuffer(3)
        buffer.append(1)
        with pytest.raises(TraceOverflow):
            buffer.extend_ramp(100, 7, 3)
        assert buffer.records() == [1]  # nothing partially applied

    def test_ramp_exactly_fills(self):
        buffer = TraceBuffer(3)
        buffer.extend_ramp(0, 1, 3)
        assert buffer.space_left == 0
        assert buffer.records() == [0, 1, 2]


class TestIntTraceBuffer:
    def test_one_ramp_is_one_run(self):
        buffer = IntTraceBuffer(100)
        buffer.extend_ramp(10**9, 250_000, 50)
        starts, steps, counts = buffer.runs()
        assert (starts.tolist(), steps.tolist(), counts.tolist()) == (
            [10**9],
            [250_000],
            [50],
        )
        assert len(buffer) == 50
        assert buffer.space_left == 50
        buffer.append(2 * 10**9)
        assert len(buffer.runs()[0]) == 2
        assert len(buffer) == 51

    def test_behaves_like_trace_buffer(self):
        buffer = IntTraceBuffer(3)
        assert buffer.append(1)
        assert buffer.append(2)
        assert buffer.append(3)
        assert not buffer.append(4)
        assert buffer.records() == [1, 2, 3]
        assert buffer.last() == 3
        assert buffer.dropped == 1

    def test_fast_ramp_matches_generic(self):
        fast = IntTraceBuffer(100)
        fast.extend_ramp(10**9, 250_000, 50)
        generic = TraceBuffer(100)
        generic.extend_ramp(10**9, 250_000, 50)
        assert fast.records() == generic.records()

    def test_fast_ramp_zero_step(self):
        buffer = IntTraceBuffer(5)
        buffer.extend_ramp(42, 0, 3)
        assert buffer.records() == [42, 42, 42]

    def test_clear_empties_runs_and_records(self):
        buffer = IntTraceBuffer(4)
        buffer.extend_ramp(0, 1, 3)
        buffer.append(9)
        buffer.append(10)
        assert buffer.dropped == 1
        buffer.clear()
        assert [len(column) for column in buffer.runs()] == [0, 0, 0]
        assert len(buffer) == 0 and buffer.dropped == 0
        assert buffer.records() == []
        buffer.append(2)
        assert buffer.records() == [2]

    def test_jump_ramps_in_one_call(self):
        buffer = IntTraceBuffer(10)
        buffer.extend_ramps([(100, 3), (150, 1), (160, 2)], 10)
        assert buffer.records() == [100, 110, 120, 150, 160, 170]
        assert len(buffer.runs()[0]) == 3
        with pytest.raises(TraceOverflow):
            buffer.extend_ramps([(200, 2), (300, 3)], 10)
        assert len(buffer) == 6  # nothing partially applied

    def test_snapshot_does_not_pin_the_buffer(self):
        buffer = IntTraceBuffer(10)
        buffer.extend_ramp(0, 5, 3)
        snapshot = buffer.runs()
        buffer.append(20)
        assert snapshot[0].tolist() == [0]
        assert buffer.records() == [0, 5, 10, 20]

    def test_records_returns_plain_list(self):
        buffer = IntTraceBuffer(4)
        buffer.extend_ramp(0, 1, 3)
        records = buffer.records()
        assert type(records) is list
        assert records == [0, 1, 2]


# One buffer operation: ("append", record) or ("ramp", start, step, count).
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(-(10**12), 10**12)),
        st.tuples(
            st.just("ramp"),
            st.integers(-(10**12), 10**12),
            st.integers(0, 10**7),
            st.integers(0, 12),
        ),
    ),
    max_size=40,
)


@given(st.integers(1, 60), _operations)
@settings(max_examples=200, deadline=None)
def test_runs_match_the_generic_buffer(capacity, operations):
    """Any interleaving of append and extend_ramp leaves the run store
    with the generic buffer's records and counts, also at capacity."""
    runs, generic = IntTraceBuffer(capacity), TraceBuffer(capacity)
    for operation in operations:
        outcomes = []
        for buffer in (runs, generic):
            try:
                if operation[0] == "append":
                    outcomes.append(buffer.append(operation[1]))
                else:
                    outcomes.append(buffer.extend_ramp(*operation[1:]))
            except TraceOverflow:
                outcomes.append("overflow")
        assert outcomes[0] == outcomes[1]
        assert len(runs) == len(generic)
        assert runs.space_left == generic.space_left
        assert runs.dropped == generic.dropped
        assert runs.full == generic.full
        assert runs.last() == generic.last()
    assert runs.records() == generic.records()
