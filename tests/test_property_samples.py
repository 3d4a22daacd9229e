"""Property-based tests for sample-trace invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.samples import SampleTrace

MS = 1_000_000


@st.composite
def traces(draw):
    """Random plausible idle-loop traces: intervals >= the loop time."""
    loop_ns = draw(st.sampled_from([MS // 4, MS, 4 * MS]))
    count = draw(st.integers(min_value=2, max_value=100))
    extras = draw(
        st.lists(
            st.integers(min_value=0, max_value=50 * MS),
            min_size=count - 1,
            max_size=count - 1,
        )
    )
    times = [0]
    for extra in extras:
        times.append(times[-1] + loop_ns + extra)
    return SampleTrace(times, loop_ns=loop_ns), extras


@given(traces())
@settings(max_examples=100)
def test_total_busy_equals_sum_of_elongations(trace_and_extras):
    trace, extras = trace_and_extras
    assert trace.total_busy_ns() == sum(extras)


@given(traces())
@settings(max_examples=100)
def test_utilization_bounded(trace_and_extras):
    trace, _extras = trace_and_extras
    _times, util = trace.per_sample_utilization()
    assert np.all(util >= 0.0)
    assert np.all(util < 1.0)


@given(traces(), st.integers(min_value=1, max_value=20))
@settings(max_examples=100)
def test_windowed_busy_conserved(trace_and_extras, window_ms):
    """Windowing must neither create nor destroy busy time."""
    trace, extras = trace_and_extras
    _starts, util = trace.utilization_windows(window_ms * MS)
    # Total busy from windows (last window may be clipped at t1).
    t0, t1 = int(trace.times[0]), int(trace.times[-1])
    busy_from_windows = 0.0
    for index, value in enumerate(util):
        w_lo = t0 + index * window_ms * MS
        w_hi = min(w_lo + window_ms * MS, t1)
        busy_from_windows += value * window_ms * MS if w_hi - w_lo == window_ms * MS else value * window_ms * MS
    # Clipping the final window can lose at most one window of busy.
    assert abs(busy_from_windows - sum(extras)) <= (window_ms + 1) * MS


@given(traces())
@settings(max_examples=100)
def test_elongated_covers_all_busy(trace_and_extras):
    trace, extras = trace_and_extras
    # factor=1.0 detects any interval strictly longer than the loop.
    found_busy = sum(busy for _s, _e, busy in trace.elongated(factor=1.0))
    assert found_busy == sum(extras)


@given(traces(), st.data())
@settings(max_examples=50)
def test_slice_preserves_intervals(trace_and_extras, data):
    trace, _extras = trace_and_extras
    t0 = int(trace.times[0])
    t1 = int(trace.times[-1])
    lo = data.draw(st.integers(min_value=t0, max_value=t1))
    hi = data.draw(st.integers(min_value=lo, max_value=t1))
    sliced = trace.slice(lo, hi)
    assert all(lo <= t <= hi for t in sliced.times)
    assert sliced.total_busy_ns() <= trace.total_busy_ns()


# ---------------------------------------------------------------------------
# A trace held as runs analyses exactly like its expanded records.
# ---------------------------------------------------------------------------

#: (loop_ns, record spacing on an idle CPU): the ablation's 0.25, 1 and
#: 4 ms loops, and a 0.3336 ms loop whose 334,000 ns step exceeds it.
LOOPS = [(MS // 4, MS // 4), (MS, MS), (4 * MS, 4 * MS), (333_600, 334_000)]


@st.composite
def run_traces(draw):
    """(loop_ns, starts, steps, counts): single records, idle ramps and
    zero-step runs, separated by gaps that may be zero."""
    loop_ns, spacing = draw(st.sampled_from(LOOPS))
    starts, steps, counts = [], [], []
    t = draw(st.integers(min_value=0, max_value=10 * MS))
    for index in range(draw(st.integers(min_value=1, max_value=25))):
        if index:
            t += draw(
                st.one_of(
                    st.sampled_from([0, spacing]),
                    st.integers(min_value=0, max_value=20 * MS),
                )
            )
        kind = draw(st.sampled_from(["single", "ramp", "flat"]))
        if kind == "single":
            count, step = 1, draw(st.sampled_from([0, spacing]))
        else:
            count = draw(st.integers(min_value=2, max_value=12))
            step = spacing if kind == "ramp" else 0
        starts.append(t)
        steps.append(step)
        counts.append(count)
        t += (count - 1) * step
    return loop_ns, starts, steps, counts


def _expanded(starts, steps, counts):
    return [
        start + index * step
        for start, step, count in zip(starts, steps, counts)
        for index in range(count)
    ]


def _both(runs):
    loop_ns, starts, steps, counts = runs
    return (
        SampleTrace.from_runs(starts, steps, counts, loop_ns),
        SampleTrace(_expanded(starts, steps, counts), loop_ns),
    )


def _assert_same_analysis(from_runs, from_times):
    from repro.core.extract import EventExtractor

    assert len(from_runs) == len(from_times)
    assert from_runs.times.tolist() == from_times.times.tolist()
    assert from_runs.total_busy_ns() == from_times.total_busy_ns()
    assert from_runs.total_span_ns() == from_times.total_span_ns()
    for factor in (1.0, 1.5, 3.0):
        assert from_runs.elongated(factor) == from_times.elongated(factor)
        extractor = EventExtractor(elongation_factor=factor)
        assert extractor.busy_periods(from_runs) == extractor.busy_periods(from_times)
    with np.errstate(invalid="ignore"):  # a zero interval is 0/0 on both
        ours = from_runs.per_sample_utilization()
        theirs = from_times.per_sample_utilization()
    assert np.array_equal(ours[0], theirs[0])
    assert np.array_equal(ours[1], theirs[1], equal_nan=True)


@given(run_traces())
@settings(max_examples=200, deadline=None)
def test_runs_analyse_like_their_records(runs):
    _assert_same_analysis(*_both(runs))


@given(run_traces(), st.data())
@settings(max_examples=150, deadline=None)
def test_runs_slice_and_window_like_their_records(runs, data):
    from_runs, from_times = _both(runs)
    _loop_ns, starts, steps, counts = runs
    first, last = from_times.first_ns, from_times.last_ns
    # Bounds on run edges, next to them, between runs and outside all.
    points = [first - MS, last + MS]
    for start, step, count in zip(starts, steps, counts):
        end = start + (count - 1) * step
        points += [start - 1, start, start + 1, end - 1, end, end + 1]
    bound = st.one_of(
        st.sampled_from(points), st.integers(first - 2 * MS, last + 2 * MS)
    )
    lo = data.draw(bound)
    hi = data.draw(bound.filter(lambda value: value >= lo))
    _assert_same_analysis(from_runs.slice(lo, hi), from_times.slice(lo, hi))

    window_ns = data.draw(st.sampled_from([MS // 4, MS, 10 * MS]))
    for ours, theirs in zip(
        from_runs.utilization_windows(window_ns),
        from_times.utilization_windows(window_ns),
    ):
        assert np.array_equal(ours, theirs)
    ours = from_runs.utilization_windows(window_ns, start_ns=lo, end_ns=hi)
    theirs = from_times.utilization_windows(window_ns, start_ns=lo, end_ns=hi)
    assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))

    from repro.core.extract import EventExtractor

    io_lo = data.draw(bound)
    io_hi = data.draw(bound.filter(lambda value: value > io_lo))
    extractor = EventExtractor(io_wait_spans=[(io_lo, io_hi)])
    assert extractor.pieces(from_runs) == extractor.pieces(from_times)


@given(run_traces(), st.data())
@settings(max_examples=100, deadline=None)
def test_out_of_order_runs_raise_like_their_records(runs, data):
    loop_ns, starts, steps, counts = runs
    starts, steps = list(starts), list(steps)
    if len(starts) > 1 and data.draw(st.booleans()):
        # A run that starts before the previous run's last record.
        index = data.draw(st.integers(1, len(starts) - 1))
        previous_end = starts[index - 1] + (counts[index - 1] - 1) * steps[index - 1]
        starts[index] = previous_end - data.draw(st.integers(1, 5 * MS))
    else:
        # A run that steps backwards.
        counts = list(counts)
        index = data.draw(st.integers(0, len(starts) - 1))
        counts[index] = max(counts[index], 2)
        steps[index] = -data.draw(st.integers(1, MS))
    with pytest.raises(ValueError) as from_runs:
        SampleTrace.from_runs(starts, steps, counts, loop_ns)
    with pytest.raises(ValueError) as from_times:
        SampleTrace(_expanded(starts, steps, counts), loop_ns)
    assert str(from_runs.value) == str(from_times.value)
