"""Fast-forward ablation benchmarks (idle- vs busy-dominated workloads).

These quantify the determinism-preserving idle fast-forward path
(``docs/performance.md``): on an idle-dominated trace the kernel batches
uncontended idle-loop segments analytically, so wall time stops scaling
with loop granularity; on a busy-dominated trace the fast path almost
never fires and must cost nothing.

Each benchmark also *checks* the optimisation's contract where cheap to
do so: the ablation run asserts the collected records are identical with
the optimisation on and off.  ``extra_info`` carries the simulated span,
event counts and the measured speedup; ``python -m repro.perfgate
collect`` turns those into the tracked metrics the perf gate compares.
"""

import time

from repro.apps import NotepadApp
from repro.core import IdleLoopInstrument
from repro.sim.engine import fast_forward_scope
from repro.sim.timebase import ns_from_ms
from repro.sim.work import HwEvent, Work
from repro.winsys import boot
from repro.winsys.syscalls import Compute
from repro.workload.mstest import MsTestDriver
from repro.workload.script import InputScript, Key

#: High-resolution tracing point for the ablation: a 0.1 ms loop is the
#: fine end of the granularity/buffer trade-off the paper discusses
#: (finer loop, more records), and the regime where skipping idle
#: segments pays most — slow-path cost scales with record count while
#: the fast path only pays a fixed cost per clock-tick period.
_ABLATION_LOOP_MS = 0.1
_ABLATION_SIM_MS = 5_000.0


def _idle_run(fast_forward, loop_ms=_ABLATION_LOOP_MS, sim_ms=_ABLATION_SIM_MS):
    """Boot nt40, trace an idle system, return (records, sim stats)."""
    with fast_forward_scope(fast_forward):
        system = boot("nt40")
        instrument = IdleLoopInstrument(system, loop_ms=loop_ms)
        instrument.install()
        system.run_for(ns_from_ms(sim_ms))
        return (
            instrument.buffer.records(),
            system.sim.events_executed,
            system.kernel.fast_forward_batches,
        )


def test_idle_fastforward_ablation(benchmark):
    """Idle-dominated trace: fast forward on (benchmarked) vs off (timed).

    Asserts the two runs collect byte-identical records and that the
    speedup clears the 5x floor the perf gate tracks.
    """
    result = benchmark(_idle_run, True)
    records_on, events_on, batches = result
    assert batches > 0, "fast forward never fired on an idle system"

    # The slow path is too slow to hand to the benchmark fixture's round
    # machinery; time it directly (best of two to shed warm-up noise).
    off_s = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        records_off, events_off, _ = _idle_run(False)
        off_s = min(off_s, time.perf_counter() - started)

    assert records_on == records_off, "fast forward changed the trace"
    assert events_on == events_off, "fast forward changed the event count"

    on_s = benchmark.stats.stats.median
    speedup = off_s / on_s
    sim_ns = ns_from_ms(_ABLATION_SIM_MS)
    benchmark.extra_info["sim_ns"] = sim_ns
    benchmark.extra_info["events"] = events_on
    benchmark.extra_info["ff_off_s"] = off_s
    benchmark.extra_info["idle_ff_speedup"] = speedup
    assert speedup >= 5.0, (
        f"idle fast-forward speedup {speedup:.2f}x below the 5x floor "
        f"(on {on_s * 1e3:.1f} ms, off {off_s * 1e3:.1f} ms)"
    )


def test_busy_fastforward_overhead(benchmark):
    """Busy-dominated workload: the fast path must not tax real work.

    Keystroke handling keeps the CPU contended, so nearly every idle
    segment is interrupted and executes on the slow path; the only cost
    the optimisation may add here is the per-segment budget probe.
    """

    def run():
        system = boot("nt40")
        app = NotepadApp(system)
        app.start(foreground=True)
        instrument = IdleLoopInstrument(system, loop_ms=1.0)
        instrument.install()
        system.run_for(ns_from_ms(5))
        driver = MsTestDriver(
            system,
            InputScript([Key("a", pause_ms=5.0)] * 100),
            queuesync=False,
            default_pause_ms=5.0,
        )
        driver.run_to_completion(max_seconds=60)
        return app.keystrokes, system.sim.events_executed, system.now

    keystrokes, events, sim_ns = benchmark(run)
    benchmark.extra_info["sim_ns"] = sim_ns
    benchmark.extra_info["events"] = events
    assert keystrokes >= 100


# ---------------------------------------------------------------------------
# Cost per crossed tick (informational: BENCH_simulator.json does not list
# these, so the perf gate compares neither)
# ---------------------------------------------------------------------------
_TEN_SECONDS_NS = ns_from_ms(10_000)


def _ten_seconds(system):
    system.run_for(_TEN_SECONDS_NS)
    return system


def _record_tick_cost(benchmark, system):
    ticks = system.machine.clock.ticks
    benchmark.extra_info["sim_ns"] = _TEN_SECONDS_NS
    benchmark.extra_info["ticks"] = ticks
    benchmark.extra_info["ticks_crossed"] = system.kernel.ticks_crossed
    benchmark.extra_info["ms_per_1000_ticks"] = (
        benchmark.stats.stats.median * 1e6 / ticks
    )


def _idle_traced_system():
    system = boot("nt40")
    IdleLoopInstrument(system).install()
    return (system,), {}


def test_idle_tick_cost(benchmark):
    """Ten idle NT 4.0 seconds under the instrument: the instrumented
    jump crosses 999 ticks, 900 of them in runs of plain ticks."""
    system = benchmark.pedantic(_ten_seconds, setup=_idle_traced_system, rounds=15)
    assert system.kernel.ticks_crossed == 999
    _record_tick_cost(benchmark, system)


def _compute(work):
    yield Compute(work)


def _busy_system():
    """A thread computing one 12.1 s segment with six event kinds, the
    segment ``TestExactWork.test_ten_busy_seconds`` runs."""
    cycles = 1_213_456_789
    work = Work(
        cycles,
        events={
            HwEvent.INSTRUCTIONS: cycles * 2 // 3 + 1,
            HwEvent.DATA_REFS: cycles // 3 + 7,
            HwEvent.ITLB_MISS: cycles // 1733,
            HwEvent.DTLB_MISS: cycles // 611,
            HwEvent.SEGMENT_LOADS: cycles // 911,
            HwEvent.UNALIGNED_ACCESS: cycles // 4649,
        },
        label="busy",
    )
    system = boot("nt40")
    system.spawn("busy", _compute(work))
    return (system,), {}


def test_busy_tick_cost(benchmark):
    """Ten busy NT 4.0 seconds: the busy jump crosses 999 tick chains,
    each splitting the segment and charging six event kinds."""
    system = benchmark.pedantic(_ten_seconds, setup=_busy_system, rounds=15)
    assert system.kernel.ticks_crossed == 999
    _record_tick_cost(benchmark, system)
