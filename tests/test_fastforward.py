"""The idle fast-forward path must be bit-identical to normal execution.

Every test here runs the same workload with the optimisation on and
off and asserts the *outputs* — trace records, clocks, counters,
serialized payloads, golden digests — match exactly.  The fast path is
an optimisation of the simulator, not of the simulated system; if any
of these fail, it changed the physics.
"""

from collections import Counter

import pytest

from repro.core import IdleLoopInstrument
from repro.core.isrcost import InterruptCostProbe
from repro.sim.engine import (
    ScheduledEvent,
    SimulationError,
    Simulator,
    fast_forward_default,
    fast_forward_scope,
)
from repro.sim.timebase import ns_from_ms
from repro.sim.work import HwEvent, Work
from repro.winsys import boot
from repro.winsys.kernel import Kernel
from repro.winsys.syscalls import Compute

PERSONALITIES = ("nt351", "nt40", "win95")


@pytest.fixture
def booted(monkeypatch):
    """The fast-forward setting of every kernel booted during the test."""
    settings = []
    init = Kernel.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        settings.append(self.fast_forward)

    monkeypatch.setattr(Kernel, "__init__", spy)
    return settings


def _idle_state(os_name, fast_forward, loop_ms=1.0, sim_ms=500.0):
    """Boot, trace an idle system, return every observable we compare."""
    with fast_forward_scope(fast_forward):
        system = boot(os_name)
    instrument = IdleLoopInstrument(system, loop_ms=loop_ms)
    instrument.install()
    system.run_for(ns_from_ms(sim_ms))
    return {
        "records": instrument.buffer.records(),
        "now": system.now,
        "events_executed": system.sim.events_executed,
        "seq": system.sim._seq,
        "busy_ns": system.machine.cpu.busy_ns,
        "batches": system.kernel.fast_forward_batches,
        "segments": system.kernel.fast_forward_segments,
        "ff_events": system.sim.events_fast_forwarded,
    }


class TestIdleEquivalence:
    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_idle_trace_identical_with_and_without(self, os_name):
        on = _idle_state(os_name, fast_forward=True)
        off = _idle_state(os_name, fast_forward=False)
        assert on["batches"] > 0, "fast forward never fired on an idle system"
        assert on["segments"] > 0
        assert on["ff_events"] > 0
        assert off["batches"] == 0
        assert off["ff_events"] == 0
        assert on["records"] == off["records"]
        assert on["now"] == off["now"]
        assert on["busy_ns"] == off["busy_ns"]
        # The accounting contract: skipped segments count as executed
        # events and consume sequence numbers, so every event scheduled
        # after a batch carries the same (time, seq) key either way.
        assert on["events_executed"] == off["events_executed"]
        assert on["seq"] == off["seq"]

    def test_fine_loop_equivalence(self):
        # The high-resolution regime the ablation benchmark exercises.
        on = _idle_state("nt40", True, loop_ms=0.25, sim_ms=200.0)
        off = _idle_state("nt40", False, loop_ms=0.25, sim_ms=200.0)
        assert on["batches"] > 0
        assert on["records"] == off["records"]
        assert on["seq"] == off["seq"]

    def test_interrupt_cost_probe_parity(self):
        """Per-record counter readings pair identically (record_hook)."""
        reports = {}
        readings = {}
        for fast_forward in (True, False):
            with fast_forward_scope(fast_forward):
                system = boot("nt40")
                probe = InterruptCostProbe(system, loop_us=50.0)
                report = probe.measure(duration_ms=200.0)
            reports[fast_forward] = report
            readings[fast_forward] = list(probe._interrupt_readings)
        assert readings[True] == readings[False]
        assert (
            reports[True].single_interrupt_cycles
            == reports[False].single_interrupt_cycles
        )
        assert reports[True].interrupts_observed == reports[False].interrupts_observed


class TestPayloadEquivalence:
    def test_fig1_payload_byte_identical(self):
        from repro.core.serialize import experiment_to_dict
        from repro.experiments.registry import run_experiment
        from repro.verify.golden import canonical_json

        blobs = {}
        for fast_forward in (True, False):
            with fast_forward_scope(fast_forward):
                payload = experiment_to_dict(run_experiment("fig1", seed=0))
            blobs[fast_forward] = canonical_json(payload)
        assert blobs[True] == blobs[False]

    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_strict_invariant_probe_outcomes_identical(self, os_name):
        """The --strict-invariants probe matrix must reach the same
        verdicts (and pass) with the fast path on and off."""
        from repro.verify.invariants import InvariantChecker, summarize_reports
        from repro.verify.probe import gather_probe_evidence

        checker = InvariantChecker()
        summaries = {}
        for fast_forward in (True, False):
            with fast_forward_scope(fast_forward):
                reports = checker.check(gather_probe_evidence(os_name, seed=0))
            summaries[fast_forward] = summarize_reports(reports)
        assert summaries[True] == summaries[False]
        assert summaries[True]["failed"] == []

    def test_golden_digests_hold_with_fast_forward_off(self):
        """The committed digests were blessed with the optimisation on;
        the slow path must reproduce them byte for byte."""
        from repro.verify.golden import check_golden

        with fast_forward_scope(False):
            entries = check_golden()
        for entry in entries:
            assert entry["status"] == "matched", entry

    @pytest.mark.parametrize("fast_forward", [True, False], ids=["fast", "slow"])
    def test_jump_golden_digests(self, fast_forward):
        """fig7 (Win95 idle traces under the instrumented jump) and
        fig10 (OLE edits under the busy jump) match their golden records
        on both paths."""
        from repro.verify.golden import check_golden

        with fast_forward_scope(fast_forward):
            entries = check_golden(JUMP_GOLDEN)
        for entry in entries:
            assert entry["status"] == "matched", entry


#: The two jumps' heaviest real users, pinned outside ``GOLDEN_SET``:
#: its determinism and sampling tests re-run every member under full
#: observation, where fig7 alone takes seconds and 168 MB.  ``make
#: golden-update`` writes only ``GOLDEN_SET``; re-bless these with
#: ``python -c "from repro.verify.golden import update_golden;
#: update_golden([('fig7', 0), ('fig10', 0)])"``.
JUMP_GOLDEN = (("fig7", 0), ("fig10", 0))


def _budget(sim, step_ns):
    """Segments of ``step_ns`` a jump may complete from now before the
    next event: the zero-tick batch the kernel derives from
    :meth:`Simulator.jump_window`."""
    limit, _reason = sim.jump_window()
    if limit is None:
        return 0
    return max(0, (limit - sim.now) // step_ns)


class TestEngineFastForward:
    def test_budget_bounded_by_next_event(self):
        sim = Simulator()
        sim.schedule(1000, lambda: None)
        # Segments of 300 ns: 3 fit strictly before the event at 1000.
        assert _budget(sim, 300) == 3
        # A segment that would land exactly on the event must run normally.
        assert _budget(sim, 500) == 1
        assert _budget(sim, 1000) == 0

    def test_budget_zero_when_event_is_immediate(self):
        sim = Simulator()
        sim.schedule(0, lambda: None)
        assert _budget(sim, 100) == 0

    def test_budget_zero_without_any_bound(self):
        # Empty calendar, no horizon: nothing to fast-forward *to*.
        assert _budget(Simulator(), 100) == 0

    def test_budget_respects_run_horizon(self):
        sim = Simulator()
        seen = []

        def probe():
            seen.append(_budget(sim, 300))

        sim.schedule(100, probe)
        sim.run(until_ns=1000)
        # From now=100, 3 segments of 300 ns fit at or before 1000.
        assert seen == [3]

    def test_budget_zero_under_max_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(100, lambda: seen.append(_budget(sim, 10)))
        sim.schedule(10_000, lambda: None)
        sim.run(max_events=2)
        assert seen == [0]

    def test_fast_forward_advances_all_counters(self):
        sim = Simulator()
        sim.schedule(10_000, lambda: None)
        seq_before = sim._seq
        sim.fast_forward(3 * 300, events=3)
        assert sim.now == 900
        assert sim._seq == seq_before + 3
        assert sim.events_executed == 3
        assert sim.events_fast_forwarded == 3

    def test_fast_forward_refuses_to_cross_pending_event(self):
        sim = Simulator()
        sim.schedule(500, lambda: None)
        with pytest.raises(SimulationError):
            sim.fast_forward(500, events=1)

    def test_fast_forward_refuses_to_cross_horizon(self):
        sim = Simulator()
        errors = []

        def jump():
            try:
                sim.fast_forward(10_000, events=1)
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(10, jump)
        sim.run(until_ns=100)
        assert len(errors) == 1

    def test_fast_forward_rejects_negative(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.fast_forward(-1, events=0)
        with pytest.raises(SimulationError):
            sim.fast_forward(0, events=-1)

    def test_window_skips_periodic_entries(self):
        sim = Simulator()
        hid = sim.register_handler(lambda: None)
        tick = sim.schedule_kind(100, hid)
        sim.schedule(1000, lambda: None)
        assert sim.jump_window() == (99, "next event")
        assert sim.jump_window((tick,)) == (999, "next event")

    def test_until_reports_the_active_predicate(self):
        """The kernel decides whether a jump may cross periodic entries
        under a run's ``until`` predicate; the engine reports it."""
        sim = Simulator()
        assert sim.until is None
        seen = []

        def done():
            return bool(seen)

        sim.schedule(10, lambda: seen.append(sim.until))
        sim.run(until=done, until_ns=5000)
        assert seen == [done]
        assert sim.until is None
        sim.schedule(10, lambda: seen.append(sim.until))
        sim.run()
        assert seen[1] is None

    def test_fast_forward_rekeys_crossed_entries(self):
        sim = Simulator()
        fired = []
        hid = sim.register_handler(lambda: fired.append(sim.now))
        tick = sim.schedule_kind(100, hid)
        base = sim.next_seq
        # A jump to 500 that crossed the entry at 100, whose successor
        # the slow path would have armed at 600 with the jump's 3rd seq.
        sim.fast_forward(500, events=4, seqs=6, moved=[(tick, 600, base + 2, hid)])
        assert (sim.now, sim.next_seq, sim.events_executed) == (500, base + 6, 4)
        assert sim.pending_count() == 1
        sim.run()
        assert fired == [600]

    def test_fast_forward_rejects_bad_rekeys(self):
        sim = Simulator()
        hid = sim.register_handler(lambda: None)
        tick = sim.schedule_kind(100, hid)
        base = sim.next_seq
        with pytest.raises(SimulationError):  # successor inside the jump
            sim.fast_forward(500, events=1, moved=[(tick, 500, base, hid)])
        with pytest.raises(SimulationError):  # seq outside the jump's range
            sim.fast_forward(500, events=1, moved=[(tick, 600, base + 1, hid)])
        sim = Simulator()
        hid = sim.register_handler(lambda: None)
        tick = sim.schedule_kind(1000, hid)
        base = sim.next_seq
        with pytest.raises(SimulationError):  # the entry was not crossed
            sim.fast_forward(500, events=1, moved=[(tick, 1600, base, hid)])


def _pending(sim):
    """The live calendar entries as sorted (time, seq, name) keys: a
    generic event's label, or the handler a kind entry calls (such as
    ``RemoteServer._tick``, the frame tick)."""
    entries = ([sim._next] if sim._next is not None else []) + list(sim._queue)
    live = []
    for entry in entries:
        payload = entry[2]
        if isinstance(payload, ScheduledEvent):
            if not payload.cancelled:
                live.append((entry[0], entry[1], payload.label))
        elif entry[1] not in sim._kind_cancelled:
            name = sim._handler_fns[payload].__qualname__
            live.append((entry[0], entry[1], name))
    return sorted(live)


def _in_flight(cpu):
    """The CPU's in-flight segment as ``CPU.start`` and ``CPU.steal``
    leave it, or None when the CPU is free."""
    if not cpu.busy:
        return None
    work = cpu._work
    return (
        work.cycles,
        dict(work.events),
        cpu._start_ns,
        cpu._stolen_ns,
        cpu._duration_ns,
        cpu._completion_ns,
        cpu._completion_seq,
    )


def _machine_state(kernel, instrument):
    """Everything a fast-forward jump must leave exactly as the slow path
    leaves it.  Trace records are compared by count and last value here
    (they are append-only) and in full at the end of each run."""
    sim, machine = kernel.sim, kernel.machine
    recorder = kernel.envelopes
    records = instrument.buffer if instrument is not None else ()
    return {
        "now": sim.now,
        "next_seq": sim.next_seq,
        "events_executed": sim.events_executed,
        "pending": _pending(sim),
        "busy_ns": machine.cpu.busy_ns,
        "cpu_busy": machine.cpu.busy,
        "in_flight": _in_flight(machine.cpu),
        "tally": dict(machine.perf._tally),
        "residual": dict(machine.perf._residual),
        "ticks": machine.clock.ticks,
        "delivered": dict(machine.interrupts.delivered),
        "spurious": dict(machine.interrupts.spurious),
        "context_switches": kernel.context_switches,
        "dpcs_run": kernel.dpcs_run,
        "threads": [
            (t.name, t.state, t.dispatches, t.quantum_ticks_used)
            for t in kernel.threads
        ],
        "sync_wait_ns": kernel.iomgr.sync_wait_ns,
        "envelopes_finished": recorder.finished if recorder is not None else None,
        "records": len(records),
        "last_record": records.records()[-1:] if len(records) else [],
    }


@pytest.fixture
def pauses(monkeypatch):
    """Snapshots of every booted system at each pause point — each
    return from ``Simulator.run`` — plus the kernels and instruments."""
    seen = {"states": [], "kernels": [], "instruments": {}}
    init = Kernel.__init__
    install = IdleLoopInstrument.install
    run = Simulator.run

    def kernel_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seen["kernels"].append(self)

    def instrument_install(self):
        install(self)
        seen["instruments"][id(self.system.kernel)] = self

    def paused_run(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        for kernel in seen["kernels"]:
            if kernel.sim is self:
                instrument = seen["instruments"].get(id(kernel))
                seen["states"].append(_machine_state(kernel, instrument))
        return result

    monkeypatch.setattr(Kernel, "__init__", kernel_init)
    monkeypatch.setattr(IdleLoopInstrument, "install", instrument_install)
    monkeypatch.setattr(Simulator, "run", paused_run)
    return seen


def _on_and_off(pauses, scenario):
    """Run ``scenario`` with fast-forward on, then off; assert the state
    at every pause point and the records, and return the fast run's
    kernel (for its jump diagnostics) and both results."""
    runs = {}
    for fast_forward in (True, False):
        pauses["states"].clear()
        pauses["kernels"].clear()
        pauses["instruments"].clear()
        with fast_forward_scope(fast_forward):
            result = scenario()
        (kernel,) = pauses["kernels"]
        instrument = pauses["instruments"].get(id(kernel))
        records = instrument.buffer.records() if instrument is not None else []
        runs[fast_forward] = (list(pauses["states"]), records, kernel, result)
    states_on, records_on, kernel_on, result_on = runs[True]
    states_off, records_off, kernel_off, result_off = runs[False]
    assert kernel_off.fast_forward_batches == 0
    assert len(states_on) == len(states_off)
    for index, (on, off) in enumerate(zip(states_on, states_off)):
        assert on == off, f"state differs at pause {index}"
    assert records_on == records_off
    return kernel_on, result_on, result_off


@pytest.fixture
def slow_ties(monkeypatch):
    """The instants at which each booted kernel ran the Win95 idle
    background tied with a clock tick on the slow path, by kernel."""
    seen = {}
    handler = Kernel._idle_background_tick

    def spy(self):
        if self.machine.clock.pending[0] == self.sim.now:
            seen.setdefault(self, []).append(self.sim.now)
        handler(self)

    monkeypatch.setattr(Kernel, "_idle_background_tick", spy)
    return seen


def _ties_crossed(slow_ties, kernel):
    """The tie instants that the fast run's ``kernel`` crossed in closed
    form: those the slow run ran and it did not."""
    (slow,) = [times for other, times in slow_ties.items() if other is not kernel]
    return sorted(set(slow) - set(slow_ties.get(kernel, ())))


#: The Win95 idle background lands on a clock tick every 110 ms; the
#: tick of every eleventh such tie (1.1 s) is due for housekeeping.
TIE_NS = ns_from_ms(110)
#: A pause this long after a crossed tie falls before the next tick, so
#: it compares the tick and background entries the tie re-armed.
AFTER_NS = ns_from_ms(5)


def _tied_idle_run(horizons_ns, loop_ms=1.0, scenario=None, check=None):
    """Win95 under the idle-loop instrument, run to each of
    ``horizons_ns`` in turn (absolute simulated times), optionally
    under a fault scenario; ``check(system)`` runs after the first
    horizon.  Returns the trace records and the injected fault counts."""

    def scenario_run():
        from repro.faults import FaultInjector, get_scenario

        system = boot("win95")
        counts = None
        if scenario is not None:
            counts = FaultInjector(system, get_scenario(scenario)).install().counts
        instrument = IdleLoopInstrument(system, loop_ms=loop_ms)
        instrument.install()
        for index, horizon in enumerate(horizons_ns):
            system.run_for(horizon - system.now)
            if index == 0 and check is not None:
                check(system)
        return instrument.buffer.records(), dict(counts or {})

    return scenario_run


def _idle_run(os_name, loop_ms, chunk_ms, sim_ms=10_000.0):
    def scenario():
        system = boot(os_name)
        IdleLoopInstrument(system, loop_ms=loop_ms).install()
        end = ns_from_ms(sim_ms)
        step = end if chunk_ms is None else ns_from_ms(chunk_ms)
        while system.now < end:
            system.run_for(min(step, end - system.now))

    return scenario


def _paused_idle_run(os_name, horizons_ms, loop_ms=1.0, capacity=2_000_000):
    """An idle-traced system run to each of ``horizons_ms`` in turn
    (absolute simulated times) with a buffer of ``capacity`` records;
    returns the records."""

    def scenario():
        system = boot(os_name)
        instrument = IdleLoopInstrument(
            system, loop_ms=loop_ms, buffer_capacity=capacity
        )
        instrument.install()
        for horizon in horizons_ms:
            system.run_for(ns_from_ms(horizon) - system.now)
        return instrument.buffer.records()

    return scenario


def _idle_viewer(os_name):
    """A remote viewer after its 150 ms warm-up, with no instrument and
    its server started and idle."""
    from repro.remote import LinkConfig, RemoteSession

    system = boot(os_name)
    session = RemoteSession(system, LinkConfig.symmetric("lan", rtt_ms=10.0))
    session.app.start(foreground=True)
    system.run_for(ns_from_ms(150))
    session.server.start()
    return system


def _typed_run(os_name, keys=8, gap_ms=300.0, tail_ms=1000.0):
    """An editor taking a keystroke every ``gap_ms``, idle-traced."""

    def scenario():
        from repro.apps import NotepadApp

        system = boot(os_name)
        NotepadApp(system).start(foreground=True)
        IdleLoopInstrument(system).install()
        for position in range(keys):
            system.machine.keyboard.keystroke(chr(ord("a") + position))
            system.run_for(ns_from_ms(gap_ms))
        system.run_for(ns_from_ms(tail_ms))

    return scenario


def _compute(work):
    yield Compute(work)


def _busy_work(cycles):
    """A segment of ``cycles`` with six hardware event kinds in odd
    proportions, so every split charges six fractional residuals."""
    return Work(
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


#: About 2.13 s of computation: some 213 ticks, 38 Win95 idle
#: backgrounds and 19 of their ties with a tick.
BUSY_CYCLES = 213_456_789


def _busy_run(os_name, chunk_ms=None, scenario=None, instrument=False):
    """A thread above idle priority computes one long segment from boot,
    for 2.5 simulated seconds, in one ``run_for`` or in ``chunk_ms``
    chunks; optionally under a fault scenario or with an idle-loop
    instrument ready at idle priority.  Returns the injected fault
    counts: a requeue-jitter draw the jump failed to replay shifts every
    later demotion."""

    def scenario_run():
        from repro.faults import FaultInjector, get_scenario

        system = boot(os_name)
        counts = None
        if scenario is not None:
            counts = FaultInjector(system, get_scenario(scenario)).install().counts
        if instrument:
            IdleLoopInstrument(system).install()
        system.spawn("busy", _compute(_busy_work(BUSY_CYCLES)))
        end = ns_from_ms(2500)
        step = end if chunk_ms is None else ns_from_ms(chunk_ms)
        while system.now < end:
            system.run_for(min(step, end - system.now))
        return dict(counts) if counts is not None else None

    return scenario_run


def _ole_edit(os_name, instrument=False):
    """fig10's OLE edit: a warmed PowerPoint, then the cold activation
    and one hot trial, each under ``run_until_quiescent``; optionally
    with an idle-loop instrument, as fig8 traces PowerPoint."""

    def scenario_run():
        from repro.experiments.counter_runs import (
            ole_edit_operation,
            warmed_powerpoint,
        )

        system, app, _sampler = warmed_powerpoint(os_name)
        if instrument:
            IdleLoopInstrument(system).install()
        prepare, operation = ole_edit_operation(system, app)
        for _trial in range(2):
            prepare()
            operation()

    return scenario_run


class TestTicklessOracle:
    """The quiescent jump leaves the slow path's exact state at every
    pause point; only ``events_fast_forwarded``, ``calendar_high_water``
    and the kernel's jump diagnostics may differ."""

    @pytest.mark.parametrize("loop_ms", [0.1, 1.0, 25.0])
    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_idle(self, pauses, os_name, loop_ms):
        for chunk_ms in (None, 37.0):
            kernel = _on_and_off(pauses, _idle_run(os_name, loop_ms, chunk_ms))[0]
            if loop_ms < 10.0:
                assert kernel.ticks_crossed > 850
                assert kernel.ticks_in_runs > 750
            else:
                # Every 25 ms segment spans several ticks: nothing to cross.
                assert kernel.ticks_crossed == 0
                assert kernel.ticks_in_runs == 0

    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_run_whose_records_per_tick_change(self, pauses, os_name):
        """A 3 ms loop shifts the tick's offset in its segment by about
        1 ms a tick, so a run of plain ticks alternates between tick
        periods that complete two whole segments before the tick and
        periods that complete three."""
        for chunk_ms in (None, 37.0):
            kernel = _on_and_off(pauses, _idle_run(os_name, 3.0, chunk_ms))[0]
            assert kernel.ticks_in_runs > 750
        (instrument,) = pauses["instruments"].values()
        period = kernel.machine.clock.period_ns
        per_tick = Counter(record // period for record in instrument.buffer.records())
        assert {3, 4} <= set(per_tick.values())

    @pytest.mark.parametrize(
        "os_name, outside", [("nt351", 14), ("nt40", 14), ("win95", 26)]
    )
    def test_housekeeping_tick_ends_a_run(self, pauses, os_name, outside):
        """The run of ticks 1 to 9 ends before the housekeeping tick at
        100 ms, which the step after it crosses; pause points fall right
        after that tick's chain and the one at 1 s.  Outside the runs,
        the jumps cross the 14 housekeeping ticks before the horizon at
        1.5 s, and on Win95 the 12 plain ticks tied with the idle
        background."""
        run = _paused_idle_run(os_name, [102.0, 1_003.0, 1_500.0])
        kernel = _on_and_off(pauses, run)[0]
        assert kernel.ticks_in_runs > 100
        assert kernel.ticks_crossed - kernel.ticks_in_runs == outside

    def test_background_ends_a_run(self, pauses):
        """The Win95 idle background at 55 ms (and every 110 ms after it)
        ends the run of plain ticks before it, whose records all land
        before it; pause points fall right after the record it delays
        and between that record and the next tick."""
        run = _paused_idle_run("win95", [55.5, 57.0, 166.5, 600.0])
        kernel = _on_and_off(pauses, run)[0]
        assert kernel.ticks_in_runs > 30

    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_run_cut_by_a_pause_point(self, pauses, os_name):
        """Horizons inside runs of plain ticks, between a tick and its
        record and between two records."""
        run = _paused_idle_run(os_name, [45.5, 50.003, 73.25, 300.0])
        kernel = _on_and_off(pauses, run)[0]
        assert kernel.jump_stops["horizon"] == 4
        assert kernel.ticks_in_runs > 20

    @pytest.mark.parametrize("capacity", [47, 49])
    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_run_cut_by_a_full_buffer(self, pauses, os_name, capacity):
        """An instrument buffer fills in the run of plain ticks after
        40 ms: the run stops before the tick whose segments would not
        fit, and the step after it fills the buffer.  47 records fill
        before the tick at 50 ms; 49 fill exactly with the segments
        that complete before it."""
        run = _paused_idle_run(os_name, [200.0, 400.0], capacity=capacity)
        kernel, records, _off = _on_and_off(pauses, run)
        assert len(records) == capacity
        assert kernel.jump_stops["buffer full"] == 1
        assert kernel.ticks_in_runs > 0

    @pytest.mark.parametrize("scenario", [None, "smoke", "sched-jitter"])
    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_fleet_editor_session(self, pauses, os_name, scenario):
        """A fleet editor session: keystrokes about every 300 ms, in its
        own null-sink observability scope with envelopes on, where the
        jump crosses ticks."""
        from repro.fleet.population import SessionSpec
        from repro.fleet.session import run_session

        spec = SessionSpec(
            index=0,
            seed=11,
            os_name=os_name,
            profile="editor",
            scenario=scenario,
            wpm=40.0,
            jitter=0.2,
            think_mean_s=1.0,
            chars=10,
        )
        kernel, on, off = _on_and_off(pauses, lambda: run_session(spec))
        assert on == off
        assert on.envelope_events > 0
        assert kernel.ticks_crossed > 0

    @pytest.mark.parametrize("sinks", [{"trace": True, "metrics": False},
                                       {"trace": False, "metrics": True}])
    def test_live_observer_crosses_no_tick(self, pauses, sinks):
        from repro.obs import observed

        def scenario():
            with observed(**sinks):
                _typed_run("nt40", keys=3)()

        kernel = _on_and_off(pauses, scenario)[0]
        assert kernel.ticks_crossed == 0
        assert kernel.jump_stops["observer attached"] > 0

    def test_record_hook_crosses_no_tick(self, pauses):
        def scenario():
            probe = InterruptCostProbe(boot("nt40"), loop_us=200.0)
            return probe.measure(duration_ms=300.0)

        kernel, on, off = _on_and_off(pauses, scenario)
        assert on.single_interrupt_cycles == off.single_interrupt_cycles
        assert kernel.ticks_crossed == 0
        assert kernel.jump_stops["record hook"] > 0

    @pytest.mark.parametrize("scenario", [None, "smoke"])
    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_fleet_remote_session(self, pauses, os_name, scenario):
        """A fleet remote session: no instrument, keystrokes over the
        lossy link, and the frame tick crossed while the server idles."""
        from repro.fleet.population import SessionSpec
        from repro.fleet.session import run_session

        spec = SessionSpec(
            index=0,
            seed=11,
            os_name=os_name,
            profile="remote",
            scenario=scenario,
            wpm=40.0,
            jitter=0.2,
            think_mean_s=1.0,
            chars=6,
        )
        kernel, on, off = _on_and_off(pauses, lambda: run_session(spec))
        assert on == off
        assert on.envelope_events > 0
        assert kernel.ticks_crossed > 0

    def test_predicted_remote_session(self, pauses):
        from repro.remote import LinkConfig, TransportConfig, run_remote_session

        link = LinkConfig.symmetric("wan", rtt_ms=60.0, jitter_ms=3.0, loss=0.08)

        def scenario():
            return run_remote_session(
                "nt40", 3, link, TransportConfig(prediction=True), chars=6
            )

        kernel, on, off = _on_and_off(pauses, scenario)
        assert on.to_dict() == off.to_dict()
        assert on.predictions > 0
        assert kernel.ticks_crossed > 0

    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_idle_remote_viewer(self, pauses, os_name):
        """An idle remote viewer in 37 ms chunks: every pause point
        compares the re-keyed tick, idle-background and frame-tick
        entries."""

        def scenario():
            system = _idle_viewer(os_name)
            for _chunk in range(60):
                system.run_for(ns_from_ms(37))

        kernel = _on_and_off(pauses, scenario)[0]
        assert kernel.ticks_crossed > 100

    def test_remote_tie_on_the_horizon(self, pauses):
        """A frame tick and a clock tick at one instant on the run's
        horizon: the slow path runs both there, so the jump must stop
        before the frame tick it could otherwise cross."""

        def scenario():
            system = _idle_viewer("nt40")
            # The frame cadence starts at 150 ms: its tenth tick is 480 ms.
            system.run_for(ns_from_ms(330))
            system.run_for(ns_from_ms(100))

        kernel = _on_and_off(pauses, scenario)[0]
        assert kernel.ticks_crossed > 0

    @pytest.mark.parametrize(
        "offset_ns", [0, 3_000], ids=["on-the-tie", "before-the-isr-return"]
    )
    def test_win95_tie_cut_by_the_horizon(self, pauses, slow_ties, offset_ns):
        """A horizon on a tie's instant, or 3 µs after it, between the
        tick and its ISR return: the slow path runs the tie's first
        events there, so the jump stops before the tie, and crosses
        the ties after it."""
        run = _tied_idle_run(
            [2 * TIE_NS + offset_ns, 3 * TIE_NS + AFTER_NS, ns_from_ms(700)]
        )
        kernel = _on_and_off(pauses, run)[0]
        crossed = _ties_crossed(slow_ties, kernel)
        assert crossed == [count * TIE_NS for count in (1, 3, 4, 5, 6)]
        assert kernel.jump_stops["horizon"] > 0

    def test_win95_tie_due_for_housekeeping(self, pauses, slow_ties):
        """The tie at 1.1 s, whose tick is due for housekeeping: the
        housekeeping DPC runs after the tick DPC."""
        run = _tied_idle_run([10 * TIE_NS + AFTER_NS, ns_from_ms(1200)])
        kernel = _on_and_off(pauses, run)[0]
        assert 10 * TIE_NS in _ties_crossed(slow_ties, kernel)

    def test_win95_tie_under_sched_jitter(self, pauses, slow_ties):
        """Each tie preempts the instrument once: its requeue draw is
        replayed."""
        run = _tied_idle_run(
            [5 * TIE_NS + AFTER_NS, ns_from_ms(1500)], scenario="sched-jitter"
        )
        kernel, on, off = _on_and_off(pauses, run)
        assert on == off
        assert on[1]["requeue-demotion"] > 0
        assert len(_ties_crossed(slow_ties, kernel)) == 13

    def test_win95_tie_in_the_jump_first_segment(self, pauses, slow_ties):
        """A run ends with the instrument's segment in flight right
        before a tie, so the next run's first jump holds the tie in its
        first segment."""

        def in_flight_before_the_tie(system):
            completes = system.machine.cpu._completion_ns
            assert completes < 2 * TIE_NS < completes + ns_from_ms(1)

        run = _tied_idle_run(
            [ns_from_ms(219), 2 * TIE_NS + AFTER_NS, ns_from_ms(300)],
            check=in_flight_before_the_tie,
        )
        kernel = _on_and_off(pauses, run)[0]
        assert 2 * TIE_NS in _ties_crossed(slow_ties, kernel)

    def test_win95_tie_on_a_segment_end(self, pauses, slow_ties):
        """A 0.96 ms loop puts a record 0.96 ms before the first tie, so
        the next segment's uncontended end is the tie's instant.  Both
        were armed before the segment started, so it is preempted as
        inside: the split leaves the stolen ISR out and the record lands
        after the DPCs and the remainder.  (No record lands on a tie's
        instant: the background runs first and its DPC holds the
        instrument until it retires.)"""
        run = _tied_idle_run([TIE_NS + AFTER_NS, ns_from_ms(400)], loop_ms=0.96)
        kernel, (records, _counts), _off = _on_and_off(pauses, run)
        assert TIE_NS - ns_from_ms(0.96) in records
        assert TIE_NS not in records
        assert TIE_NS in _ties_crossed(slow_ties, kernel)

    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_run_until_quiescent(self, pauses, os_name):
        def scenario():
            from repro.apps import NotepadApp

            system = boot(os_name)
            NotepadApp(system).start(foreground=True)
            IdleLoopInstrument(system).install()
            system.machine.keyboard.keystroke("x")
            return system.run_until_quiescent(settle_ns=ns_from_ms(200))

        kernel, on, off = _on_and_off(pauses, scenario)
        assert on == off
        assert kernel.ticks_crossed > 0

    @pytest.mark.parametrize(
        "chunk_ms, scenario, instrument",
        [(None, None, False), (37.0, None, False), (None, "sched-jitter", False),
         (None, None, True)],
        ids=["one-run", "chunks", "sched-jitter", "instrument-ready"],
    )
    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_busy_segment(self, pauses, os_name, chunk_ms, scenario, instrument):
        """A thread above idle priority computes for over 2 s: the busy
        jump crosses the ticks, housekeeping DPCs and Win95 idle
        backgrounds that preempt it, whether horizons cut the chain,
        requeue draws are replayed or an instrument waits at idle
        priority."""
        run = _busy_run(os_name, chunk_ms, scenario, instrument)
        kernel, on, off = _on_and_off(pauses, run)
        assert on == off
        assert kernel.ticks_crossed > 150
        if scenario is not None:
            assert on["requeue-demotion"] > 0

    @pytest.mark.parametrize("instrument", [False, True], ids=["bare", "instrument"])
    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_ole_edit(self, pauses, os_name, instrument):
        """fig10's OLE edit under ``run_until_quiescent``: the busy jump
        crosses the edit's ticks, and while the cold activation waits on
        the disk the quiescent jump crosses them, or the instrumented
        one when an instrument runs."""
        kernel = _on_and_off(pauses, _ole_edit(os_name, instrument))[0]
        assert kernel.jump_stops["segment completes"] > 0
        assert kernel.ticks_crossed > 300
        if instrument:
            assert kernel.fast_forward_batches > 0

    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_foreign_until_crosses_no_tick(self, pauses, os_name):
        """Under an ``until`` predicate that is not the kernel's own
        test, the slow path's stop cannot be predicted: no jump crosses
        a periodic event."""

        def scenario():
            system = boot(os_name)
            thread = system.spawn("busy", _compute(_busy_work(BUSY_CYCLES)))
            system.sim.run(until=lambda: thread.done, until_ns=ns_from_ms(2500))
            return system.now

        kernel, on, off = _on_and_off(pauses, scenario)
        assert on == off
        assert kernel.ticks_crossed == 0
        assert kernel.jump_declines["until run"] > 0


class TestExactWork:
    """Ten idle simulated seconds: the events executed outside the jump
    are pinned exactly.  The counts carry no timing noise, so a jump
    that stops engaging fails here on any host."""

    @pytest.mark.parametrize(
        "os_name, outside", [("nt351", 2), ("nt40", 2), ("win95", 2)]
    )
    def test_ten_idle_seconds(self, os_name, outside):
        """Of the 999 ticks crossed, every plain one is crossed in a run:
        all but the 99 housekeeping ticks, and on Win95 the 81 plain
        ticks tied with the idle background."""
        in_runs = {"nt351": 900, "nt40": 900, "win95": 819}[os_name]
        runs = {}
        for fast_forward in (True, False):
            with fast_forward_scope(fast_forward):
                system = boot(os_name)
            instrument = IdleLoopInstrument(system)
            instrument.install()
            ticks = system.machine.clock.ticks
            system.run_for(ns_from_ms(10_000))
            runs[fast_forward] = (system, instrument.buffer.records())
        system, records = runs[True]
        sim = system.sim
        assert sim.events_executed - sim.events_fast_forwarded == outside
        assert system.machine.clock.ticks - ticks == 1000
        assert system.kernel.ticks_crossed == 999
        assert system.kernel.ticks_in_runs == in_runs
        assert records == runs[False][1]
        assert sim.events_executed == runs[False][0].sim.events_executed

    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_ten_idle_seconds_of_a_remote_viewer(self, os_name):
        """No instrument: the viewer waits on its queue and the server
        idles, so the jump crosses every tick, housekeeping DPC, idle
        background and frame tick."""
        runs = {}
        for fast_forward in (True, False):
            with fast_forward_scope(fast_forward):
                system = _idle_viewer(os_name)
            sim, kernel = system.sim, system.kernel
            ticks = system.machine.clock.ticks
            run = sim.events_executed - sim.events_fast_forwarded
            crossed = kernel.ticks_crossed
            system.run_for(ns_from_ms(10_000))
            outside = sim.events_executed - sim.events_fast_forwarded - run
            crossed = kernel.ticks_crossed - crossed
            runs[fast_forward] = (system, outside, crossed, _pending(sim))
        system, outside, crossed, pending = runs[True]
        # Outside the jump: the ISR return of the tick that ended the
        # warm-up, and the tick on the horizon (its ISR return is past it).
        assert outside == 2
        assert system.machine.clock.ticks - ticks == 1000
        assert crossed == 999
        assert pending == runs[False][3]
        assert system.sim.events_executed == runs[False][0].sim.events_executed

    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_ten_busy_seconds(self, os_name):
        """A thread above idle priority computes through ten seconds:
        the busy jump crosses every tick chain, housekeeping DPC and
        Win95 idle background from the segment's start to the
        horizon."""
        runs = {}
        for fast_forward in (True, False):
            with fast_forward_scope(fast_forward):
                system = boot(os_name)
            system.spawn("busy", _compute(_busy_work(1_213_456_789)))
            sim, kernel = system.sim, system.kernel
            run = sim.events_executed - sim.events_fast_forwarded
            system.run_for(ns_from_ms(10_000))
            outside = sim.events_executed - sim.events_fast_forwarded - run
            runs[fast_forward] = (system, outside, _machine_state(kernel, None))
        system, outside, state = runs[True]
        # Outside the jump: the dispatch that starts the segment, and the
        # tick on the horizon (its ISR return is past it).
        assert outside == 2
        assert system.machine.clock.ticks == 1000
        assert system.kernel.ticks_crossed == 999
        assert state == runs[False][2]


class TestJumpDiagnostics:
    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_idle_stops_only_at_the_horizon(self, os_name):
        system = boot(os_name)
        IdleLoopInstrument(system).install()
        system.run_for(ns_from_ms(10_000))
        kernel = system.kernel
        assert kernel.ticks_crossed >= 999
        assert set(kernel.jump_stops) == {"horizon"}

    def test_live_tracer_records_the_observer_reason(self):
        from repro.obs import observed

        with observed(trace=True, metrics=False):
            system = boot("nt40")
        IdleLoopInstrument(system).install()
        system.run_for(ns_from_ms(500))
        kernel = system.kernel
        assert kernel.ticks_crossed == 0
        assert kernel.jump_stops["observer attached"] >= 49
        assert kernel.fast_forward_batches > 0

    @pytest.mark.parametrize("os_name", PERSONALITIES)
    def test_every_call_is_a_stop_or_a_decline(self, monkeypatch, os_name):
        """``jump_stops`` and ``jump_declines`` account for every call
        of the three jumps, each exactly once: the instrumented one in
        an editor session, the one without the instrument in a remote
        session, and the busy one in fig10's OLE edit."""
        from repro.fleet.population import SessionSpec
        from repro.fleet.session import run_session

        kernels, calls = [], []
        init = Kernel.__init__

        def spy_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            kernels.append(self)

        monkeypatch.setattr(Kernel, "__init__", spy_init)
        for name in ("_try_fast_forward", "_try_quiescent_jump", "_try_busy_jump"):
            attempt = getattr(Kernel, name)

            def spy_attempt(self, *args, _attempt=attempt, **kwargs):
                calls.append(self)
                return _attempt(self, *args, **kwargs)

            monkeypatch.setattr(Kernel, name, spy_attempt)
        for profile in ("editor", "remote"):
            spec = SessionSpec(
                index=0,
                seed=5,
                os_name=os_name,
                profile=profile,
                scenario=None,
                wpm=40.0,
                jitter=0.2,
                think_mean_s=1.0,
                chars=10,
            )
            run_session(spec)
        _ole_edit(os_name)()
        editor, remote, busy = kernels
        for kernel in kernels:
            stops = sum(kernel.jump_stops.values())
            declines = sum(kernel.jump_declines.values())
            assert stops + declines == calls.count(kernel)
            assert set(kernel.jump_declines) <= {
                "futile retry",
                "DPC queued",
                "Win95 spin",
                "not the running idle thread",
                "CPU busy",
                "ready thread",
                "no buffer space",
                "zero-length segment",
                "periodic entry busy",
                "observer attached",
                "until run",
                "horizon before the next tick",
                "timer armed",
                "short segment",
            }
        assert editor.jump_declines["futile retry"] > 0
        assert remote.jump_declines["periodic entry busy"] > 0
        assert remote.ticks_crossed > 0
        assert busy.jump_declines["short segment"] > 0
        assert busy.jump_stops["segment completes"] > 0


class TestObservability:
    def test_fast_forward_and_calendar_metrics_surface(self):
        from repro.obs import observed

        with observed(metrics=True) as session:
            system = boot("nt40")
            instrument = IdleLoopInstrument(system)
            instrument.install()
            system.run_for(ns_from_ms(300))
            snapshot = session.metrics_snapshot()
        counters = snapshot["counters"]
        gauges = snapshot["gauges"]
        batches = counters["repro_sim_fast_forward_batches_total"]["samples"]
        assert batches[0]["value"] > 0
        segments = counters["repro_sim_fast_forward_segments_total"]["samples"]
        assert segments[0]["value"] >= batches[0]["value"]
        assert "repro_sim_fast_forward_ns_total" in counters
        depth = gauges["repro_sim_calendar_depth_high_water"]["samples"]
        assert depth[0]["value"] > 0
        assert "repro_sim_calendar_cancelled_fraction" in gauges
        assert "repro_sim_calendar_compactions" in gauges


class TestRunnerFlag:
    def test_no_fast_forward_flag_runs_clean(self, tmp_path, booted):
        from repro.experiments.runner import main

        rc = main(
            [
                "fig1",
                "--jobs",
                "1",
                "--no-cache",
                "--checks-only",
                "--no-fast-forward",
            ]
        )
        assert rc == 0
        assert booted and not any(booted)  # the flag reached every kernel


class TestScope:
    """The setting travels by scope, never leaking between jobs."""

    def test_scope_restores_the_enclosing_setting(self):
        assert fast_forward_default() is True
        with fast_forward_scope(False):
            assert fast_forward_default() is False
            with fast_forward_scope(True):
                assert fast_forward_default() is True
            assert fast_forward_default() is False
        assert fast_forward_default() is True

    def test_fleet_inherits_the_enclosing_scope(self, booted):
        """A fleet run inside a fast-forward-off scope boots every
        session kernel with fast-forward off and leaves the scope as it
        found it."""
        from repro.fleet.population import PopulationConfig
        from repro.fleet.shards import run_fleet

        config = PopulationConfig(seed=0, size=4, profile_mix={"editor": 1})
        with fast_forward_scope(False):
            run_fleet(config, shards=1, cache=None)
            assert fast_forward_default() is False
        assert len(booted) == config.size
        assert not any(booted)

    def test_sequential_sweeps_keep_their_own_setting(self, booted):
        """Two back-to-back in-process sweeps with the toggle flipped
        between them: each boots its kernels with its own setting,
        neither disturbs the caller's, and the payloads equal runs made
        in isolation."""
        from repro.core.serialize import experiment_to_dict
        from repro.experiments.parallel import run_specs
        from repro.experiments.registry import run_experiment
        from repro.verify.golden import canonical_json

        specs = [("fig1", 0), ("fig4", 0)]
        for fast_forward in (False, True):
            del booted[:]
            jobs = run_specs(specs, jobs=1, fast_forward=fast_forward)
            assert fast_forward_default() is True
            assert booted and all(ff is fast_forward for ff in booted)
            with fast_forward_scope(fast_forward):
                isolated = [
                    experiment_to_dict(run_experiment(eid, seed=seed))
                    for eid, seed in specs
                ]
            assert [canonical_json(job.payload) for job in jobs] == [
                canonical_json(payload) for payload in isolated
            ]
