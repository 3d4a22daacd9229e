"""The idle fast-forward path must be bit-identical to normal execution.

Every test here runs the same workload with the optimisation on and
off and asserts the *outputs* — trace records, clocks, counters,
serialized payloads, golden digests — match exactly.  The fast path is
an optimisation of the simulator, not of the simulated system; if any
of these fail, it changed the physics.
"""

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
from repro.winsys import boot
from repro.winsys.kernel import Kernel

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

    def test_window_under_until_is_bounded_by_periodic_entries(self):
        sim = Simulator()
        hid = sim.register_handler(lambda: None)
        tick = sim.schedule_kind(100, hid)
        seen = []
        sim.schedule(10, lambda: seen.append(sim.jump_window((tick,))))
        sim.run(until=lambda: bool(seen), until_ns=5000)
        assert seen == [(99, "until/max_events run")]
        sim.schedule(10, lambda: seen.append(sim.jump_window((tick,))))
        sim.run(until_ns=5000)
        # After the tick fired its successor is unknown to the window,
        # so only the horizon bounds it.
        assert seen[1] == (5000, "horizon")

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
    """The live calendar entries as sorted (time, seq, handler) keys."""
    entries = ([sim._next] if sim._next is not None else []) + list(sim._queue)
    live = []
    for entry in entries:
        payload = entry[2]
        if isinstance(payload, ScheduledEvent):
            if not payload.cancelled:
                live.append((entry[0], entry[1], payload.label))
        elif entry[1] not in sim._kind_cancelled:
            live.append((entry[0], entry[1], payload))
    return sorted(live)


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


def _idle_run(os_name, loop_ms, chunk_ms, sim_ms=10_000.0):
    def scenario():
        system = boot(os_name)
        IdleLoopInstrument(system, loop_ms=loop_ms).install()
        end = ns_from_ms(sim_ms)
        step = end if chunk_ms is None else ns_from_ms(chunk_ms)
        while system.now < end:
            system.run_for(min(step, end - system.now))

    return scenario


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
            else:
                # Every 25 ms segment spans several ticks: nothing to cross.
                assert kernel.ticks_crossed == 0

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


class TestExactWork:
    """Ten idle simulated seconds, with only the instrument installed:
    the events executed outside the jump are pinned exactly.  The
    counts carry no timing noise, so a jump that stops engaging fails
    here on any host."""

    @pytest.mark.parametrize(
        "os_name, outside", [("nt351", 2), ("nt40", 2), ("win95", 920)]
    )
    def test_ten_idle_seconds(self, os_name, outside):
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
        assert records == runs[False][1]
        assert sim.events_executed == runs[False][0].sim.events_executed


class TestJumpDiagnostics:
    def test_idle_nt40_stops_only_at_the_horizon(self):
        system = boot("nt40")
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
