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


class TestEngineFastForward:
    def test_budget_bounded_by_next_event(self):
        sim = Simulator()
        sim.schedule(1000, lambda: None)
        # Segments of 300 ns: 3 fit strictly before the event at 1000.
        assert sim.fast_forward_budget(300) == 3
        # A segment that would land exactly on the event must run normally.
        assert sim.fast_forward_budget(500) == 1
        assert sim.fast_forward_budget(1000) == 0

    def test_budget_zero_when_event_is_immediate(self):
        sim = Simulator()
        sim.schedule(0, lambda: None)
        assert sim.fast_forward_budget(100) == 0

    def test_budget_zero_without_any_bound(self):
        # Empty calendar, no horizon: nothing to fast-forward *to*.
        assert Simulator().fast_forward_budget(100) == 0

    def test_budget_respects_run_horizon(self):
        sim = Simulator()
        seen = []

        def probe():
            seen.append(sim.fast_forward_budget(300))

        sim.schedule(100, probe)
        sim.run(until_ns=1000)
        # From now=100, 3 segments of 300 ns fit at or before 1000.
        assert seen == [3]

    def test_budget_zero_under_max_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(100, lambda: seen.append(sim.fast_forward_budget(10)))
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
