"""Unit tests for the interrupt controller and periodic clock."""

import pytest

from repro.sim.cpu import CPU
from repro.sim.engine import Simulator
from repro.sim.interrupts import InterruptController, PeriodicClock
from repro.sim.perf import PerfCounters
from repro.sim.work import HwEvent, Work


@pytest.fixture
def setup(sim):
    perf = PerfCounters(sim)
    cpu = CPU(sim, perf)
    controller = InterruptController(sim, cpu)
    return sim, perf, cpu, controller


class TestController:
    def test_unknown_vector_raises(self, setup):
        _sim, _perf, _cpu, controller = setup
        with pytest.raises(KeyError):
            controller.raise_interrupt("nope")

    def test_handler_runs_after_isr_duration(self, setup):
        sim, _perf, _cpu, controller = setup
        seen = []
        controller.register("kbd", Work(500), handler=lambda p: seen.append((p, sim.now)))
        controller.raise_interrupt("kbd", payload="x")
        sim.run()
        assert seen == [("x", 5_000)]  # 500 cycles = 5 us

    def test_interrupt_event_charged(self, setup):
        sim, perf, _cpu, controller = setup
        controller.register("kbd", Work(500))
        controller.raise_interrupt("kbd")
        assert perf.total(HwEvent.INTERRUPTS) == 1

    def test_isr_steals_from_running_work(self, setup):
        sim, _perf, cpu, controller = setup
        controller.register("kbd", Work(1_000))  # 10 us ISR
        done = []
        cpu.start(Work(100_000), "ctx", lambda c: done.append(sim.now))
        sim.run(until_ns=100)
        controller.raise_interrupt("kbd")
        sim.run()
        assert done == [1_010_000]

    def test_delivered_counts(self, setup):
        sim, _perf, _cpu, controller = setup
        controller.register("kbd", Work(10))
        controller.raise_interrupt("kbd")
        controller.raise_interrupt("kbd")
        assert controller.delivered["kbd"] == 2

    def test_set_handler_and_recost(self, setup):
        sim, _perf, _cpu, controller = setup
        controller.register("disk", Work(10))
        seen = []
        controller.set_handler("disk", lambda p: seen.append(p))
        controller.set_isr_work("disk", Work(2_000))
        controller.raise_interrupt("disk", payload=9)
        sim.run()
        assert seen == [9]
        with pytest.raises(KeyError):
            controller.set_handler("none", lambda p: None)


class TestPeriodicClock:
    def test_ticks_on_10ms_boundaries(self, setup):
        sim, _perf, _cpu, controller = setup
        clock = PeriodicClock(sim, controller)
        times = []
        controller.set_handler("clock", lambda tick: times.append(sim.now))
        clock.start()
        sim.run(until_ns=35_000_000)
        # Handler fires ISR-duration after each 10 ms boundary.
        assert len(times) == 3
        for time_ns, boundary in zip(times, (10_000_000, 20_000_000, 30_000_000)):
            assert 0 <= time_ns - boundary < 100_000

    def test_start_idempotent(self, setup):
        sim, _perf, _cpu, controller = setup
        clock = PeriodicClock(sim, controller)
        clock.start()
        clock.start()
        sim.run(until_ns=10_500_000)
        assert clock.ticks == 1

    def test_interrupt_count_matches_ticks(self, setup):
        sim, perf, _cpu, controller = setup
        clock = PeriodicClock(sim, controller)
        clock.start()
        sim.run(until_ns=100_000_000)
        assert perf.total(HwEvent.INTERRUPTS) == clock.ticks == 10
