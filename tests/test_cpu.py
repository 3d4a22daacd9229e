"""Unit tests for the CPU execution model."""

import pytest

from repro.sim.cpu import CPU
from repro.sim.engine import SimulationError, Simulator
from repro.sim.perf import PerfCounters
from repro.sim.work import HwEvent, Work


@pytest.fixture
def cpu(sim):
    return CPU(sim, PerfCounters(sim))


class TestExecution:
    def test_completion_at_work_duration(self, sim, cpu):
        done = []
        cpu.start(Work(100_000), "ctx", lambda c: done.append((c, sim.now)))
        sim.run()
        assert done == [("ctx", 1_000_000)]  # 100k cycles = 1 ms

    def test_busy_flag(self, sim, cpu):
        cpu.start(Work(1000), "ctx", lambda c: None)
        assert cpu.busy
        sim.run()
        assert not cpu.busy

    def test_start_while_busy_raises(self, sim, cpu):
        cpu.start(Work(1000), "a", lambda c: None)
        with pytest.raises(SimulationError):
            cpu.start(Work(1000), "b", lambda c: None)

    def test_events_fully_charged_on_completion(self, sim, cpu):
        cpu.start(Work(1000, {HwEvent.ITLB_MISS: 40}), "ctx", lambda c: None)
        sim.run()
        assert cpu.perf.total(HwEvent.ITLB_MISS) == 40

    def test_busy_ns_accumulates(self, sim, cpu):
        cpu.start(Work(100_000), "ctx", lambda c: None)
        sim.run()
        assert cpu.busy_ns == 1_000_000


class TestPreemption:
    def test_preempt_returns_remainder(self, sim, cpu):
        cpu.start(Work(100_000), "ctx", lambda c: None)
        sim.run(until_ns=400_000)  # 40% through
        context, remaining = cpu.preempt()
        assert context == "ctx"
        assert remaining.cycles == 60_000

    def test_preempt_charges_pro_rata(self, sim, cpu):
        cpu.start(Work(100_000, {HwEvent.DTLB_MISS: 100}), "ctx", lambda c: None)
        sim.run(until_ns=500_000)
        _context, remaining = cpu.preempt()
        assert cpu.perf.total(HwEvent.DTLB_MISS) == 50
        assert remaining.events[HwEvent.DTLB_MISS] == 50

    def test_preempt_then_resume_total_is_exact(self, sim, cpu):
        done = []
        cpu.start(Work(100_000, {HwEvent.ITLB_MISS: 10}), "ctx", lambda c: done.append(sim.now))
        sim.run(until_ns=300_000)
        _context, remaining = cpu.preempt()
        # Resume 1 ms later.
        sim.run(until_ns=1_300_000)
        cpu.start(remaining, "ctx", lambda c: done.append(sim.now))
        sim.run()
        assert done == [2_000_000]  # 0.3 ms + 1 ms gap + 0.7 ms
        assert cpu.perf.total(HwEvent.ITLB_MISS) == 10
        assert cpu.busy_ns == 1_000_000

    def test_preempt_idle_raises(self, cpu):
        with pytest.raises(SimulationError):
            cpu.preempt()

    def test_cancelled_completion_never_fires(self, sim, cpu):
        done = []
        cpu.start(Work(1000), "ctx", lambda c: done.append(c))
        sim.run(until_ns=1)
        cpu.preempt()
        sim.run()
        assert done == []

    def test_abort_discards_remainder(self, sim, cpu):
        cpu.start(Work(10**9), "spin", lambda c: None)
        sim.run(until_ns=1_000_000)
        context = cpu.abort()
        assert context == "spin"
        assert not cpu.busy
        assert cpu.busy_ns == 1_000_000


class TestStealing:
    def test_steal_pushes_completion_back(self, sim, cpu):
        done = []
        cpu.start(Work(100_000), "ctx", lambda c: done.append(sim.now))
        sim.run(until_ns=200_000)
        cpu.steal(Work(40_000))  # 0.4 ms ISR
        sim.run()
        assert done == [1_400_000]

    def test_steal_charges_isr_events_immediately(self, sim, cpu):
        cpu.start(Work(100_000), "ctx", lambda c: None)
        sim.run(until_ns=100)
        cpu.steal(Work(400, {HwEvent.SEGMENT_LOADS: 4}))
        assert cpu.perf.total(HwEvent.SEGMENT_LOADS) == 4

    def test_steal_while_idle_returns_duration(self, sim, cpu):
        assert cpu.steal(Work(400)) == 4_000

    def test_multiple_steals_stack(self, sim, cpu):
        done = []
        cpu.start(Work(100_000), "ctx", lambda c: done.append(sim.now))
        sim.run(until_ns=100_000)
        cpu.steal(Work(10_000))
        sim.run(until_ns=300_000)
        cpu.steal(Work(10_000))
        sim.run()
        assert done == [1_200_000]

    def test_steal_counts_as_busy(self, sim, cpu):
        cpu.steal(Work(50_000))
        assert cpu.busy_ns == 500_000

    def test_preempt_after_steal_accounts_progress(self, sim, cpu):
        # Work starts at 0; ISR steals 0.1 ms at t=0.2 ms; preempt at 0.5 ms.
        cpu.start(Work(100_000), "ctx", lambda c: None)
        sim.run(until_ns=200_000)
        cpu.steal(Work(10_000))
        sim.run(until_ns=500_000)
        _context, remaining = cpu.preempt()
        # Progress = 0.5 ms elapsed - 0.1 ms stolen = 0.4 ms -> 40k cycles done.
        assert remaining.cycles == 60_000
