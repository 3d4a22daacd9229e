"""Unit tests for the assembled machine."""

from repro.sim.machine import Machine, MachineSpec
from repro.sim.work import HwEvent


class TestMachine:
    def test_default_spec_is_the_paper_testbed(self, machine):
        assert machine.spec.cpu_hz == 100_000_000
        assert machine.spec.ram_bytes == 32 * 1024 * 1024
        assert machine.spec.l2_cache_bytes == 256 * 1024
        assert machine.spec.clock_period_ns == 10_000_000
        assert machine.spec.disk_geometry.name.startswith("Fujitsu")

    def test_clock_off_until_power_on(self, machine):
        machine.run_for(100_000_000)
        assert machine.clock.ticks == 0

    def test_power_on_starts_clock(self, machine):
        machine.power_on()
        machine.run_for(100_000_000)
        assert machine.clock.ticks == 10
        assert machine.perf.total(HwEvent.INTERRUPTS) == 10

    def test_run_for_advances(self, machine):
        machine.run_for(5_000)
        assert machine.sim.now == 5_000
        machine.run_for(5_000)
        assert machine.sim.now == 10_000

    def test_device_vectors_registered(self, machine):
        for vector in ("clock", "disk", "keyboard", "mouse"):
            assert vector in machine.interrupts.delivered

    def test_devices_share_the_simulator(self, machine):
        assert machine.disk.sim is machine.sim
        assert machine.keyboard.sim is machine.sim
        assert machine.cpu.sim is machine.sim

    def test_seeded_machines_identical(self):
        a = Machine(MachineSpec(master_seed=5))
        b = Machine(MachineSpec(master_seed=5))
        assert a.rngs.stream("x").random() == b.rngs.stream("x").random()
