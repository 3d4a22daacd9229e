"""The experimental machine.

Assembles the hardware of Section 2.1 — 100 MHz Pentium with performance
counters, 10 ms clock interrupt, dedicated SCSI disk, keyboard, mouse,
display — around one deterministic event calendar and one master RNG
seed.  Operating systems boot *on* a Machine; the measurement layer
reads its counters exactly as the paper read the Pentium's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .cpu import CPU
from .devices import Disk, DiskGeometry, Display, Keyboard, Mouse, Nic
from .engine import Simulator
from .interrupts import InterruptController, PeriodicClock
from .perf import PerfCounters
from .rng import RngStreams
from .timebase import DEFAULT_CPU_HZ, ns_from_ms

__all__ = ["MachineSpec", "Machine"]


@dataclass(frozen=True)
class MachineSpec:
    """Configurable hardware parameters (defaults = the paper's testbed)."""

    cpu_hz: int = DEFAULT_CPU_HZ
    ram_bytes: int = 32 * 1024 * 1024
    l2_cache_bytes: int = 256 * 1024
    clock_period_ns: int = ns_from_ms(10)
    disk_geometry: DiskGeometry = field(default_factory=DiskGeometry)
    master_seed: int = 0


class Machine:
    """One simulated PC: devices wired to a shared simulator and counters."""

    def __init__(self, spec: Optional[MachineSpec] = None) -> None:
        self.spec = spec or MachineSpec()
        self.sim = Simulator()
        self.rngs = RngStreams(self.spec.master_seed)
        self.perf = PerfCounters(self.sim, hz=self.spec.cpu_hz)
        self.cpu = CPU(self.sim, self.perf, hz=self.spec.cpu_hz)
        self.interrupts = InterruptController(self.sim, self.cpu)
        self.clock = PeriodicClock(
            self.sim, self.interrupts, period_ns=self.spec.clock_period_ns
        )
        self.disk = Disk(
            self.sim,
            self.rngs,
            geometry=self.spec.disk_geometry,
            raise_interrupt=self.interrupts.raise_interrupt,
        )
        self.keyboard = Keyboard(self.sim, self.interrupts.raise_interrupt)
        self.mouse = Mouse(self.sim, self.interrupts.raise_interrupt)
        self.nic = Nic(self.sim, self.interrupts.raise_interrupt)
        self.display = Display(self.sim)
        # Device vectors exist from power-on; the OS re-costs them at boot.
        from .work import Work

        self.interrupts.register(Disk.VECTOR, Work(600, label="disk-isr"))
        self.interrupts.register(Keyboard.VECTOR, Work(500, label="kbd-isr"))
        self.interrupts.register(Mouse.VECTOR, Work(500, label="mouse-isr"))
        self.interrupts.register(Nic.VECTOR, Work(700, label="nic-isr"))

    def power_on(self) -> None:
        """Start free-running hardware (the periodic clock)."""
        self.clock.start()

    def run_for(self, duration_ns: int) -> int:
        """Advance the machine by ``duration_ns``; returns the new time."""
        return self.sim.run(until_ns=self.sim.now + duration_ns)
