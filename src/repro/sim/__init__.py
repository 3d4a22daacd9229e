"""Machine substrate: deterministic discrete-event hardware simulation.

This package stands in for the paper's physical testbed (Section 2.1): a
100 MHz Pentium with hardware performance counters, a 10 ms periodic
clock interrupt, a SCSI disk, and input devices — all driven from one
deterministic event calendar so every experiment is bit-reproducible.
"""

from .cpu import CPU
from .devices import Disk, DiskGeometry, DiskRequest, Display, Keyboard, KeyEvent, Mouse, MouseEvent
from .engine import ScheduledEvent, SimulationError, Simulator
from .interrupts import InterruptController, PeriodicClock
from .machine import Machine, MachineSpec
from .perf import CounterAccessError, CounterSnapshot, PerfCounters
from .rng import RngStreams
from .timebase import (
    DEFAULT_CPU_HZ,
    NS_PER_MS,
    NS_PER_SEC,
    NS_PER_US,
    cycles_to_ns,
    ms_from_ns,
    ns_from_ms,
    ns_from_sec,
    ns_from_us,
    ns_to_cycles,
    sec_from_ns,
)
from .trace import TraceBuffer, TraceOverflow
from .work import HwEvent, Work

__all__ = [
    "CPU",
    "CounterAccessError",
    "CounterSnapshot",
    "DEFAULT_CPU_HZ",
    "Disk",
    "DiskGeometry",
    "DiskRequest",
    "Display",
    "HwEvent",
    "InterruptController",
    "KeyEvent",
    "Keyboard",
    "Machine",
    "MachineSpec",
    "Mouse",
    "MouseEvent",
    "NS_PER_MS",
    "NS_PER_SEC",
    "NS_PER_US",
    "PerfCounters",
    "PeriodicClock",
    "RngStreams",
    "ScheduledEvent",
    "SimulationError",
    "Simulator",
    "TraceBuffer",
    "TraceOverflow",
    "Work",
    "cycles_to_ns",
    "ms_from_ns",
    "ns_from_ms",
    "ns_from_sec",
    "ns_from_us",
    "ns_to_cycles",
    "sec_from_ns",
]
