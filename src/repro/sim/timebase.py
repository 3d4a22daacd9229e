"""Simulated time base.

All simulator time is kept as an integer number of nanoseconds since the
machine was powered on.  Integer time makes every run bit-reproducible:
there is no floating-point drift, no platform-dependent rounding, and
ties between events can be broken deterministically.

The experimental machine of the paper (Section 2.1) is a 100 MHz Pentium,
so one CPU cycle is exactly 10 ns.  The :class:`~repro.sim.perf.PerfCounters`
cycle counter is derived directly from this time base, mirroring the
free-running 64-bit Pentium cycle counter the paper reads.
"""

from __future__ import annotations

# One nanosecond is the base unit.
NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_SEC = 1_000_000_000

#: Clock rate of the simulated CPU (Section 2.1: 100 MHz Pentium).
DEFAULT_CPU_HZ = 100_000_000


def ns_from_us(us: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return round(us * NS_PER_US)


def ns_from_ms(ms: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return round(ms * NS_PER_MS)


def ns_from_sec(sec: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return round(sec * NS_PER_SEC)


def ms_from_ns(ns: int) -> float:
    """Convert nanoseconds to (float) milliseconds."""
    return ns / NS_PER_MS


def sec_from_ns(ns: int) -> float:
    """Convert nanoseconds to (float) seconds."""
    return ns / NS_PER_SEC


def cycles_to_ns(cycles: int, hz: int = DEFAULT_CPU_HZ) -> int:
    """Duration, in nanoseconds, of ``cycles`` CPU cycles at ``hz``.

    The default 100 MHz clock gives exactly 10 ns per cycle, so the
    conversion is lossless for the standard machine.
    """
    return (cycles * NS_PER_SEC) // hz


def ns_to_cycles(ns: int, hz: int = DEFAULT_CPU_HZ) -> int:
    """Number of whole CPU cycles elapsed in ``ns`` nanoseconds at ``hz``."""
    return (ns * hz) // NS_PER_SEC
