"""Unit tests for repro.sim.timebase."""

import pytest

from repro.sim import timebase as tb


class TestConversions:
    def test_ns_from_ms(self):
        assert tb.ns_from_ms(1) == 1_000_000
        assert tb.ns_from_ms(0.5) == 500_000

    def test_ns_from_us(self):
        assert tb.ns_from_us(1) == 1_000
        assert tb.ns_from_us(2.5) == 2_500

    def test_ns_from_sec(self):
        assert tb.ns_from_sec(1) == 1_000_000_000

    def test_roundtrip_ms(self):
        assert tb.ms_from_ns(tb.ns_from_ms(123.25)) == pytest.approx(123.25)

    def test_roundtrip_sec(self):
        assert tb.sec_from_ns(tb.ns_from_sec(7.5)) == pytest.approx(7.5)


class TestCycles:
    def test_one_cycle_is_10ns_at_100mhz(self):
        assert tb.cycles_to_ns(1) == 10

    def test_cycles_to_ns_scales(self):
        assert tb.cycles_to_ns(100_000) == 1_000_000  # 100k cycles = 1 ms

    def test_ns_to_cycles_inverse(self):
        assert tb.ns_to_cycles(tb.cycles_to_ns(123_456)) == 123_456

    def test_other_clock_rate(self):
        # 200 MHz: one cycle is 5 ns.
        assert tb.cycles_to_ns(2, hz=200_000_000) == 10
        assert tb.ns_to_cycles(10, hz=200_000_000) == 2

    def test_default_cpu_is_100mhz(self):
        assert tb.DEFAULT_CPU_HZ == 100_000_000
