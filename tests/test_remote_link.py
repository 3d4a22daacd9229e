"""Unit tests for the deterministic lossy-link model."""

import pytest

from repro.remote.link import DirectionConfig, LinkConfig, LossyLink
from repro.sim.timebase import ns_from_ms
from repro.winsys import boot


def _collect(system, link, count=20, size=200, direction="up", gap_ms=0.0):
    """Send ``count`` packets (optionally spaced); return delivery times."""
    times = []

    def send_one(i):
        link.send(
            direction,
            size,
            lambda i=i: times.append((i, system.now)),
            label=f"pkt:{i}",
        )

    for i in range(count):
        if gap_ms:
            system.sim.schedule_at(
                system.now + ns_from_ms(gap_ms * i),
                lambda i=i: send_one(i),
                label="inject",
            )
        else:
            send_one(i)
    system.run_for(ns_from_ms(5_000))
    return times


class TestConfig:
    def test_direction_validation(self):
        with pytest.raises(ValueError):
            DirectionConfig(bandwidth_kbps=0)
        with pytest.raises(ValueError):
            DirectionConfig(loss=1.5)
        with pytest.raises(ValueError):
            DirectionConfig(delay_ms=-1)

    def test_symmetric_splits_rtt(self):
        link = LinkConfig.symmetric("t", rtt_ms=80.0)
        assert link.up.delay_ms + link.down.delay_ms == pytest.approx(80.0)
        assert link.rtt_ms == pytest.approx(80.0)

    def test_flap_validation(self):
        with pytest.raises(ValueError):
            LinkConfig.symmetric(
                "t", rtt_ms=40.0, flap_period_ms=10.0, flap_down_ms=20.0
            )


class TestLossyLink:
    def test_delivery_is_deterministic(self):
        def run_once():
            system = boot("nt40", seed=2)
            link = LossyLink(
                system,
                LinkConfig.symmetric("t", rtt_ms=60.0, jitter_ms=5.0, loss=0.2),
            )
            return _collect(system, link)

        assert run_once() == run_once()

    def test_zero_loss_delivers_everything(self, nt40):
        link = LossyLink(nt40, LinkConfig.symmetric("t", rtt_ms=30.0))
        times = _collect(nt40, link, count=15)
        assert len(times) == 15
        assert link.counters()["lost"]["up"] == 0

    def test_serialization_orders_backlog(self, nt40):
        # 4000 kbps, 10 KB packets: 20 ms serialization each, so
        # back-to-back sends must come out spaced by >= 20 ms, in order.
        link = LossyLink(nt40, LinkConfig.symmetric("t", rtt_ms=10.0))
        times = _collect(nt40, link, count=5, size=10_000)
        deltas = [b - a for (_, a), (_, b) in zip(times, times[1:])]
        assert all(delta >= ns_from_ms(19) for delta in deltas)
        assert [i for i, _ in times] == sorted(i for i, _ in times)

    def test_loss_drops_some(self, nt40):
        link = LossyLink(nt40, LinkConfig.symmetric("t", rtt_ms=30.0, loss=0.4))
        times = _collect(nt40, link, count=40)
        assert 0 < len(times) < 40
        assert link.counters()["lost"]["up"] + len(times) == 40

    def test_degrade_restore_composes(self, nt40):
        link = LossyLink(nt40, LinkConfig.symmetric("t", rtt_ms=30.0))
        base = (link.effective("up").loss, link.effective("up").jitter_ms)
        t1 = link.degrade(loss_add=0.2)
        t2 = link.degrade(jitter_add_ms=10.0, loss_add=0.1)
        effective = link.effective("up")
        assert effective.loss == pytest.approx(0.3)
        assert effective.jitter_ms == pytest.approx(10.0)
        link.restore(t1)
        assert link.effective("up").loss == pytest.approx(0.1)
        link.restore(t2)
        assert (
            link.effective("up").loss,
            link.effective("up").jitter_ms,
        ) == pytest.approx(base)

    def test_flap_is_pure_function_of_time(self, nt40):
        link = LossyLink(nt40, LinkConfig.symmetric("t", rtt_ms=30.0))
        link.set_flap(period_ms=100.0, down_ms=40.0)
        anchor = nt40.now
        probes = [anchor + ns_from_ms(m) for m in range(0, 200, 10)]
        first = [link.is_down(at) for at in probes]
        second = [link.is_down(at) for at in probes]
        assert first == second
        assert any(first) and not all(first)
        link.clear_flap()
        assert not link.is_down(probes[3])

    def test_flap_drops_in_down_window(self, nt40):
        link = LossyLink(
            nt40,
            LinkConfig.symmetric(
                "t", rtt_ms=30.0, flap_period_ms=200.0, flap_down_ms=150.0
            ),
        )
        times = _collect(nt40, link, count=30, gap_ms=20.0)
        assert link.counters()["flapped"]["up"] > 0
        assert times  # some packets cross in the up windows

    def test_registers_on_system(self, nt40):
        link = LossyLink(nt40, LinkConfig.symmetric("t", rtt_ms=30.0))
        assert nt40.remote_link is link
