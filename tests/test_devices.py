"""Unit tests for the simulated devices (disk, keyboard, mouse, display)."""

import pytest

from repro.sim.devices.disk import Disk, DiskGeometry, DiskRequest
from repro.sim.devices.display import Display
from repro.sim.devices.keyboard import Keyboard
from repro.sim.devices.mouse import Mouse
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams


@pytest.fixture
def disk(sim):
    return Disk(sim, RngStreams(0))


class TestDisk:
    def test_completion_callback(self, sim, disk):
        done = []
        disk.submit(DiskRequest(block=100, count=4, on_complete=done.append))
        sim.run()
        assert len(done) == 1
        assert done[0].completed_ns > done[0].submitted_ns

    def test_service_time_components(self, sim, disk):
        request = DiskRequest(block=100_000, count=8)
        service = disk.service_time_ns(request)
        geometry = disk.geometry
        minimum = geometry.controller_overhead_ns + geometry.min_seek_ns
        assert service >= minimum
        assert service >= geometry.transfer_ns_per_block * 8

    def test_sequential_access_cheaper_than_far_seek(self, sim, disk):
        # Average over rotation randomness.
        near = sum(
            disk.service_time_ns(DiskRequest(block=0, count=1)) for _ in range(50)
        )
        far = sum(
            disk.service_time_ns(DiskRequest(block=250_000, count=1))
            for _ in range(50)
        )
        assert far > near

    def test_fifo_ordering(self, sim, disk):
        done = []
        for block in (10, 5000, 200):
            disk.submit(
                DiskRequest(block=block, count=1, on_complete=lambda r: done.append(r.block))
            )
        sim.run()
        assert done == [10, 5000, 200]

    def test_queue_depth(self, sim, disk):
        disk.submit(DiskRequest(block=1, count=1))
        disk.submit(DiskRequest(block=2, count=1))
        assert disk.queue_depth == 2
        sim.run()
        assert disk.queue_depth == 0

    def test_bounds_checked(self, disk):
        with pytest.raises(ValueError):
            disk.submit(DiskRequest(block=-1, count=1))
        with pytest.raises(ValueError):
            disk.submit(DiskRequest(block=disk.geometry.total_blocks, count=1))
        with pytest.raises(ValueError):
            disk.submit(DiskRequest(block=0, count=0))

    def test_interrupt_sink_used_when_set(self, sim):
        raised = []
        disk = Disk(
            sim,
            RngStreams(0),
            raise_interrupt=lambda vector, payload: raised.append(vector),
        )
        disk.submit(DiskRequest(block=0, count=1))
        sim.run()
        assert raised == ["disk"]

    def test_stats(self, sim, disk):
        disk.submit(DiskRequest(block=0, count=3))
        sim.run()
        assert disk.requests_completed == 1
        assert disk.blocks_transferred == 3
        assert disk.busy_ns > 0

    def test_deterministic_given_seed(self):
        def total_time(seed):
            sim = Simulator()
            disk = Disk(sim, RngStreams(seed))
            for block in (10, 5000, 99):
                disk.submit(DiskRequest(block=block, count=2))
            sim.run()
            return sim.now

        assert total_time(1) == total_time(1)
        assert total_time(1) != total_time(2)


class TestKeyboard:
    def test_key_raises_interrupt(self, sim):
        events = []
        keyboard = Keyboard(sim, lambda v, p: events.append((v, p)))
        keyboard.key("a")
        assert events[0][0] == "keyboard"
        assert events[0][1].key == "a"
        assert events[0][1].down

    def test_keystroke_posts_down_and_up(self, sim):
        events = []
        keyboard = Keyboard(sim, lambda v, p: events.append(p))
        keyboard.keystroke("x")
        assert [e.down for e in events] == [True, False]

    def test_keystroke_with_hold(self, sim):
        events = []
        keyboard = Keyboard(sim, lambda v, p: events.append((p.down, sim.now)))
        keyboard.keystroke("x", hold_ns=5_000_000)
        sim.run()
        assert events == [(True, 0), (False, 5_000_000)]

    def test_unconnected_raises(self, sim):
        with pytest.raises(RuntimeError):
            Keyboard(sim).key("a")


class TestMouse:
    def test_click_edges(self, sim):
        events = []
        mouse = Mouse(sim, lambda v, p: events.append(p.kind))
        mouse.click(hold_ns=1_000_000)
        sim.run()
        assert events == ["down", "up"]

    def test_hold_duration(self, sim):
        times = []
        mouse = Mouse(sim, lambda v, p: times.append((p.kind, sim.now)))
        mouse.click(hold_ns=90_000_000)
        sim.run()
        assert dict(times)["up"] == 90_000_000


class TestDisplay:
    def test_paint_accounting(self, sim):
        display = Display(sim)
        display.paint(1000)
        display.paint(500)
        assert display.paint_ops == 2
        assert display.pixels_painted == 1500

    def test_negative_paint_rejected(self, sim):
        with pytest.raises(ValueError):
            Display(sim).paint(-1)

    def test_refresh_boundary(self, sim):
        display = Display(sim, refresh_period_ns=10_000_000)
        sim.schedule(3_000_000, lambda: None)
        sim.run()
        assert display.next_refresh_ns() == 10_000_000
        assert display.visible_after_ns() == 7_000_000

    def test_refresh_in_paper_range(self, sim):
        # Section 2.3: "most graphics output devices refresh every 12-17 ms".
        display = Display(sim)
        assert 12_000_000 <= display.refresh_period_ns <= 17_000_000
