"""Unit tests for the I/O manager."""

import pytest

from repro.core.fsm import (
    StateInput,
    UserState,
    classify_timeline,
    spans_to_transitions,
)
from repro.sim.devices.disk import Disk
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.timebase import ns_from_ms
from repro.winsys.filesystem import BufferCache, FileSystem
from repro.winsys.iomgr import IoManager
from repro.winsys.nt40 import PERSONALITY


@pytest.fixture
def io_setup(sim):
    disk = Disk(
        sim,
        RngStreams(0),
        raise_interrupt=lambda vector, request: iomgr.on_disk_complete(request),
    )
    cache = BufferCache(64)
    iomgr = IoManager(disk, cache, PERSONALITY)
    fs = FileSystem(total_blocks=disk.geometry.total_blocks)
    return sim, disk, cache, iomgr, fs


class TestPlanning:
    def test_cold_read_plans_requests(self, io_setup):
        sim, _disk, _cache, iomgr, fs = io_setup
        file = fs.create("a", 8 * 4096)
        plan = iomgr.plan_read(file, 0, 8 * 4096)
        assert not plan.all_cached
        assert sum(r.count for r in plan.requests) == 8

    def test_contiguous_misses_coalesce(self, io_setup):
        sim, _disk, _cache, iomgr, fs = io_setup
        file = fs.create("a", 8 * 4096)
        plan = iomgr.plan_read(file, 0, 8 * 4096)
        assert len(plan.requests) == 1  # one contiguous NTFS extent

    def test_warm_read_all_cached(self, io_setup):
        sim, _disk, cache, iomgr, fs = io_setup
        file = fs.create("a", 4 * 4096)
        cache.insert(file.blocks(0, 4 * 4096, 4096))
        plan = iomgr.plan_read(file, 0, 4 * 4096)
        assert plan.all_cached
        assert plan.cpu_work.cycles > 0  # copies still cost CPU

    def test_partial_hit(self, io_setup):
        sim, _disk, cache, iomgr, fs = io_setup
        file = fs.create("a", 4 * 4096)
        blocks = file.blocks(0, 4 * 4096, 4096)
        cache.insert(blocks[:2])
        plan = iomgr.plan_read(file, 0, 4 * 4096)
        assert sum(r.count for r in plan.requests) == 2

    def test_write_goes_to_disk(self, io_setup):
        sim, _disk, _cache, iomgr, fs = io_setup
        file = fs.create("a", 4 * 4096)
        plan = iomgr.plan_write(file, 0, 2 * 4096)
        assert sum(r.count for r in plan.requests) == 2
        assert all(r.is_write for r in plan.requests)

    def test_write_populates_cache(self, io_setup):
        sim, _disk, cache, iomgr, fs = io_setup
        file = fs.create("a", 4 * 4096)
        iomgr.plan_write(file, 0, 4 * 4096)
        plan = iomgr.plan_read(file, 0, 4 * 4096)
        assert plan.all_cached


class TestSubmission:
    def test_all_cached_completes_immediately(self, io_setup):
        sim, _disk, cache, iomgr, fs = io_setup
        file = fs.create("a", 4096)
        cache.insert(file.blocks(0, 4096, 4096))
        plan = iomgr.plan_read(file, 0, 4096)
        done = []
        iomgr.submit(plan, on_done=lambda: done.append(sim.now))
        assert done == [0]

    def test_completion_after_disk(self, io_setup):
        sim, _disk, _cache, iomgr, fs = io_setup
        file = fs.create("a", 4 * 4096)
        plan = iomgr.plan_read(file, 0, 4 * 4096)
        done = []
        iomgr.submit(plan, on_done=lambda: done.append(sim.now))
        assert done == []
        sim.run()
        assert len(done) == 1 and done[0] > 0

    def test_disk_fill_makes_reread_cached(self, io_setup):
        sim, _disk, _cache, iomgr, fs = io_setup
        file = fs.create("a", 4 * 4096)
        iomgr.submit(iomgr.plan_read(file, 0, 4 * 4096), on_done=lambda: None)
        sim.run()
        assert iomgr.plan_read(file, 0, 4 * 4096).all_cached

    def test_outstanding_sync_tracking(self, io_setup):
        sim, _disk, _cache, iomgr, fs = io_setup
        file = fs.create("a", 4096)
        observed = []
        iomgr.add_sync_observer(observed.append)
        iomgr.submit(iomgr.plan_read(file, 0, 4096), on_done=lambda: None)
        assert iomgr.outstanding_sync == 1
        sim.run()
        assert iomgr.outstanding_sync == 0
        assert observed == [1, 0]

    def test_multi_request_plan_completes_once(self, io_setup):
        sim, _disk, _cache, iomgr, fs = io_setup
        fs_fat = FileSystem(total_blocks=100_000, kind="fat", fat_extent_blocks=2)
        file = fs_fat.create("frag", 8 * 4096)
        plan = iomgr.plan_read(file, 0, 8 * 4096)
        assert len(plan.requests) > 1
        done = []
        iomgr.submit(plan, on_done=lambda: done.append(True))
        sim.run()
        assert done == [True]


def _traced_sync_read(stall_ns=0):
    """One synchronous read through a fresh stack, optionally behind an
    injected disk stall, tracing every ``outstanding_sync`` change.

    Returns ``(iomgr, sync_spans, done_at_ns)`` where ``sync_spans`` is
    the [(start, end), ...] record a sync observer would feed the FSM.
    This mirrors exactly how the fault injector degrades the disk: a
    service-time modifier that holds requests until a deadline passes.
    """
    sim = Simulator()
    disk = Disk(
        sim,
        RngStreams(0),
        raise_interrupt=lambda vector, request: iomgr.on_disk_complete(request),
    )
    cache = BufferCache(64)
    iomgr = IoManager(disk, cache, PERSONALITY)
    fs = FileSystem(total_blocks=disk.geometry.total_blocks)
    if stall_ns:
        disk.add_service_time_modifier(
            lambda request, base_ns: max(0, stall_ns - sim.now)
        )

    transitions = []  # (time_ns, outstanding) pairs from the observer
    iomgr.add_sync_observer(lambda value: transitions.append((sim.now, value)))

    file = fs.create("probe", 4096)
    done = []
    iomgr.submit(iomgr.plan_read(file, 0, 4096), on_done=lambda: done.append(sim.now))
    sim.run()
    assert len(done) == 1

    spans, open_since = [], None
    for time_ns, value in transitions:
        if value > 0 and open_since is None:
            open_since = time_ns
        elif value == 0 and open_since is not None:
            spans.append((open_since, time_ns))
            open_since = None
    assert open_since is None  # every sync window closed
    return iomgr, spans, done[0]


class TestInjectedStalls:
    """A stalled disk must surface as Figure 2 user *wait* time.

    The fault injector's only lever on the disk is a service-time
    modifier; these tests pin the whole causal chain from that modifier
    through ``outstanding_sync`` and ``sync_wait_ns`` into the
    wait/think FSM classification.
    """

    # Far past the 100 ms perception threshold, so the FSM has to call
    # the stall a *noticeable* wait rather than absorbing it.
    STALL_NS = ns_from_ms(150.0)

    def test_stall_extends_sync_window(self):
        _iomgr, healthy, done_healthy = _traced_sync_read()
        _iomgr, stalled, done_stalled = _traced_sync_read(self.STALL_NS)
        assert len(healthy) == len(stalled) == 1
        assert done_stalled >= done_healthy + self.STALL_NS - ns_from_ms(1.0)
        assert (stalled[0][1] - stalled[0][0]) > (healthy[0][1] - healthy[0][0])

    def test_stall_accumulates_sync_wait_ns(self):
        healthy_iomgr, _, _ = _traced_sync_read()
        stalled_iomgr, _, _ = _traced_sync_read(self.STALL_NS)
        assert healthy_iomgr.sync_wait_ns > 0
        extra = stalled_iomgr.sync_wait_ns - healthy_iomgr.sync_wait_ns
        # The full stall lands in sync-I/O wait (modulo sub-ms rounding
        # of where the request sat when the deadline was set).
        assert extra >= self.STALL_NS - ns_from_ms(1.0)
        assert stalled_iomgr.disk.injected_service_ns >= extra

    def test_fsm_classifies_stall_as_wait(self):
        _iomgr, spans, done_ns = _traced_sync_read(self.STALL_NS)
        transitions = spans_to_transitions(spans, StateInput.SYNC_IO)
        fsm_spans, summary = classify_timeline(transitions, 0, done_ns)
        wait = [s for s in fsm_spans if s.state == UserState.WAIT]
        assert len(wait) == 1
        assert summary.wait_ns >= self.STALL_NS
        # A 25 ms stall is far past the perception threshold: the FSM
        # must report it as *noticeable* wait, not absorbed think time.
        assert summary.noticeable_wait_ns == summary.wait_ns
        assert summary.unnoticeable_wait_ns == 0

    def test_healthy_read_can_be_unnoticeable(self):
        _iomgr, spans, done_ns = _traced_sync_read()
        transitions = spans_to_transitions(spans, StateInput.SYNC_IO)
        _fsm_spans, summary = classify_timeline(transitions, 0, done_ns)
        assert summary.wait_ns > 0
        assert summary.wait_ns < self.STALL_NS

    def test_modifier_removal_restores_baseline(self):
        sim = Simulator()
        disk = Disk(
            sim,
            RngStreams(0),
            raise_interrupt=lambda vector, request: iomgr.on_disk_complete(request),
        )
        cache = BufferCache(64)
        iomgr = IoManager(disk, cache, PERSONALITY)
        fs = FileSystem(total_blocks=disk.geometry.total_blocks)
        file = fs.create("probe", 2 * 4096)

        modifier = lambda request, base_ns: self.STALL_NS
        disk.add_service_time_modifier(modifier)
        iomgr.submit(iomgr.plan_read(file, 0, 4096), on_done=lambda: None)
        sim.run()
        injected_during = disk.injected_service_ns
        assert injected_during >= self.STALL_NS

        disk.remove_service_time_modifier(modifier)
        iomgr.submit(iomgr.plan_read(file, 4096, 4096), on_done=lambda: None)
        sim.run()
        assert disk.injected_service_ns == injected_during  # no new charge
        # Removing an already-removed modifier is a no-op, as the
        # injector's window-end teardown relies on.
        disk.remove_service_time_modifier(modifier)
