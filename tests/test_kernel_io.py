"""Unit tests for syscall-level file I/O."""

import pytest

from repro.sim.timebase import ns_from_ms
from repro.winsys import SyncRead, SyncWrite, boot


class TestSyncRead:
    def test_cold_read_blocks_for_disk_time(self, nt40):
        file = nt40.filesystem.create("doc", 64 * 4096)
        stamps = []

        def program():
            stamps.append(nt40.now)
            yield SyncRead(file, 0, 64 * 4096)
            stamps.append(nt40.now)

        nt40.spawn("reader", program())
        nt40.run_for(ns_from_ms(2000))
        assert len(stamps) == 2
        assert stamps[1] - stamps[0] > ns_from_ms(10)  # real disk time

    def test_warm_read_is_fast(self, nt40):
        file = nt40.filesystem.create("doc", 16 * 4096)
        durations = []

        def program():
            for _ in range(2):
                start = nt40.now
                yield SyncRead(file, 0, 16 * 4096)
                durations.append(nt40.now - start)

        nt40.spawn("reader", program())
        nt40.run_for(ns_from_ms(2000))
        assert durations[1] < durations[0] / 5

    def test_outstanding_sync_visible_during_read(self, nt40):
        file = nt40.filesystem.create("doc", 64 * 4096)

        def program():
            yield SyncRead(file, 0, 64 * 4096)

        nt40.spawn("reader", program())
        nt40.run_for(ns_from_ms(3))
        assert nt40.iomgr.outstanding_sync == 1
        nt40.run_for(ns_from_ms(2000))
        assert nt40.iomgr.outstanding_sync == 0

    def test_cpu_idle_during_disk_wait(self, nt40):
        """The paper's FSM point: the CPU can idle while the user waits."""
        file = nt40.filesystem.create("doc", 256 * 4096)

        def program():
            yield SyncRead(file, 0, 256 * 4096)

        nt40.spawn("reader", program())
        busy_before = nt40.machine.cpu.busy_ns
        start = nt40.now
        nt40.run_for(ns_from_ms(3000))
        elapsed = nt40.now - start
        busy = nt40.machine.cpu.busy_ns - busy_before
        assert busy < elapsed / 2


class TestSyncWrite:
    def test_write_blocks_for_disk(self, nt40):
        file = nt40.filesystem.create("doc", 16 * 4096)
        stamps = []

        def program():
            stamps.append(nt40.now)
            yield SyncWrite(file, 0, 16 * 4096)
            stamps.append(nt40.now)

        nt40.spawn("writer", program())
        nt40.run_for(ns_from_ms(2000))
        assert stamps[1] - stamps[0] > ns_from_ms(5)

    def test_write_then_read_is_cached(self, nt40):
        file = nt40.filesystem.create("doc", 8 * 4096)
        durations = []

        def program():
            yield SyncWrite(file, 0, 8 * 4096)
            start = nt40.now
            yield SyncRead(file, 0, 8 * 4096)
            durations.append(nt40.now - start)

        nt40.spawn("writer", program())
        nt40.run_for(ns_from_ms(2000))
        assert durations[0] < ns_from_ms(2)

