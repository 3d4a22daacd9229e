"""Kernel edge cases: GDI flush, hooks, panics."""

import pytest

from repro.sim.timebase import ns_from_ms
from repro.winsys import (
    GdiFlush,
    GdiOp,
    GetMessage,
    Message,
    WM,
)
from repro.winsys.kernel import KernelPanic
from repro.sim.work import Work


class TestGdiPath:
    def test_gdi_ops_accumulate_until_blocking_getmessage(self, nt40):
        def program():
            for _ in range(3):
                yield GdiOp(base=nt40.personality.app_work(10_000), pixels=100)
            yield GetMessage()  # queue empty -> flush happens here

        thread = nt40.spawn("painter", program())
        nt40.run_for(ns_from_ms(20))
        batch = nt40.kernel.gdi_batch(thread)
        assert batch.flushes == 1
        assert batch.ops_flushed == 3

    def test_explicit_gdi_flush(self, nt40):
        def program():
            yield GdiOp(base=nt40.personality.app_work(10_000))
            yield GdiFlush()
            yield GetMessage()

        thread = nt40.spawn("painter", program())
        nt40.run_for(ns_from_ms(20))
        assert nt40.kernel.gdi_batch(thread).flushes == 1

    def test_pixels_reach_display(self, nt40):
        def program():
            yield GdiOp(base=nt40.personality.app_work(1000), pixels=640)
            yield GdiFlush()

        nt40.spawn("painter", program())
        nt40.run_for(ns_from_ms(10))
        assert nt40.machine.display.pixels_painted == 640

    def test_empty_flush_is_free(self, nt40):
        done = []

        def program():
            yield GdiFlush()
            done.append(nt40.now)

        nt40.spawn("painter", program())
        nt40.run_for(ns_from_ms(5))
        assert done


class TestHookRecords:
    def test_call_record_carries_queue_length(self, nt40):
        records = []
        nt40.hooks.register("GetMessage", records.append)

        def program():
            while True:
                yield GetMessage()

        thread = nt40.spawn("app", program(), foreground=True)
        nt40.run_for(ns_from_ms(5))
        nt40.kernel.post_message(thread, Message(WM.USER))
        nt40.kernel.post_message(thread, Message(WM.USER))
        nt40.run_for(ns_from_ms(10))
        call_records = [r for r in records if r.message is None]
        assert any(r.queue_len >= 1 for r in call_records)

    def test_blocked_call_marked(self, nt40):
        records = []
        nt40.hooks.register("GetMessage", records.append)

        def program():
            yield GetMessage()

        nt40.spawn("app", program())
        nt40.run_for(ns_from_ms(5))
        assert any(r.blocked for r in records if r.message is None)


class TestPanics:
    def test_unknown_syscall_panics(self, nt40):
        def program():
            yield object()

        nt40.spawn("bad", program())
        with pytest.raises(KernelPanic):
            nt40.run_for(ns_from_ms(5))

    def test_double_boot_panics(self, nt40):
        with pytest.raises(KernelPanic):
            nt40.kernel.boot()
