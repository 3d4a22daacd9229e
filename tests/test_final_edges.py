"""Final edge coverage: kernel introspection, runner render path, caches."""

import pytest

from repro.sim.timebase import ns_from_ms
from repro.winsys import Compute, GetMessage, Message, WM, boot


class TestKernelIntrospection:
    def test_cpu_is_idle(self, nt40):
        nt40.run_for(ns_from_ms(5))
        assert not nt40.machine.cpu.busy

        def worker():
            yield Compute(nt40.personality.app_work(10_000_000))

        nt40.spawn("w", worker())
        nt40.run_for(ns_from_ms(1))
        assert nt40.machine.cpu.busy

    def test_foreground_queue_len(self, nt40):
        assert nt40.kernel.foreground is None

        def app():
            yield Compute(nt40.personality.app_work(50_000_000))
            while True:
                yield GetMessage()

        thread = nt40.spawn("app", app(), foreground=True)
        nt40.run_for(ns_from_ms(1))
        nt40.kernel.post_message(thread, Message(WM.USER))
        nt40.kernel.post_message(thread, Message(WM.USER))
        assert len(nt40.kernel.foreground.queue) == 2


class TestRunnerRenderPath:
    def test_full_render_output(self, capsys):
        from repro.experiments.runner import main

        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out or "fig1" in out
        assert "measured" in out
        assert "wall time" in out


class TestEchoHelpers:
    def test_personality_hz(self, nt40):
        from repro.apps import EchoApp

        assert EchoApp(nt40).personality_hz() == 100_000_000


class TestPackageSurface:
    def test_core_all_importable(self):
        import repro.core as core

        for name in core.__all__:
            assert hasattr(core, name), name

    def test_winsys_all_importable(self):
        import repro.winsys as winsys

        for name in winsys.__all__:
            assert hasattr(winsys, name), name

    def test_sim_all_importable(self):
        import repro.sim as sim

        for name in sim.__all__:
            assert hasattr(sim, name), name

    def test_workload_all_importable(self):
        import repro.workload as workload

        for name in workload.__all__:
            assert hasattr(workload, name), name

    def test_version(self):
        import repro

        assert repro.__version__
