"""Tests for the experiments framework itself."""

import gc
import weakref

import pytest

from repro.experiments.common import (
    ALL_OS,
    Check,
    ExperimentResult,
    checks_table,
    inject_click,
    inject_keystroke,
    post_command,
)
from repro.winsys import boot


class TestCheck:
    def test_str_pass_fail(self):
        assert "[PASS]" in str(Check("x", True))
        assert "[FAIL]" in str(Check("x", False, "why"))
        assert "why" in str(Check("x", False, "why"))


class TestExperimentResult:
    def test_check_records(self):
        result = ExperimentResult(id="t", title="T")
        result.check("ok", True)
        result.check("bad", False, "detail")
        assert not result.all_passed
        assert len(result.failed_checks()) == 1

    def test_check_coerces_truthiness(self):
        result = ExperimentResult(id="t", title="T")
        check = result.check("numpy-ish", 1)
        assert check.passed is True

    def test_render_contains_everything(self):
        from repro.core.report import TextTable

        result = ExperimentResult(id="t", title="Title Here")
        table = TextTable(["a"], title="tbl")
        table.add_row(1)
        result.tables.append(table)
        result.figures.append("FIGURE-BLOCK")
        result.check("c1", True)
        text = result.render()
        assert "Title Here" in text
        assert "tbl" in text
        assert "FIGURE-BLOCK" in text
        assert "c1" in text

    def test_checks_table(self):
        result = ExperimentResult(id="t", title="T")
        result.check("one", True, "d")
        text = checks_table(result).render()
        assert "one" in text and "PASS" in text


class TestConstants:
    def test_os_order_matches_paper(self):
        assert ALL_OS == ("nt351", "nt40", "win95")


class TestInjectionHelpers:
    def test_inject_keystroke_settles(self, nt40):
        from repro.apps import NotepadApp

        app = NotepadApp(nt40)
        app.start(foreground=True)
        nt40.run_for(5_000_000)
        inject_keystroke(nt40, "a")
        # Handled before the helper returned: both WM_KEYDOWN and
        # WM_CHAR incremented the counter.
        assert app.keystrokes == 2

    def test_inject_click_settles(self, nt40):
        from repro.apps import ShellApp

        app = ShellApp(nt40)
        app.start(foreground=True)
        nt40.run_for(5_000_000)
        inject_click(nt40, hold_ms=20.0)
        assert app.events_handled >= 1  # down handled; up may trail the hold
        nt40.run_for(100_000_000)
        assert app.events_handled == 2

    def test_post_command_settles(self, nt40):
        from repro.apps import ShellApp

        app = ShellApp(nt40)
        app.start(foreground=True)
        nt40.run_for(5_000_000)
        post_command(nt40, "maximize")
        assert app.maximizes_completed == 1


def _word():
    from repro.experiments.word_runs import word_session

    return word_session("nt351", "mstest", chars=80, seed=0)


def _powerpoint():
    from repro.experiments.ppt_runs import powerpoint_session

    return powerpoint_session("nt40", seed=0)


_CAPTURES = {"word_session": _word, "powerpoint_session": _powerpoint}


@pytest.fixture
def kernels(monkeypatch):
    """Every kernel booted during the test: a weak reference to it and
    its fast-forward setting."""
    from repro.winsys.kernel import Kernel

    booted = []
    init = Kernel.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        booted.append((weakref.ref(self), self.fast_forward))

    monkeypatch.setattr(Kernel, "__init__", spy)
    return booted


class TestSharedRunCaches:
    def test_word_runs_cached_per_key(self):
        from repro.experiments.word_runs import word_session

        a = word_session("nt351", "mstest", chars=80, seed=0)
        b = word_session("nt351", "mstest", chars=80, seed=0)
        assert a is b  # same object: cache hit

    def test_word_runs_distinct_keys(self):
        from repro.experiments.word_runs import word_session

        a = word_session("nt351", "mstest", chars=80, seed=0)
        b = word_session("nt351", "typist", chars=80, seed=0)
        assert a is not b

    @pytest.mark.parametrize("capture", sorted(_CAPTURES))
    def test_observed_scope_captures_its_own_run(self, capture):
        from repro.obs.runtime import observed

        run = _CAPTURES[capture]
        plain = run()
        with observed(trace=True, metrics=True) as session:
            watched = run()
        assert watched is not plain
        # Its own boot: the scope's trace and stages see the run.
        assert len(session.envelope_recorders) == 1
        # The observed run was not stored either.
        assert run() is plain

    @pytest.mark.parametrize("capture", sorted(_CAPTURES))
    def test_slow_path_never_reuses_a_fast_capture(self, capture, kernels):
        from repro.core.serialize import profile_to_dict
        from repro.sim.engine import fast_forward_scope

        run = _CAPTURES[capture]
        fast = run()
        del kernels[:]
        with fast_forward_scope(False):
            slow = run()
        assert slow is not fast
        assert [fast_forward for _, fast_forward in kernels] == [False]
        # The slow path is the fast path's oracle: the same run.
        assert profile_to_dict(slow.profile) == profile_to_dict(fast.profile)
        assert slow.elapsed_ns == fast.elapsed_ns
        assert (
            slow.extraction.background.total_latency_ns
            == fast.extraction.background.total_latency_ns
        )

    def test_kept_runs_hold_no_booted_system(self, kernels, monkeypatch):
        from repro.apps import NotepadApp
        from repro.core.compare import run_comparison
        from repro.experiments import word_runs
        from repro.workload.script import InputScript, Key

        monkeypatch.setattr(word_runs, "_cache", {})
        run = word_runs.word_session("nt351", "mstest", chars=20, seed=0)
        comparison = run_comparison(
            "tiny",
            ("nt351", "nt40"),
            NotepadApp,
            InputScript([Key(c, pause_ms=120.0) for c in "hi"]),
            run_kwargs=dict(max_seconds=60),
        )
        gc.collect()
        assert len(kernels) == 3
        assert [kernel() for kernel, _ in kernels] == [None] * 3
        # What was kept still answers every analysis.
        assert word_runs._cache and len(run.profile) > 0
        assert [len(comparison.profile(o)) for o in ("nt351", "nt40")] == [2, 2]
