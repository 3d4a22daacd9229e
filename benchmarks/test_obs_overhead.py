"""Gate: the observability layer is pay-for-use (<5% when not in use).

Hooks bind by subscription: at boot, each hook site is bound to the
consumers that read it (a live tracer, a live metrics registry, the
envelope recorder), and a site that none of them reads stays ``None``.
So with no session open and in a session with trace and metrics off
and envelopes off alike, every hook site costs one ``is None`` check
and nothing dispatches into a no-op sink.  This test times the session
case, which also pays the per-boot set-up (the instrumentation object
and its registrations on the null sinks), against an uninstrumented
run, and bounds it within 5%.  That no sink method runs at all per
event is checked exactly, not by timing, in
``tests/test_obs_binding.py``.

Timing discipline: interleaved rounds, best-of-N minimums (the minimum
is the least noisy location statistic for wall time), plus a small
absolute epsilon so a sub-100ms workload cannot fail on scheduler
jitter alone.

Run via ``make obs-overhead`` (or ``pytest benchmarks/test_obs_overhead.py``);
not part of the default unit-test collection.
"""

from __future__ import annotations

import time

from repro.experiments.registry import run_experiment
from repro.obs import observed

#: Medium-size workload: kernel-heavy (three OS boots, message pumps,
#: interrupts) but fast enough for interleaved best-of-N timing.
EXPERIMENT = "fig2"
ROUNDS = 5
MAX_RELATIVE_OVERHEAD = 0.05
EPSILON_S = 0.010  # absolute slack for timer/scheduler noise


def _time_once(instrumented: bool) -> float:
    started = time.perf_counter()
    if instrumented:
        # trace=False, metrics=False, envelopes off: a session whose
        # boots bind no hook site.  Stage envelopes (on by default
        # under a session) have their own gate in
        # test_envelope_overhead.py.
        with observed(trace=False, metrics=False, envelopes={"enabled": False}):
            run_experiment(EXPERIMENT, seed=0)
    else:
        run_experiment(EXPERIMENT, seed=0)
    return time.perf_counter() - started


def test_disabled_obs_overhead_under_5_percent():
    _time_once(False)  # warm imports, caches, allocator
    baseline: list = []
    nullhook: list = []
    for _ in range(ROUNDS):
        baseline.append(_time_once(False))
        nullhook.append(_time_once(True))
    best_base = min(baseline)
    best_null = min(nullhook)
    budget = best_base * (1.0 + MAX_RELATIVE_OVERHEAD) + EPSILON_S
    assert best_null <= budget, (
        f"null-hook run {best_null:.4f}s exceeds budget {budget:.4f}s "
        f"(baseline {best_base:.4f}s, rounds={ROUNDS})"
    )
