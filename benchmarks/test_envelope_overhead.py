"""Gate: stage envelopes extend the <5% budget to the envelope-off path.

``test_obs_overhead.py`` bounds the cost of the observability layer
with everything off.  Stage envelopes add a second switch: a session
may be open (traces, metrics) with envelope stamping disabled
(``envelopes={"enabled": False}``), and that path must also stay
within 5% of an uninstrumented run — turning the breakdown off has to
actually buy the cost back.

The benchmark times the envelope-off session (so ``make bench-json``
tracks its median like any other benchmark) and records two ratios in
``extra_info``:

* ``envelope_off_overhead`` — envelope-off session / uninstrumented,
  the gated ratio (perfgate enforces an absolute ceiling on it in
  addition to the usual baseline tolerance).  The same absolute
  epsilon the assertion grants is subtracted first, so a sub-100ms
  workload cannot trip the ratio ceiling on scheduler jitter alone;
* ``envelope_on_overhead`` — full stamping at sample rate 1.0 /
  uninstrumented, informational (the enabled path is allowed to cost
  more; it exists so the price of "always on" stays visible).

``test_remote_envelope_on_overhead`` records one more informational
ratio, ``remote_envelope_on_overhead``: a remote session over a lossy
link in an envelope-only session / the same run with no session.  Every
downstream frame is a NIC interrupt that opens an envelope, so this is
the path where stamping costs most.

Run via ``make bench-json`` / ``make envelope-smoke``; not part of the
default unit-test collection.
"""

from __future__ import annotations

import time

from repro.experiments.registry import run_experiment
from repro.obs import observed
from repro.remote import LinkConfig, TransportConfig, run_remote_session

EXPERIMENT = "fig2"
ROUNDS = 5
MAX_RELATIVE_OVERHEAD = 0.05
EPSILON_S = 0.010  # absolute slack for timer/scheduler noise


def _time_once(envelopes) -> float:
    started = time.perf_counter()
    if envelopes is None:
        run_experiment(EXPERIMENT, seed=0)
    else:
        with observed(trace=False, metrics=False, envelopes=envelopes):
            run_experiment(EXPERIMENT, seed=0)
    return time.perf_counter() - started


def test_envelope_off_overhead(benchmark):
    _time_once(None)  # warm imports, caches, allocator
    baseline: list = []
    disabled: list = []
    enabled: list = []
    for _ in range(ROUNDS):
        baseline.append(_time_once(None))
        disabled.append(_time_once({"enabled": False}))
        enabled.append(_time_once({"sample_rate": 1.0}))
    best_base = min(baseline)
    best_off = min(disabled)
    best_on = min(enabled)

    benchmark.pedantic(
        lambda: _time_once({"enabled": False}), rounds=1, iterations=1
    )
    benchmark.extra_info["envelope_off_overhead"] = (
        max(0.0, best_off - EPSILON_S) / best_base
    )
    benchmark.extra_info["envelope_on_overhead"] = best_on / best_base

    budget = best_base * (1.0 + MAX_RELATIVE_OVERHEAD) + EPSILON_S
    assert best_off <= budget, (
        f"envelope-off run {best_off:.4f}s exceeds budget {budget:.4f}s "
        f"(baseline {best_base:.4f}s, rounds={ROUNDS})"
    )


def _time_remote_once(observe: bool) -> float:
    link = LinkConfig.symmetric("wan", rtt_ms=60.0, jitter_ms=3.0, loss=0.08)
    transport = TransportConfig(prediction=False)
    started = time.perf_counter()
    if observe:
        with observed(trace=False, metrics=False):
            run_remote_session("nt40", 0, link, transport=transport)
    else:
        run_remote_session("nt40", 0, link, transport=transport)
    return time.perf_counter() - started


def test_remote_envelope_on_overhead(benchmark):
    _time_remote_once(False)
    baseline: list = []
    enabled: list = []
    for _ in range(ROUNDS):
        baseline.append(_time_remote_once(False))
        enabled.append(_time_remote_once(True))
    benchmark.pedantic(lambda: _time_remote_once(True), rounds=1, iterations=1)
    benchmark.extra_info["remote_envelope_on_overhead"] = (
        min(enabled) / min(baseline)
    )
