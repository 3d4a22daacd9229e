"""Hooks bind by subscription.

At boot, each hook site is bound to the consumers that read it: the
live tracer, the live metrics registry and the envelope recorder.  A
site that none of them reads stays ``None``, so a session with trace and
metrics off calls no tracer or metric method and builds no API-call
record; a session with a live registry still counts every hook, which
the counters' totals against the simulator's own tallies show.
"""

from collections import Counter

import pytest

from repro.fleet.population import SessionSpec
from repro.fleet.session import _run_local_session, run_session
from repro.obs import instrument, observed
from repro.obs.metrics import NullMetric
from repro.obs.tracer import NullTracer
from repro.remote import LinkConfig, RemoteSession, TransportConfig
from repro.winsys import boot
from repro.winsys.hooks import HookManager

from .test_obs_scope import _spec

#: Per-event methods of the null sinks.  Boot-time registration
#: (``register_process``, ``register_thread``, ``registry.counter``) is a
#: constant per boot and not counted.
NULL_SINK_METHODS = [
    (NullTracer, ("begin", "end", "instant")),
    (NullMetric, ("inc", "set", "set_max", "add", "observe")),
]


@pytest.fixture
def calls(monkeypatch):
    """Counts of null-sink calls (``sink``) and ``HookManager.fire``."""
    counts = Counter()

    def spy(owner, name, key):
        method = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return method(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, names in NULL_SINK_METHODS:
        for name in names:
            spy(owner, name, "sink")
    spy(HookManager, "fire", "fire")
    return counts


@pytest.mark.parametrize("remote", [False, True], ids=["local", "remote"])
def test_a_session_with_no_live_sink_calls_no_sink(calls, remote):
    result = run_session(_spec(remote))
    assert result.envelope_events > 0, "the recorder still reads its sites"
    assert calls["sink"] == 0
    if remote:
        # A local session's message-API monitor is a real reader.
        assert calls["fire"] == 0


def test_unread_sites_stay_none():
    with observed(trace=False, metrics=False, envelopes={"enabled": False}):
        system = boot("nt40")
    kernel = system.kernel
    assert system.machine.interrupts.obs is None
    assert kernel.obs is None
    assert kernel.envelopes is None
    assert kernel.hooks.active == 0


def test_envelope_only_sites_bind_the_recorder_alone():
    with observed(trace=False, metrics=False) as session:
        system = boot("nt40")
    (recorder,) = session.envelope_recorders
    kernel = system.kernel
    assert system.obs.envelopes is recorder
    assert kernel.envelopes is recorder
    assert kernel.obs is None
    assert system.machine.interrupts.obs == recorder.input_injected
    assert kernel.hooks.active == 0


# ---------------------------------------------------------------------------
# With a live registry, every hook still fires
# ---------------------------------------------------------------------------
@pytest.fixture
def booted(monkeypatch):
    """Every system instrumented while the fixture is active."""
    systems = []
    bind = instrument.instrument_system

    def keep(system, os_name, session):
        systems.append(system)
        return bind(system, os_name, session)

    monkeypatch.setattr(instrument, "instrument_system", keep)
    return systems


def _fig1():
    from repro.experiments.registry import run_experiment

    run_experiment("fig1", seed=0)


def _remote():
    system = boot("nt40", seed=0)
    link = LinkConfig.symmetric("t", rtt_ms=40.0, jitter_ms=5.0, loss=0.1)
    RemoteSession(
        system, link, transport=TransportConfig(prediction=True)
    ).run(chars=8, cadence_ms=130.0)


def _faulted_local():
    spec = SessionSpec(
        index=0,
        seed=11,
        os_name="win95",
        profile="editor",
        scenario="irq-storm",
        wpm=40.0,
        jitter=0.2,
        think_mean_s=1.0,
        chars=10,
    )
    assert _run_local_session(spec).faults_injected > 0


def _total(snapshot, name):
    return sum(sample["value"] for sample in snapshot["counters"][name]["samples"])


@pytest.mark.parametrize(
    "run", [_fig1, _remote, _faulted_local], ids=["fig1", "remote", "faulted-local"]
)
def test_live_registry_counts_every_hook(booted, run):
    with observed(trace=True, metrics=True) as session:
        run()
        snapshot = session.metrics_snapshot()
    assert booted
    machines = [system.machine for system in booted]
    kernels = [system.kernel for system in booted]
    tallies = {
        "repro_sim_interrupts_total": sum(
            sum(m.interrupts.delivered.values()) + sum(m.interrupts.spurious.values())
            for m in machines
        ),
        "repro_sim_dpcs_total": sum(k.dpcs_run for k in kernels),
        "repro_sim_api_calls_total": sum(k.hooks.calls_seen for k in kernels),
        "repro_sim_context_switches_total": sum(k.context_switches for k in kernels),
        "repro_sim_threads_created_total": sum(len(k.threads) for k in kernels),
        "repro_stage_envelopes_total": sum(
            r.finished for r in session.envelope_recorders
        ),
        "repro_sim_fast_forward_batches_total": sum(
            k.fast_forward_batches for k in kernels
        ),
    }
    assert tallies["repro_sim_interrupts_total"] > 0
    assert tallies["repro_sim_api_calls_total"] > 0
    assert tallies["repro_stage_envelopes_total"] > 0
    totals = {name: _total(snapshot, name) for name in tallies}
    assert totals == tallies
