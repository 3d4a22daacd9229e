"""Stage envelopes: conservation, determinism, sampling, attribution.

The envelope layer's contract (see ``docs/stage-envelopes.md``):

* **Conservation** — per-event stage durations are charged by moving a
  single cursor, so they sum *exactly* (integer nanoseconds) to the
  measured wait, for every event, always.
* **Determinism-neutrality** — envelopes read the clock and draw
  sampling decisions from a dedicated forked RNG stream, so payloads,
  golden digests and the non-stage portion of traces are byte-identical
  with envelopes on, off, or sampled at any rate.
* **Mergeability** — bottleneck attribution is built on the fleet's
  commutative quantile sketches, so merged digests are independent of
  merge order and shard shape.
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.notepad import NotepadApp
from repro.core.serialize import experiment_to_dict
from repro.experiments.registry import run_experiment
from repro.obs import (
    STAGES,
    EnvelopeConfig,
    StageAttribution,
    chrome_trace,
    dominant_stage_of,
    observed,
    validate_chrome_trace,
)
from repro.sim.engine import fast_forward_scope
from repro.sim.timebase import ns_from_ms
from repro.verify.golden import GOLDEN_SET, payload_digest
from repro.winsys import boot


def _typed_recorders(
    os_name="nt40", text="hello", seed=0, envelopes=None, trace=False
):
    """Boot, type ``text`` into Notepad, return (session, recorders)."""
    with observed(
        trace=trace, metrics=False, envelopes=envelopes
    ) as session:
        system = boot(os_name, seed=seed)
        app = NotepadApp(system)
        app.start(foreground=True)
        system.run_for(ns_from_ms(150))
        for char in text:
            system.machine.keyboard.keystroke(char)
            system.run_for(ns_from_ms(140))
        system.run_for(ns_from_ms(300))
    return session, session.envelope_recorders


def _completed(recorders):
    return [e for recorder in recorders for e in recorder.completed]


# ---------------------------------------------------------------------------
# Conservation
# ---------------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(
    text=st.text(alphabet="abcdefgh", min_size=1, max_size=5),
    seed=st.integers(min_value=0, max_value=3),
    os_name=st.sampled_from(["nt351", "nt40", "win95"]),
)
def test_stage_durations_sum_exactly_to_wait(text, seed, os_name):
    _, recorders = _typed_recorders(os_name=os_name, text=text, seed=seed)
    envelopes = _completed(recorders)
    assert envelopes, "typing must produce completed envelopes"
    for envelope in envelopes:
        assert sum(envelope.stage_ns.values()) == (
            envelope.done_ns - envelope.inject_ns
        ), f"conservation violated for {envelope.to_dict()}"
        assert all(duration >= 0 for duration in envelope.stage_ns.values())
        assert set(envelope.stage_ns) <= set(STAGES)


def test_remote_envelopes_conserve_and_carry_network_stage():
    from repro.remote import LinkConfig, RemoteSession, TransportConfig

    with observed(trace=False, metrics=False) as session:
        system = boot("nt40", seed=0)
        link = LinkConfig.symmetric("test", rtt_ms=40.0, jitter_ms=5.0, loss=0.05)
        remote = RemoteSession(
            system, link, transport=TransportConfig(prediction=False)
        )
        remote.run(chars=6, cadence_ms=130.0)
    envelopes = [
        e for e in _completed(session.envelope_recorders) if e.kind == "remote"
    ]
    assert envelopes
    for envelope in envelopes:
        assert sum(envelope.stage_ns.values()) == (
            envelope.done_ns - envelope.inject_ns
        )
    assert any("network" in e.stage_ns for e in envelopes)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------
def _envelope_bytes(**kwargs):
    _, recorders = _typed_recorders(**kwargs)
    return json.dumps(
        [e.to_dict() for e in _completed(recorders)], sort_keys=True
    ).encode()


def test_envelopes_byte_identical_with_fast_forward_on_and_off():
    with fast_forward_scope(True):
        fast = _envelope_bytes()
    with fast_forward_scope(False):
        slow = _envelope_bytes()
    assert fast == slow


@pytest.mark.parametrize("rate", [0.0, 0.3, 1.0])
def test_sampling_rate_leaves_golden_digest_unchanged(rate):
    experiment_id, seed = GOLDEN_SET[0]
    plain = payload_digest(
        experiment_to_dict(run_experiment(experiment_id, seed=seed))
    )
    with observed(
        trace=True, metrics=True, envelopes={"sample_rate": rate}
    ):
        sampled = payload_digest(
            experiment_to_dict(run_experiment(experiment_id, seed=seed))
        )
    assert sampled == plain


def test_sampling_only_changes_stage_trace_events():
    """The non-stage portion of a trace is identical at any rate.

    Traces deliberately embed real wall-clock (``wall_ns``) and a
    process-global thread counter for diagnostics, so the comparison
    normalizes those away and keys events by track *name*: everything
    the simulation determines must match event for event.
    """

    def _non_stage_events(rate):
        session, _ = _typed_recorders(
            text="abc", trace=True, envelopes={"sample_rate": rate}
        )
        events = chrome_trace(session.tracer)["traceEvents"]
        tracks = {
            (event["pid"], event["tid"]): re.sub(
                r" \[t\d+\]$", "", str(event["args"]["name"])
            )
            for event in events
            if event.get("name") == "thread_name"
        }
        normalized = []
        for event in events:
            if event.get("ph") == "M":
                continue
            track = tracks.get((event["pid"], event["tid"]), "")
            if event.get("cat") == "stage" or track.startswith("stage:"):
                continue
            args = {
                key: value
                for key, value in (event.get("args") or {}).items()
                if key not in ("wall_ns", "tid")
            }
            normalized.append(
                {
                    "pid": event["pid"],
                    "track": track,
                    "ts": event["ts"],
                    "name": event["name"],
                    "ph": event.get("ph"),
                    "cat": event.get("cat"),
                    "args": args,
                }
            )
        return normalized

    assert _non_stage_events(1.0) == _non_stage_events(0.0)


def test_sampling_rate_zero_records_no_envelopes():
    _, recorders = _typed_recorders(envelopes={"sample_rate": 0.0})
    assert not _completed(recorders)
    assert all(r.started == 0 for r in recorders)
    assert sum(r.sampled_out for r in recorders) > 0


# ---------------------------------------------------------------------------
# Trace integration
# ---------------------------------------------------------------------------
def test_stage_tracks_validate_as_chrome_trace():
    session, recorders = _typed_recorders(trace=True)
    assert _completed(recorders)
    document = chrome_trace(session.tracer)
    assert validate_chrome_trace(document) == []
    stage_tracks = {
        event["args"]["name"]
        for event in document["traceEvents"]
        if event.get("name") == "thread_name"
        and str(event.get("args", {}).get("name", "")).startswith("stage:")
    }
    assert {"stage:input", "stage:queue", "stage:handler"} <= stage_tracks


# ---------------------------------------------------------------------------
# Attribution
# ---------------------------------------------------------------------------
def test_attribution_merge_is_commutative():
    _, recorders_a = _typed_recorders(os_name="nt40", text="abcd")
    _, recorders_b = _typed_recorders(os_name="win95", text="xyz")
    ab = StageAttribution()
    ab.merge(recorders_a[0].attribution)
    ab.merge(recorders_b[0].attribution)
    ba = StageAttribution()
    ba.merge(recorders_b[0].attribution)
    ba.merge(recorders_a[0].attribution)
    assert ab.digest() == ba.digest()
    roundtrip = StageAttribution.from_dict(ab.to_dict())
    assert roundtrip.digest() == ab.digest()
    assert ab.dominant_stage() in STAGES
    assert dominant_stage_of(ab.to_dict()) == ab.dominant_stage()


def test_fleet_envelope_digest_is_shard_shape_independent():
    from repro.fleet.population import PopulationConfig, SessionPopulation
    from repro.fleet.session import run_session
    from repro.fleet.sketch import FleetAggregator

    population = SessionPopulation(PopulationConfig(size=4, seed=0))
    results = [run_session(population.spec(i)) for i in range(4)]
    assert any(r.envelopes for r in results)

    direct = FleetAggregator()
    for result in results:
        direct.add_session(result)
    shard_a, shard_b = FleetAggregator(), FleetAggregator()
    for i, result in enumerate(results):
        (shard_a if i % 2 else shard_b).add_session(result)
    merged = shard_b.merge(shard_a)
    assert merged.digest() == direct.digest()
    rebuilt = FleetAggregator.from_dict(direct.to_dict())
    assert rebuilt.digest() == direct.digest()
    key = direct.group_keys()[0]
    assert direct.dominant_stage(*key) in STAGES


# ---------------------------------------------------------------------------
# Budgets and config
# ---------------------------------------------------------------------------
def test_budget_alerts_fire_and_carry_context():
    session, recorders = _typed_recorders(
        envelopes={"budgets_ms": {"handler": 0.001}}
    )
    alerts = session.stage_alerts()
    assert alerts
    alert = alerts[0]
    assert alert["stage"] == "handler"
    assert alert["budget_ms"] == 0.001
    assert alert["actual_ms"] > alert["budget_ms"]
    assert alert["os"] == "nt40"
    snapshot = session.stage_snapshot()
    assert snapshot["alerts"] == alerts
    assert snapshot["completed"] > 0


def test_envelope_config_coercion():
    assert EnvelopeConfig.coerce(None).enabled
    config = EnvelopeConfig.coerce(
        {"sample_rate": 0.5, "budgets_ms": {"render": 2}}
    )
    assert config.sample_rate == 0.5
    assert config.budgets_ms == {"render": 2.0}
    assert EnvelopeConfig.coerce(config) is config
    disabled = EnvelopeConfig.coerce({"enabled": False})
    assert not disabled.enabled


def test_disabled_envelopes_attach_no_recorder():
    session, recorders = _typed_recorders(envelopes={"enabled": False})
    assert recorders == []
    assert session.stage_snapshot() is None


# ---------------------------------------------------------------------------
# Stats rendering
# ---------------------------------------------------------------------------
def _minimal_manifest(obs=None):
    return {
        "kind": "run-manifest",
        "experiments": [
            {
                "id": "fig1",
                "seed": 0,
                "wall_s": 1.0,
                "cache_hit": False,
                "failed_checks": [],
                "error": None,
            }
        ],
        "jobs": 1,
        "code_version": "test",
        "obs": obs or {},
    }


def test_stats_degrades_gracefully_on_pre_envelope_manifest():
    from repro.experiments.stats import render_stats

    rendered = render_stats(_minimal_manifest())
    assert "stage breakdown" not in rendered


def test_stats_renders_stage_breakdown_and_alerts():
    from repro.experiments.stats import render_stats

    session, _ = _typed_recorders(envelopes={"budgets_ms": {"handler": 0.001}})
    snapshot = session.stage_snapshot()
    stages = snapshot["attribution"]
    stages["alerts_suppressed"] = snapshot["alerts_suppressed"]
    rendered = render_stats(
        _minimal_manifest(
            obs={"stages": stages, "stage_alerts": snapshot["alerts"]}
        )
    )
    assert "stage breakdown" in rendered
    assert "stage budget alerts" in rendered
    assert "handler" in rendered
