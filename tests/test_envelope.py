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

import hashlib
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.notepad import NotepadApp
import repro.obs.envelope as envelope_module
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
from repro.verify.golden import GOLDEN_SET, check_golden
from repro.winsys import boot


def _typed_recorders(
    os_name="nt40", text="hello", seed=0, envelopes=None, trace=False,
    metrics=False,
):
    """Boot, type ``text`` into Notepad, return (session, recorders)."""
    with observed(
        trace=trace, metrics=metrics, envelopes=envelopes
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


def _remote_session():
    from repro.remote import LinkConfig, RemoteSession, TransportConfig

    system = boot("nt40", seed=0)
    link = LinkConfig.symmetric("test", rtt_ms=40.0, jitter_ms=5.0, loss=0.05)
    RemoteSession(
        system, link, transport=TransportConfig(prediction=False)
    ).run(chars=6, cadence_ms=130.0)


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
    with observed(trace=False, metrics=False) as session:
        _remote_session()
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
def _envelope_bytes(run=None, trace=False, metrics=False, **kwargs):
    """The completed envelopes and stage sketches of one run, as bytes.

    ``run`` drives its own boots inside a session with the given sinks;
    by default ``_typed_recorders(**kwargs)`` types into Notepad."""
    if run is None:
        _, recorders = _typed_recorders(trace=trace, metrics=metrics, **kwargs)
    else:
        with observed(trace=trace, metrics=metrics) as session:
            run()
        recorders = session.envelope_recorders
    envelopes = [e.to_dict() for e in _completed(recorders)]
    assert envelopes
    sketches = [
        {
            stage: sketch.to_dict()
            for stage, sketch in recorder.attribution.stage_sketches().items()
        }
        for recorder in recorders
    ]
    return json.dumps([envelopes, sketches], sort_keys=True).encode()


def _autosaving_editor():
    """A fleet editor session (autosave every 4 keys) in the caller's
    session, so its sync I/O overlaps handler stages."""
    from repro.fleet.population import SessionSpec
    from repro.fleet.session import _run_local_session

    spec = SessionSpec(
        index=0,
        seed=11,
        os_name="nt40",
        profile="editor",
        scenario=None,
        wpm=40.0,
        jitter=0.2,
        think_mean_s=1.0,
        chars=10,
    )
    _run_local_session(spec)


#: The recorder's five subjects: Notepad typing on each OS, a remote
#: session over a lossy link, and a fleet editor whose autosave I/O
#: overlaps handler stages.
CASES = {
    "nt351": {"os_name": "nt351"},
    "nt40": {"os_name": "nt40"},
    "win95": {"os_name": "win95"},
    "remote": {"run": _remote_session},
    "editor": {"run": _autosaving_editor},
}


@pytest.mark.parametrize("name", list(CASES))
def test_recorder_sees_the_same_crossings_whoever_else_listens(name):
    """The recorder and a live tracer and registry each subscribe to the
    queue, sync-I/O and handler-close sites; neither changes what the
    recorder sees, and what it sees matches the pinned digest."""
    case = CASES[name]
    alone = _envelope_bytes(**case)
    assert _digest(alone) == PINNED_ENVELOPE_BYTES[name]
    assert _envelope_bytes(trace=True, metrics=True, **case) == alone
    if name == "editor":
        assert any(e["io_ns"] > 0 for e in json.loads(alone)[0])


# ---------------------------------------------------------------------------
# Pinned outputs: the recorder's completed envelopes, stage sketches and
# snapshots, as sha256 prefixes of their canonical JSON.
# ---------------------------------------------------------------------------
def _digest(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:16]


PINNED_ENVELOPE_BYTES = {
    "nt351": "29d052ab074346f2",
    "nt40": "000846fc70a82c2a",
    "win95": "531ed7f554932dcd",
    "remote": "7a810265a697554d",
    "editor": "fdad2b7fb879d545",
}
#: fig1 at seed 0 under a 0.1 ms handler budget: the per-group
#: attribution with its wait sketches, the alerts and the counters.
PINNED_FIG1_SNAPSHOT = "2c957c6a494a764d"
#: Notepad on NT 4.0 at sample rate 0.3 (10 of 38 inputs kept):
#: envelopes and sketches, then the snapshot with its sampled-out count.
PINNED_SAMPLED = ("3b4b11ee78c344d1", "ebc082691cc14673")


def test_fig1_stage_snapshot_matches_pinned_digest():
    with observed(
        trace=False, metrics=False, envelopes={"budgets_ms": {"handler": 0.1}}
    ) as session:
        run_experiment("fig1", seed=0)
    snapshot = session.stage_snapshot()
    assert snapshot["alerts"] and snapshot["attribution"]["groups"]
    assert _digest(snapshot) == PINNED_FIG1_SNAPSHOT


def test_sampled_run_matches_pinned_digests():
    run = {"text": "the quick brown fox", "envelopes": {"sample_rate": 0.3}}
    session, _ = _typed_recorders(**run)
    snapshot = session.stage_snapshot()
    assert snapshot["started"] and snapshot["sampled_out"]
    assert (_digest(_envelope_bytes(**run)), _digest(snapshot)) == PINNED_SAMPLED


# ---------------------------------------------------------------------------
# The recorder's three bounds, each with its cap made small
# ---------------------------------------------------------------------------
def test_undelivered_inputs_are_evicted_as_abandoned(monkeypatch):
    """Keystrokes into a system with no foreground thread are never
    delivered; past the pending cap the oldest is finalized."""
    monkeypatch.setattr(envelope_module, "_PENDING_CAP", 3)
    with observed(trace=False, metrics=False) as session:
        system = boot("nt40", seed=0)
        system.run_for(ns_from_ms(50))
        for char in "abcd":
            system.machine.keyboard.keystroke(char)
            system.run_for(ns_from_ms(100))
    (recorder,) = session.envelope_recorders
    assert recorder.started == 8
    assert recorder.finished == 8 - 3
    completed = recorder.completed
    assert [e.outcome for e in completed] == ["abandoned"] * 5
    assert [e.seq for e in completed] == [0, 1, 2, 3, 4]
    for envelope in completed:
        # Dispatched by the ISR, then never picked up by a thread.
        assert list(envelope.stage_ns) == ["input", "dispatch"]
        assert sum(envelope.stage_ns.values()) == (
            envelope.done_ns - envelope.inject_ns
        )
    assert session.stage_snapshot()["completed"] == 5


def test_completed_keeps_the_first_envelopes(monkeypatch):
    _, (full,) = _typed_recorders()
    monkeypatch.setattr(envelope_module, "_COMPLETED_CAP", 3)
    session, (capped,) = _typed_recorders()
    assert full.finished == capped.finished > 3
    assert [e.to_dict() for e in capped.completed] == [
        e.to_dict() for e in full.completed[:3]
    ]
    # Sketches and counters still count every finalized envelope.
    sketches = capped.attribution.stage_sketches()
    assert sketches["input"].count == capped.finished
    assert session.stage_snapshot()["completed"] == capped.finished
    assert _digest(
        {s: k.to_dict() for s, k in sketches.items()}
    ) == _digest(
        {s: k.to_dict() for s, k in full.attribution.stage_sketches().items()}
    )


def test_alerts_keep_the_first_and_count_the_rest(monkeypatch):
    envelopes = {"budgets_ms": {"handler": 0.001}}
    _, (full,) = _typed_recorders(envelopes=envelopes)
    monkeypatch.setattr(envelope_module, "_ALERT_CAP", 2)
    _, (capped,) = _typed_recorders(envelopes=envelopes)
    assert len(full.alerts) > 2 and full.alerts_suppressed == 0
    assert capped.alerts == full.alerts[:2]
    assert capped.alerts_suppressed == len(full.alerts) - 2


def test_envelopes_byte_identical_with_fast_forward_on_and_off():
    with fast_forward_scope(True):
        fast = _envelope_bytes()
    with fast_forward_scope(False):
        slow = _envelope_bytes()
    assert fast == slow


@pytest.mark.parametrize("rate", [0.0, 0.3, 1.0])
def test_sampling_rate_leaves_golden_digest_unchanged(rate):
    """Every golden pair — sampled NIC envelopes (``ext-network``) and
    remote envelopes (``ext-remote``) included — still matches its
    committed digest when run under a sampled session."""
    with observed(
        trace=True, metrics=True, envelopes={"sample_rate": rate}
    ):
        results = check_golden(GOLDEN_SET)
    assert {r["experiment_id"]: r["status"] for r in results} == {
        experiment_id: "matched" for experiment_id, _ in GOLDEN_SET
    }


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
    snapshot = session.stage_snapshot()
    alerts = snapshot["alerts"]
    assert alerts
    alert = alerts[0]
    assert alert["stage"] == "handler"
    assert alert["budget_ms"] == 0.001
    assert alert["actual_ms"] > alert["budget_ms"]
    assert alert["os"] == "nt40"
    assert alerts == [a for r in recorders for a in r.alerts]
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


@pytest.mark.parametrize(
    "envelopes",
    [
        {"budgets_ms": {"handlr": 0.001}},
        {"budgets_ms": {"handler": 0}},
        {"budgets_ms": {"handler": -1.0}},
        {"budgets_ms": {"handler": float("inf")}},
        {"budgets_ms": {"handler": float("nan")}},
        {"sample_rate": 1.5},
        {"sample_rate": -0.1},
        {"sample_rate": float("nan")},
    ],
    ids=[
        "unknown-stage", "zero-budget", "negative-budget", "inf-budget",
        "nan-budget", "rate-above-1", "negative-rate", "nan-rate",
    ],
)
def test_bad_envelope_config_is_rejected_where_it_is_made(envelopes):
    with pytest.raises(ValueError):
        EnvelopeConfig.coerce(envelopes)
    with pytest.raises(ValueError):
        with observed(trace=False, metrics=False, envelopes=envelopes):
            pass


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
