"""The observability session is a scoped value.

``observed()`` sets the session for its block and hands the enclosing
scope's session back on exit, and every fleet session runs in a private
scope of its own.  So a session's result depends on its spec alone,
whoever is watching, and a fleet never feeds its caller's trace,
metrics or stage roll-up, at any shard count.
"""

import pytest

from repro.experiments.parallel import run_specs
from repro.fleet.population import (
    APP_PROFILES,
    PopulationConfig,
    SessionPopulation,
)
from repro.fleet.session import run_session
from repro.fleet.shards import run_fleet
from repro.obs import observed
from repro.obs.runtime import current
from repro.winsys import boot

#: Caller sessions a fleet session must not notice.
CALLER_SCOPES = [
    {"trace": False, "metrics": False, "envelopes": {"sample_rate": 0.3}},
    {"trace": False, "metrics": False, "envelopes": {"enabled": False}},
    {"trace": True, "metrics": True},
]


def _spec(remote: bool):
    population = SessionPopulation(PopulationConfig(seed=3, size=40))
    return next(
        spec
        for spec in map(population.spec, range(40))
        if bool(APP_PROFILES[spec.profile].get("remote")) == remote
    )


@pytest.mark.parametrize("remote", [False, True], ids=["local", "remote"])
def test_session_result_ignores_the_callers_session(remote):
    spec = _spec(remote)
    bare = run_session(spec).to_dict()
    assert bare["envelopes"], "the session's own scope records envelopes"
    for scope in CALLER_SCOPES:
        with observed(**scope):
            assert run_session(spec).to_dict() == bare, scope


@pytest.mark.parametrize("shards", [1, 2])
def test_fleet_under_a_callers_session_is_unchanged_and_unseen(shards):
    config = PopulationConfig(seed=0, size=8, profile_mix={"editor": 1})
    bare = run_fleet(config, shards=1, batch_size=4, cache=None).digest
    with observed(
        trace=True, metrics=True, envelopes={"sample_rate": 0.5}
    ) as session:
        fleet = run_fleet(config, shards=shards, batch_size=4, cache=None)
    assert fleet.digest == bare
    assert len(session.tracer) == 0
    counters = session.metrics_snapshot()["counters"]
    assert not [name for name in counters if name.startswith("repro_sim_")]
    assert session.stage_snapshot() is None


def test_scopes_nest_and_restore_the_enclosing_session():
    with observed() as outer:
        with observed() as inner:
            assert current() is inner
        assert current() is outer
        (job,) = run_specs(
            [("fig1", 0)],
            jobs=1,
            cache=None,
            obs={"trace": True, "metrics": False},
        )
        assert job.error is None and job.trace is not None
        assert current() is outer
        assert len(outer.tracer) == 0, "the job traced into its own session"
        assert boot("nt40").obs is not None
    assert current() is None
