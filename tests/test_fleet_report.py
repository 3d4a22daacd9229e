"""Tests for fleet reporting, the ext-fleet experiment and the CLI.

Covers: ``fleet_data``/``capacity_plan``/``render_fleet_report``, the
``manifest_fleet_summary`` record the runner embeds, the
``fleet-report`` CLI verb, and the ``stats`` subcommand's fleet block
(including graceful degradation on pre-fleet manifests).
"""

import json
import math

import pytest

from repro.core.serialize import save_json
from repro.fleet.population import PopulationConfig
from repro.fleet.report import (
    capacity_plan,
    fleet_data,
    fleet_report_main,
    manifest_fleet_summary,
    render_fleet_report,
)
from repro.fleet.shards import run_fleet

CONFIG = PopulationConfig(seed=0, size=10, chars_range=(3, 5))


@pytest.fixture(scope="module")
def fleet():
    return run_fleet(CONFIG, shards=1, batch_size=4)


@pytest.fixture(scope="module")
def fleet_section(fleet):
    return fleet_data(fleet)


def test_fleet_data_is_json_safe_and_complete(fleet, fleet_section):
    round_tripped = json.loads(json.dumps(fleet_section))
    assert round_tripped["provenance"]["merged_digest"] == fleet.digest
    assert round_tripped["provenance"]["sessions"] == CONFIG.size
    assert round_tripped["groups"]
    for group in round_tripped["groups"].values():
        assert {"os", "scenario", "sessions", "wait", "span", "stages"} <= set(
            group
        )
    assert round_tripped["aggregate"]["kind"] == "fleet-aggregate"


def test_capacity_plan_math():
    section = {
        "provenance": {"shards": 2},
        "groups": {
            "nt40/healthy": {
                "sessions": 4,
                "wait": {"p95_ms": 10.0},
                "span": {"p95_ms": 2000.0},
                "stages": {
                    "session_span": {"sum_ms": 8000.0},
                    "keystroke_wait": {"sum_ms": 30.0},
                    "other_event_wait": {"sum_ms": 10.0},
                },
            },
        },
    }
    (row,) = capacity_plan(section, budget_hours=1.0)
    assert row["p95_span_s"] == 2.0
    assert row["sessions_per_shard"] == math.floor(3600 / 2.0)
    assert row["max_concurrent_sessions"] == row["sessions_per_shard"] * 2
    assert row["wait_share"] == pytest.approx(40.0 / 8000.0)
    with pytest.raises(ValueError):
        capacity_plan(section, budget_hours=0)


def test_render_fleet_report(fleet, fleet_section):
    text = render_fleet_report(fleet_section, budget_hours=2.0)
    assert fleet.digest in text
    assert "fleet wait time per event" in text
    assert "sketch rel. err" in text
    assert "capacity plan: 2h shard budget" in text
    assert "commutative-bucket-add" in text


def test_manifest_fleet_summary_is_condensed(fleet, fleet_section):
    summary = manifest_fleet_summary(fleet_section)
    assert "aggregate" not in summary  # raw sketches stay in the archive
    assert summary["merged_digest"] == fleet.digest
    assert summary["sessions"] == CONFIG.size
    for group in summary["groups"].values():
        assert {"sessions", "events", "p50_ms", "p95_ms", "p999_ms"} <= set(
            group
        )


def test_fleet_report_cli_on_payload(tmp_path, capsys, fleet_section):
    payload = tmp_path / "ext-fleet-seed0.json"
    save_json({"id": "ext-fleet", "data": {"fleet": fleet_section}}, payload)
    assert fleet_report_main([str(payload)]) == 0
    out = capsys.readouterr().out
    assert "capacity plan" in out
    assert fleet_section["provenance"]["merged_digest"] in out


def test_fleet_report_cli_on_manifest_dir(tmp_path, capsys, fleet_section):
    save_json(
        {"id": "ext-fleet", "data": {"fleet": fleet_section}},
        tmp_path / "ext-fleet-seed0.json",
    )
    save_json(
        {
            "kind": "run-manifest",
            "experiments": [
                {"id": "ext-fleet", "seed": 0, "saved": "ext-fleet-seed0.json"},
                {"id": "fig1", "seed": 0, "saved": None},
            ],
        },
        tmp_path / "manifest.json",
    )
    assert fleet_report_main([str(tmp_path)]) == 0
    assert "fleet wait time" in capsys.readouterr().out


def test_fleet_report_cli_errors(tmp_path, capsys):
    assert fleet_report_main([str(tmp_path / "missing.json")]) == 2
    empty = tmp_path / "empty.json"
    save_json({"kind": "run-manifest", "experiments": []}, empty)
    assert fleet_report_main([str(empty)]) == 2
    assert fleet_report_main([str(empty), "--budget-hours", "-1"]) == 2


@pytest.mark.parametrize("hours", ["-1", "0", "nan", "inf"])
def test_fleet_report_cli_rejects_budget_hours(tmp_path, capsys, fleet_section, hours):
    payload = tmp_path / "ext-fleet-seed0.json"
    save_json({"id": "ext-fleet", "data": {"fleet": fleet_section}}, payload)
    assert fleet_report_main([str(payload), "--budget-hours", hours]) == 2
    assert "--budget-hours" in capsys.readouterr().err


def test_runner_dispatches_fleet_report_verb(tmp_path, capsys, fleet_section):
    from repro.experiments.runner import main

    payload = tmp_path / "payload.json"
    save_json({"data": {"fleet": fleet_section}}, payload)
    assert main(["fleet-report", str(payload)]) == 0
    assert "capacity plan" in capsys.readouterr().out


def test_entry_from_job_surfaces_fleet_summary(fleet_section):
    from repro.experiments.parallel import JobResult
    from repro.experiments.runner import _entry_from_job

    job = JobResult(
        experiment_id="ext-fleet",
        seed=0,
        payload={"id": "ext-fleet", "data": {"fleet": fleet_section}},
    )
    entry = _entry_from_job(job, saved=None)
    assert entry["fleet"]["merged_digest"] == (
        fleet_section["provenance"]["merged_digest"]
    )
    plain = _entry_from_job(JobResult(experiment_id="fig1", seed=0), None)
    assert "fleet" not in plain


def test_stats_renders_fleet_block(fleet_section):
    from repro.experiments.stats import render_stats

    entry = {
        "id": "ext-fleet",
        "seed": 0,
        "wall_s": 1.0,
        "cache_hit": False,
        "failed_checks": [],
        "error": None,
        "fleet": manifest_fleet_summary(fleet_section),
    }
    manifest = {"experiments": [entry], "jobs": 1, "code_version": "deadbeef"}
    text = render_stats(manifest)
    assert "fleet ext-fleet (seed 0)" in text
    assert fleet_section["provenance"]["merged_digest"] in text
    assert "merged wait-time sketches" in text
    assert "shard utilization" in text


def test_stats_degrades_on_pre_fleet_manifests():
    from repro.experiments.stats import render_stats

    manifest = {
        "experiments": [
            {"id": "fig1", "seed": 0, "wall_s": 1.0, "cache_hit": True,
             "failed_checks": [], "error": None},
        ],
        "jobs": 1,
        "code_version": "deadbeef",
    }
    text = render_stats(manifest)
    assert "fleet" not in text
    assert "fig1" in text


def test_ext_fleet_experiment_checks_pass_small():
    from repro.experiments import run_experiment

    result = run_experiment(
        "ext-fleet", seed=0, sessions=30, shards=1, batch_size=8,
        sub_sessions=16,
    )
    assert not result.failed_checks(), result.failed_checks()
    data = result.data
    assert data["fleet"]["provenance"]["sessions"] == 30
    determinism = data["determinism"]
    assert (
        determinism["natural_digest"]
        == determinism["permuted_digest"]
        == determinism["unbatched_digest"]
    )
    assert all(row["rel_err"] <= row["bound"] + 1e-9 for row in data["accuracy"])
    assert data["capacity"], "capacity plan must not be empty"


def test_ext_fleet_payload_is_a_function_of_code_and_seed():
    """Host wall time travels beside the payload, so two runs of the
    same code and seed archive the same bytes."""
    from repro.core.serialize import experiment_to_dict
    from repro.experiments import run_experiment
    from repro.verify.golden import payload_digest

    runs = [
        run_experiment("ext-fleet", seed=0, sessions=8, sub_sessions=6)
        for _ in range(2)
    ]
    digests = [payload_digest(experiment_to_dict(run)) for run in runs]
    assert digests[0] == digests[1]
    fleet = runs[0].data["fleet"]
    assert "makespan_s" not in fleet and "shard_utilization" not in fleet
    assert all("wall_s" not in batch for batch in fleet["batches"])
    assert "repro_fleet_makespan_seconds" not in fleet["metrics"]["gauges"]
    assert set(runs[0].host) == {"makespan_s", "shard_utilization"}


def test_host_timing_reaches_the_manifest_stats_and_report(
    tmp_path, capsys, fleet, fleet_section
):
    from repro.experiments.parallel import JobResult
    from repro.experiments.runner import _entry_from_job
    from repro.experiments.stats import render_stats
    from repro.fleet.report import fleet_timing

    timing = fleet_timing(fleet)
    job = JobResult(
        experiment_id="ext-fleet",
        seed=0,
        payload={"id": "ext-fleet", "data": {"fleet": fleet_section}},
        host=timing,
    )
    entry = _entry_from_job(job, saved="ext-fleet-seed0.json")
    assert entry["fleet"]["makespan_s"] == timing["makespan_s"]
    assert entry["fleet"]["shard_utilization"] == timing["shard_utilization"]
    utilization = f"shard utilization {timing['shard_utilization']:.1%}"
    manifest = {"experiments": [entry], "jobs": 1, "code_version": "deadbeef"}
    assert utilization in render_stats(manifest)
    save_json(job.payload, tmp_path / "ext-fleet-seed0.json")
    save_json(dict(manifest, kind="run-manifest"), tmp_path / "manifest.json")
    assert fleet_report_main([str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert f"makespan {timing['makespan_s']:.2f}s, {utilization}" in out
