"""The runner's plan step: usage errors, and what ``--resume`` inherits.

``main`` parses, plans, executes and reports.  Every usage error is
raised while planning, before anything is created or run; the plan's
run kwargs are the resumed manifest's, overlaid with every run kwarg
given on the command line.
"""

from pathlib import Path

import pytest

from repro.core import runcache
from repro.core.serialize import (
    load_json,
    manifest_from_dict,
    manifest_to_dict,
    save_json,
)
from repro.experiments import runner
from repro.experiments.runner import main


def _plan(argv):
    return runner._plan(runner._build_parser().parse_args(argv))


def _boom(*args, **kwargs):
    raise AssertionError("a usage error must stop the runner before this")


# ----------------------------------------------------------------------
# One usage-error path: exit 2, the flag named, nothing created or run
# ----------------------------------------------------------------------
USAGE_ERRORS = [
    (["--seed", "zero"], "--seed"),
    (["--seed", ","], "--seed"),
    (["--retries", "-1"], "--retries"),
    (["--backoff", "-1"], "--backoff"),
    (["--backoff", "nan"], "--backoff"),
    (["--backoff", "inf"], "--backoff"),
    (["--timeout", "0"], "--timeout"),
    (["--timeout", "-1"], "--timeout"),
    (["--timeout", "nan"], "--timeout"),
    (["--timeout", "inf"], "--timeout"),
    (["--checkpoint-interval", "0"], "--checkpoint-interval"),
    (["--packets", "0"], "--packets"),
    (["--stage-sample-rate", "1.5"], "--stage-sample-rate"),
    (["--stage-sample-rate", "-0.1"], "--stage-sample-rate"),
    (["--stage-sample-rate", "nan"], "--stage-sample-rate"),
    (["--stage-sample-rate", "inf"], "--stage-sample-rate"),
    (["--stage-budget", "handler"], "--stage-budget"),
    (["--stage-budget", "nope=5"], "--stage-budget"),
    (["--stage-budget", "handler=0"], "--stage-budget"),
    (["--stage-budget", "handler=fast"], "--stage-budget"),
    (["--stage-budget", "handler=nan"], "--stage-budget"),
    (["--stage-budget", "handler=inf"], "--stage-budget"),
    (["--scenario", "nope"], "--scenario"),
    (["--chaos", "nope"], "--chaos"),
    (["--resume", "nowhere"], "--resume"),
    (["nonesuch"], "unknown experiment ids: nonesuch"),
]


@pytest.mark.parametrize(
    "extra, named", USAGE_ERRORS, ids=[" ".join(row[0]) for row in USAGE_ERRORS]
)
def test_usage_error(extra, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(runner, "run_specs", _boom)
    monkeypatch.setattr(runner, "code_version", _boom)
    monkeypatch.setattr(runcache, "code_version", _boom)
    argv = ["fig1", *extra, "--jobs", "1", "--save", "out", "--cache-dir", "cache"]
    assert main(argv) == 2
    assert named in capsys.readouterr().err
    assert not Path("out").exists()
    assert not Path("cache").exists()


# ----------------------------------------------------------------------
# --resume: one overlay over the manifest's run kwargs
# ----------------------------------------------------------------------
def _write_manifest(directory, *, ids=("fig1",), seeds=(0,), run_kwargs=None):
    """A manifest whose every job completed, with its archives on disk."""
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for experiment_id in ids:
        for seed in seeds:
            saved = f"{experiment_id}-seed{seed}.json"
            save_json({"id": experiment_id}, directory / saved)
            entries.append(
                {"id": experiment_id, "seed": seed, "wall_s": 0.0,
                 "cache_hit": False, "failed_checks": [], "error": None,
                 "resumed": False, "saved": saved}
            )
    manifest = manifest_to_dict(
        entries, jobs=1, cache={"enabled": False}, code_version="test"
    )
    if run_kwargs:
        manifest["run_kwargs"] = run_kwargs
    save_json(manifest, directory / "manifest.json")
    return directory


@pytest.mark.parametrize(
    "recorded",
    [
        {"scenario": "smoke"},
        {"packets": 120},
        {"chaos": "flaky-crash", "chaos_seed": 3},
        {"hedge": True},
    ],
    ids=["scenario", "packets", "chaos", "hedge"],
)
def test_resume_inherits_run_kwargs(tmp_path, recorded):
    out = _write_manifest(tmp_path / "out", run_kwargs=recorded)
    assert _plan(["--resume", str(out), "--no-cache"]).run_kwargs == recorded


@pytest.mark.parametrize(
    "recorded, extra, expected",
    [
        ({"scenario": "smoke", "packets": 120}, ["--scenario", "degraded"],
         {"scenario": "degraded", "packets": 120}),
        ({"packets": 120}, ["--packets", "30"], {"packets": 30}),
        ({"chaos": "flaky-crash", "chaos_seed": 3},
         ["--chaos", "stragglers", "--chaos-seed", "5"],
         {"chaos": "stragglers", "chaos_seed": 5}),
        # --chaos-seed follows --chaos: a new plan starts from its own seed,
        # and a seed alone leaves the recorded plan and seed as they were.
        ({"chaos": "flaky-crash", "chaos_seed": 3}, ["--chaos", "stragglers"],
         {"chaos": "stragglers", "chaos_seed": 0}),
        ({"chaos": "flaky-crash", "chaos_seed": 3}, ["--chaos-seed", "5"],
         {"chaos": "flaky-crash", "chaos_seed": 3}),
        ({"scenario": "smoke"}, ["--hedge"], {"scenario": "smoke", "hedge": True}),
    ],
    ids=["scenario", "packets", "chaos", "chaos-alone", "chaos-seed-alone", "hedge"],
)
def test_command_line_overrides_inherited_run_kwargs(
    tmp_path, recorded, extra, expected
):
    out = _write_manifest(tmp_path / "out", run_kwargs=recorded)
    assert _plan(["--resume", str(out), "--no-cache", *extra]).run_kwargs == expected


def test_resume_defaults_to_the_manifest_sweep(tmp_path):
    out = _write_manifest(tmp_path / "out", ids=("fig1", "fig4"), seeds=(0, 1))
    (out / "fig4-seed1.json").unlink()
    plan = _plan(["--resume", str(out / "manifest.json"), "--no-cache"])
    assert plan.ids == ("fig1", "fig4")
    assert plan.seeds == (0, 1)
    assert plan.save_dir == out and plan.resume_dir == out
    assert plan.run_kwargs is None
    assert plan.all_specs == (("fig1", 0), ("fig1", 1), ("fig4", 0), ("fig4", 1))
    assert plan.specs == (("fig4", 1),)  # its archive went missing
    assert set(plan.preserved) == {("fig1", 0), ("fig1", 1), ("fig4", 0)}
    assert all(entry["resumed"] for entry in plan.preserved.values())
    assert plan.jobs == 1


def test_command_line_sweep_overrides_the_manifest(tmp_path):
    out = _write_manifest(tmp_path / "out", ids=("fig1", "fig4"), seeds=(0, 1))
    plan = _plan(["fig4", "--seed", "1,2", "--resume", str(out),
                  "--save", str(tmp_path / "new"), "--no-cache"])
    assert plan.ids == ("fig4",) and plan.seeds == (1, 2)
    assert plan.save_dir == tmp_path / "new" and plan.resume_dir == out
    assert set(plan.preserved) == {("fig4", 1)}
    assert plan.specs == (("fig4", 2),)


def test_plan_without_resume():
    plan = _plan(["fig07", "--no-cache"])
    assert plan.ids == ("fig7",) and plan.seeds == (0,)
    assert plan.run_kwargs is None and plan.preserved == {}
    assert plan.save_dir is None and plan.cache is None and plan.obs is None


def test_resumed_sweep_keeps_hedge(tmp_path):
    out = tmp_path / "out"
    assert main(["fig1", "--hedge", "--jobs", "1", "--no-cache", "--checks-only",
                 "--save", str(out)]) == 0
    assert load_json(out / "manifest.json")["run_kwargs"] == {"hedge": True}
    (out / "fig1-seed0.json").unlink()
    assert main(["--resume", str(out), "--no-cache", "--checks-only"]) == 0
    assert load_json(out / "manifest.json")["run_kwargs"] == {"hedge": True}


def test_resume_into_another_dir_copies_preserved_archives(tmp_path, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["fig1", "--jobs", "1", "--no-cache", "--checks-only",
                 "--save", str(first)]) == 0
    assert main(["fig1", "fig4", "--jobs", "1", "--no-cache", "--checks-only",
                 "--resume", str(first), "--save", str(second)]) == 0
    manifest = manifest_from_dict(load_json(second / "manifest.json"))
    assert [entry["resumed"] for entry in manifest["experiments"]] == [True, False]
    for entry in manifest["experiments"]:
        assert (second / entry["saved"]).exists(), entry["saved"]
    archive = "fig1-seed0.json"
    assert (second / archive).read_bytes() == (first / archive).read_bytes()
    capsys.readouterr()
    assert main(["--resume", str(second), "--no-cache", "--checks-only"]) == 0
    assert "resuming: 2 job(s) preserved, 0 to run" in capsys.readouterr().err
