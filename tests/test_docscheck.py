"""Tests for the documentation linter (``repro.docscheck``).

The linter itself is a CI gate (``make docs-check``), so its failure
modes need pinning: a stale anchor must fail, a link-target anchor
must never be mistaken for a CLI flag, and the live repo must lint
clean.
"""

from pathlib import Path

from repro.docscheck import (
    check_index_coverage,
    check_links,
    github_slug,
    harvest_cli_flags,
    lint_docs,
    main,
)
from repro.docscheck import _doc_flags

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_github_slug_matches_github_rules():
    assert github_slug("Running the experiments") == "running-the-experiments"
    # Backticks vanish, punctuation vanishes, spaces become hyphens —
    # so flag-listing headings get real double hyphens.
    assert github_slug(
        "Hardening: `--timeout`, `--retries`, `--resume`"
    ) == "hardening---timeout---retries---resume"
    assert github_slug("Seeds: `--seed N[,N...]`") == "seeds---seed-nn"


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def test_check_links_catches_breakage(tmp_path):
    _write(tmp_path / "README.md", "see [docs](docs/a.md#real-heading)\n")
    _write(tmp_path / "docs" / "a.md", "# Real heading\n[gone](missing.md)\n")
    problems = check_links(
        tmp_path, [tmp_path / "README.md", tmp_path / "docs" / "a.md"]
    )
    assert len(problems) == 1
    assert "missing.md" in problems[0]


def test_check_links_catches_stale_anchor(tmp_path):
    _write(tmp_path / "README.md", "see [a](docs/a.md#no-such-heading)\n")
    _write(tmp_path / "docs" / "a.md", "# Only heading\n")
    (problem,) = check_links(tmp_path, [tmp_path / "README.md"])
    assert "stale anchor" in problem


def test_external_links_and_code_blocks_ignored(tmp_path):
    _write(
        tmp_path / "README.md",
        "[x](https://example.com/gone)\n"
        "```\n[not a link](nowhere.md)\n```\n",
    )
    assert check_links(tmp_path, [tmp_path / "README.md"]) == []


def test_doc_flags_only_from_code_never_from_anchors():
    text = (
        "Use `--jobs 4` here.\n"
        "```console\n$ run --save out/\n```\n"
        "See [doc](other.md#hardening---timeout---retries---resume)\n"
        "prose --not-a-code-mention\n"
    )
    assert _doc_flags(text) == {"--jobs", "--save"}


def test_harvest_covers_every_cli():
    flags = harvest_cli_flags()
    # One representative flag per CLI surface.
    assert {"--jobs", "--seed", "--budget-hours", "--windows",
            "--baseline", "--update", "--trace"} <= flags


def test_index_coverage(tmp_path):
    _write(tmp_path / "docs" / "a.md", "# A\n")
    _write(tmp_path / "docs" / "index.md", "[a](a.md)\n")
    assert check_index_coverage(tmp_path) == []
    _write(tmp_path / "docs" / "b.md", "# B\n")
    (problem,) = check_index_coverage(tmp_path)
    assert "docs/b.md" in problem


def test_live_repo_lints_clean(capsys):
    results = lint_docs(REPO_ROOT)
    assert results == {"links": [], "flags": [], "index": []}, results
    assert main([str(REPO_ROOT)]) == 0
    assert "docs-check ok" in capsys.readouterr().out
