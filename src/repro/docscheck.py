"""Documentation linter: ``python -m repro.docscheck``.

The docs rot in three characteristic ways, and this module gates all of
them in CI (``make docs-check``, part of ``make verify``):

1. **Broken intra-repo links.**  Every relative markdown link — file
   target and ``#anchor`` fragment alike — must resolve.  Anchors are
   checked against GitHub-style heading slugs of the target file.
2. **Stale CLI flags.**  Every ``--flag`` a doc mentions (in inline
   code or fenced code blocks) must exist in the ``--help`` output of
   at least one of the repo's CLIs, or be on the short whitelist of
   external tools' flags (pytest-benchmark).  A flag renamed in code
   but not in prose fails here.
3. **Index coverage.**  ``docs/index.md`` must link every page under
   ``docs/`` so nothing is published without a way to find it.

Only maintained documentation is linted; source-material files carried
with the repo (the paper abstract, related-work dump, snippets, the
issue text) are exempt.
"""

import io
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Set, Tuple

__all__ = [
    "check_flags",
    "check_index_coverage",
    "check_links",
    "github_slug",
    "harvest_cli_flags",
    "lint_docs",
    "main",
]

#: Root-level pages that are maintained documentation (linted).  Files
#: not listed here and not under docs/ are source material, not docs.
ROOT_DOC_PAGES = (
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    "ROADMAP.md",
    "CHANGES.md",
)

#: Flags that belong to external tools the docs legitimately mention
#: (pytest / pytest-benchmark invocations in run instructions).
EXTERNAL_FLAG_WHITELIST = frozenset({
    "--benchmark-only",
    "--benchmark-json",
    "--benchmark-autosave",
})

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
_FENCE_RE = re.compile(r"^(```|~~~)")
_INLINE_CODE_RE = re.compile(r"`[^`]*`")
_FLAG_RE = re.compile(r"(?<![\w\-#])--[a-z][a-z0-9]*(?:-[a-z0-9]+)*")


def _strip_fences(text: str) -> Tuple[str, str]:
    """Split ``text`` into (prose, code): fenced blocks go to code."""
    prose: List[str] = []
    code: List[str] = []
    in_fence = False
    for line in text.splitlines():
        if _FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        (code if in_fence else prose).append(line)
    return "\n".join(prose), "\n".join(code)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a markdown heading.

    Lowercase, inline-code markers dropped, punctuation removed,
    spaces become hyphens (so ``## Hardening: --timeout`` yields
    ``hardening---timeout`` — the double hyphen is real).
    """
    text = heading.replace("`", "").lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _heading_slugs(text: str) -> Set[str]:
    prose, _ = _strip_fences(text)
    slugs: Set[str] = set()
    for line in prose.splitlines():
        match = _HEADING_RE.match(line)
        if match:
            slugs.add(github_slug(match.group(2)))
    return slugs


def _doc_pages(root: Path) -> List[Path]:
    pages = [root / name for name in ROOT_DOC_PAGES if (root / name).exists()]
    pages.extend(sorted((root / "docs").glob("*.md")))
    return pages


def check_links(root: Path, pages: Iterable[Path]) -> List[str]:
    """Every relative link must hit an existing file; every ``#anchor``
    on a markdown target must match a heading slug in that file."""
    problems: List[str] = []
    for page in pages:
        text = page.read_text(encoding="utf-8")
        prose, _ = _strip_fences(text)
        prose = _INLINE_CODE_RE.sub("", prose)
        for match in _LINK_RE.finditer(prose):
            target = match.group(1).strip("<>")
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            where = f"{page.relative_to(root)}"
            path_part, _, anchor = target.partition("#")
            if path_part:
                resolved = (page.parent / path_part).resolve()
                if not resolved.exists():
                    problems.append(
                        f"{where}: broken link target {path_part!r}"
                    )
                    continue
            else:
                resolved = page
            if anchor:
                if resolved.suffix != ".md" or resolved.is_dir():
                    continue
                if anchor not in _heading_slugs(
                    resolved.read_text(encoding="utf-8")
                ):
                    problems.append(
                        f"{where}: stale anchor #{anchor} "
                        f"(no such heading in {resolved.name})"
                    )
    return problems


def _help_text(
    entry: Callable[[List[str]], int], prefix: Tuple[str, ...] = ()
) -> str:
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(out):
            entry([*prefix, "--help"])
    except SystemExit:
        pass
    return out.getvalue()


def _perfbench_main(argv: List[str]) -> int:
    """The benchmark's CLI, ``perfbench/run.py``, which is a script with
    its own imports rather than a module of this package."""
    script = _find_root() / "perfbench" / "run.py"
    done = subprocess.run(
        [sys.executable, str(script), *argv], capture_output=True, text=True
    )
    print(done.stdout)
    return done.returncode


def harvest_cli_flags() -> Set[str]:
    """Union of ``--flags`` accepted by every CLI in the repo, read
    from their live ``--help`` output so renames surface immediately."""
    from .analyze import main as analyze_main
    from .chaos.stress import main as chaos_stress_main
    from .experiments.runner import main as runner_main
    from .experiments.stats import stats_main
    from .fleet.report import fleet_report_main
    from .perfgate import main as perfgate_main
    from .verify.golden import main as golden_main
    from .verify.integrity import main as integrity_main

    entries = (
        (runner_main, ()),
        (stats_main, ()),
        (fleet_report_main, ()),
        (analyze_main, ()),
        (chaos_stress_main, ()),
        (perfgate_main, ()),          # subcommand flags live one level down:
        (perfgate_main, ("collect",)),
        (perfgate_main, ("check",)),
        (integrity_main, ()),
        (golden_main, ()),
        (_perfbench_main, ()),
    )
    flags: Set[str] = set()
    for entry, prefix in entries:
        flags.update(_FLAG_RE.findall(_help_text(entry, prefix)))
    return flags


def _doc_flags(text: str) -> Set[str]:
    """Flags a doc page mentions: scan inline code and fenced blocks
    (where CLI examples live), never link targets or prose anchors."""
    prose, code = _strip_fences(text)
    spans = _INLINE_CODE_RE.findall(prose)
    haystack = "\n".join(spans) + "\n" + code
    return set(_FLAG_RE.findall(haystack))


def check_flags(root: Path, pages: Iterable[Path]) -> List[str]:
    valid = harvest_cli_flags() | EXTERNAL_FLAG_WHITELIST
    problems: List[str] = []
    for page in pages:
        text = page.read_text(encoding="utf-8")
        stale = sorted(_doc_flags(text) - valid)
        for flag in stale:
            problems.append(
                f"{page.relative_to(root)}: mentions {flag}, which no "
                f"repo CLI accepts (renamed or removed?)"
            )
    return problems


def check_index_coverage(root: Path) -> List[str]:
    """docs/index.md must link every sibling page under docs/."""
    index = root / "docs" / "index.md"
    if not index.exists():
        return ["docs/index.md is missing"]
    prose, _ = _strip_fences(index.read_text(encoding="utf-8"))
    linked = set()
    for match in _LINK_RE.finditer(prose):
        target = match.group(1).strip("<>").partition("#")[0]
        if target:
            linked.add((index.parent / target).resolve())
    problems = []
    for page in sorted((root / "docs").glob("*.md")):
        if page.name == "index.md":
            continue
        if page.resolve() not in linked:
            problems.append(f"docs/index.md does not link docs/{page.name}")
    return problems


def lint_docs(root: Path) -> Dict[str, List[str]]:
    pages = _doc_pages(root)
    return {
        "links": check_links(root, pages),
        "flags": check_flags(root, pages),
        "index": check_index_coverage(root),
    }


def _find_root() -> Path:
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "README.md").exists() and (parent / "docs").is_dir():
            return parent
    raise SystemExit("docscheck: cannot locate the repository root")


def main(argv: List[str] = None) -> int:
    root = _find_root() if not argv else Path(argv[0])
    results = lint_docs(root)
    total = sum(len(problems) for problems in results.values())
    pages = _doc_pages(root)
    if total:
        for section, problems in sorted(results.items()):
            for problem in problems:
                print(f"docs-check [{section}]: {problem}")
        print(f"docs-check: {total} problem(s) across {len(pages)} page(s)")
        return 1
    print(
        f"docs-check ok: {len(pages)} page(s), links resolve, "
        f"flags current, index complete"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
