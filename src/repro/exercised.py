"""Exercised-code gate: ``python -m repro.exercised`` (``make exercised``).

Runs the production surface (:func:`exercise`; ``docs/architecture.md``,
"Exercised code") in this one process under a function-level profile
hook, then prints every ``def`` under ``src/repro`` that never ran, per
module.  Exit status 1 when an unrun function in a simulator package
(:data:`GATED`) has no reason in ``exercised-allowlist.txt`` (one
``module:qualname<TAB>reason`` per line), or when an allowlist entry
names a function that ran or no longer exists.  The harness packages
are reported but not gated.
"""

import ast
import contextlib
import io
import runpy
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Set, Tuple

PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parents[1]
ALLOWLIST = ROOT / "exercised-allowlist.txt"
GATED = ("sim", "winsys", "apps", "workload", "core", "remote")


class Tracer:
    """Records every code object entered, in every thread, while active."""

    def __init__(self) -> None:
        self.codes: Dict[int, object] = {}

        def hook(frame, event, arg, keep=self.codes.setdefault):
            if event == "call":
                code = frame.f_code
                # Holding the code object keeps its id from being reused.
                keep(id(code), code)

        self._hook = hook

    def __enter__(self) -> "Tracer":
        self._previous = sys.getprofile(), threading.getprofile()
        sys.setprofile(self._hook)
        threading.setprofile(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(self._previous[0])
        threading.setprofile(self._previous[1])

    def ran(self) -> Set[Tuple[str, str]]:
        """``(module, qualname)`` of each function entered in the package."""
        ran = set()
        for code in list(self.codes.values()):
            path = Path(code.co_filename)
            if path.suffix == ".py" and PACKAGE in path.parents:
                ran.add((module_name(path), code.co_qualname))
        return ran


def module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def defined_functions(path: Path) -> Set[str]:
    """Qualnames of every ``def`` in ``path``, spelled as ``co_qualname``."""
    found: Set[str] = set()

    def walk(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add(prefix + child.name)
                walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text()), "")
    return found


def unrun_functions(ran: Set[Tuple[str, str]]) -> Dict[str, List[str]]:
    """Module -> sorted qualnames of its functions that are not in ``ran``."""
    unrun: Dict[str, List[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = module_name(path)
        missing = sorted(q for q in defined_functions(path) if (module, q) not in ran)
        if missing:
            unrun[module] = missing
    return unrun


def is_gated(module: str) -> bool:
    return module.partition(".")[2].split(".")[0] in GATED


def read_allowlist(path: Path = ALLOWLIST) -> Dict[str, str]:
    """``module:qualname`` -> reason; blank and ``#`` lines are skipped."""
    entries: Dict[str, str] = {}
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            key, _, reason = line.partition("\t")
            entries[key] = reason
    return entries


def exercise(workdir: Path) -> None:
    """Run the production surface with ``jobs=1`` / ``shards=1``, so no
    work escapes into an untraced pool worker (``ext-fleet``'s two-shard
    cross-check aside: the same session code runs in-process beside it).
    Each chaos plan runs twice over one cache, so the second pass meets
    what the first wrote."""
    from . import analyze
    from .chaos import chaos_scenario_names
    from .core.runcache import RunCache
    from .experiments import ext_remote, runner
    from .experiments.registry import experiment_ids, run_experiment
    from .faults import scenario_names
    from .fleet.population import PopulationConfig
    from .fleet.shards import run_fleet
    from .obs.logging import set_level
    from .verify.integrity import run_probe_matrix

    def step(label: str, fn) -> None:
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            fn()
        print(f"exercised: ran {label} ({time.perf_counter() - started:.1f} s)",
              file=sys.stderr)

    for experiment_id in experiment_ids():
        kwargs = {"shards": 1} if experiment_id == "ext-fleet" else {}
        step(experiment_id, lambda: run_experiment(experiment_id, seed=0, **kwargs))
    step("integrity probe matrix", run_probe_matrix)
    for scenario in [s for s in scenario_names() if s.startswith("net-")] + ["link-flap"]:
        step(f"ext-remote {scenario}", lambda: ext_remote.run(seed=0, scenario=scenario))
    set_level("error")
    config = PopulationConfig(seed=7, size=12, chars_range=(4, 6))
    for plan in chaos_scenario_names() * 2:
        step(f"chaos {plan}", lambda: run_fleet(
            config, shards=1, batch_size=6, retries=2, backoff_s=0.0,
            chaos=plan, chaos_seed=3,
            timeout_s=10.0 if plan == "hung-batches" else None,
            cache=RunCache(str(workdir / f"chaos-{plan}"))))
    step("default fleet mix", lambda: run_fleet(PopulationConfig(size=24), shards=1))
    examples = {}
    for script in sorted((ROOT / "examples").glob("*.py")):
        step(script.name, lambda: examples.setdefault(
            script.stem, runpy.run_path(str(script), run_name="__main__")))
    archived = examples["network_events"]  # one artifact of each kind
    step("repro-analyze", lambda: (
        analyze.main([archived["ARCHIVE"], "--timeline", "--refresh"]),
        analyze.main([archived["TRACE_ARCHIVE"], "--windows", "10"])))
    set_level("info")
    out = workdir / "sweep"
    sweep = ["fig1", "ext-faults", "ext-fleet", "--jobs", "1",
             "--cache-dir", str(workdir / "cache"),
             "--checkpoint-dir", str(workdir / "checkpoints"),
             "--save", str(out), "--trace-out", str(workdir / "trace.json"),
             "--stage-sample-rate", "1.0", "--stage-budget", "handler=0.1",
             "--strict-invariants"]
    for metrics in ("metrics.json", "metrics.prom"):
        step(f"runner sweep --metrics-out {metrics}", lambda: runner.main(
            sweep + ["--metrics-out", str(workdir / metrics)]))
    step("runner --resume", lambda: runner.main(["--resume", str(out)]))
    step("runner stats", lambda: runner.main(["stats", str(out / "manifest.json")]))
    step("runner fleet-report", lambda: runner.main(["fleet-report", str(out)]))


def main() -> int:
    # The tracer goes in before exercise() imports the surface, so
    # import-time calls are recorded too.
    with tempfile.TemporaryDirectory(prefix="repro-exercised-") as workdir:
        with Tracer() as tracer:
            exercise(Path(workdir))
    unrun = unrun_functions(tracer.ran())
    allowed = read_allowlist()
    problems, unrun_keys = [], set()
    for module, names in unrun.items():
        print(f"{module} ({'gated' if is_gated(module) else 'reported'})")
        for name in names:
            key = f"{module}:{name}"
            unrun_keys.add(key)
            print(f"    {name}" + ("    [allowlisted]" if key in allowed else ""))
            if is_gated(module) and key not in allowed:
                problems.append(f"{key} never ran and is not allowlisted")
    for key in sorted(set(allowed) - unrun_keys):
        problems.append(f"allowlist entry {key} ran or no longer exists")
    for problem in problems:
        print(f"exercised: FAIL {problem}")
    gated = sum(len(names) for m, names in unrun.items() if is_gated(m))
    print(f"exercised: {gated} unrun function(s) in {', '.join(GATED)}; "
          f"{len(allowed)} allowlisted; {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
