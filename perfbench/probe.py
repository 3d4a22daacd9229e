"""Layer probes: spans and counts taken from outside the program.

A :class:`Probe` wraps each layer's public entry points by rebinding
them where the program looks them up at call time, so nothing under
``src/`` changes:

* the ``repro.winsys.SYSTEM_FACTORIES`` entries, because ``boot()``
  looks its factory up on every call while 17 modules import ``boot``
  itself by name;
* methods on their classes (``Simulator.run``, ``LossyLink.send``, ...),
  which every instance reaches through the class;
* ``run_session``, ``experiment_to_dict`` and the job executors in the
  modules that call them (``repro.fleet.shards`` and
  ``repro.experiments.parallel``).

Untimed, a probe only captures return values, from which it reads the
program's public counters.  Timed, every wrapped call is also a span
``(name, start, end, parent, run id)`` kept in flat arrays until
:meth:`Probe.write_spans`, and each name accumulates its *self* time:
the span's duration minus the spans nested directly inside it.  Self
times therefore partition the time spent in top-level spans exactly,
in integer nanoseconds, which :meth:`Probe.take` checks.
"""

from __future__ import annotations

import dataclasses
import pickle
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Span names of the program's layers, in report order.  Every other
#: span name (``iteration``, ``fleet.session``, ``fleet.batch``,
#: ``experiments.job``) is glue whose self time is the ``other`` share.
LAYERS = (
    "winsys.boot",
    "sim.engine",
    "sim.ff",
    "sim.interrupts",
    "core.idleloop",
    "core.extract",
    "obs.harvest",
    "fleet.fold",
    "fleet.merge",
    "remote.session",
    "remote.link",
    "experiments.transport",
)

ROOT = "iteration"


class Probe:
    """Wrappers around the layers one benchmark iteration crosses."""

    def __init__(self, timed: bool) -> None:
        self.timed = timed
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._self_ns: List[int] = []
        self._calls: List[int] = []
        self._stack: List[list] = []
        self.run_id = 0
        # One span per row: name id, start, end, parent row (-1 = root), run.
        self._span_name = array("i")
        self._span_start = array("q")
        self._span_end = array("q")
        self._span_parent = array("q")
        self._span_run = array("i")
        self._systems: list = []
        self._jobs: list = []
        self._counts: Counter = Counter()
        self._high_water = 0
        self._root_ns = 0

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
            self._self_ns.append(0)
            self._calls.append(0)
        return self._ids[name]

    def _wrap(
        self,
        name: Optional[str],
        fn: Callable,
        on_return: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped to pass its result to ``on_return`` and, when
        the probe is timed and ``name`` is given, to record a span."""
        if not self.timed or name is None:
            if on_return is None:
                return fn

            def capture(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_return(result)
                return result

            return capture

        nid = self._intern(name)
        stack = self._stack
        clock = time.perf_counter_ns
        names, starts, ends = self._span_name, self._span_start, self._span_end
        parents, runs = self._span_parent, self._span_run
        self_ns, calls = self._self_ns, self._calls
        probe = self

        def timed(*args, **kwargs):
            row = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            runs.append(probe.run_id)
            ends.append(0)
            frame = [row, 0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[row] = end
                stack.pop()
                duration = end - start
                self_ns[nid] += duration - frame[1]
                calls[nid] += 1
                if stack:
                    stack[-1][1] += duration
                else:
                    probe._root_ns += duration
            if on_return is not None:
                on_return(result)
            return result

        return timed

    def _patch(self, owner, attr: str, name: Optional[str], on_return=None) -> None:
        """Rebind ``owner.attr`` (a module global or a class attribute)."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self._wrap(name, raw.__func__, on_return)))
        else:
            setattr(owner, attr, self._wrap(name, raw, on_return))

    def install(self) -> "Probe":
        """Wrap every layer entry point; call after imports, before boot."""
        from repro import winsys
        from repro.core.extract import EventExtractor
        from repro.core.idleloop import IdleLoopInstrument
        from repro.experiments import parallel
        from repro.fleet import shards
        from repro.fleet.sketch import FleetAggregator
        from repro.obs.attribution import StageAttribution
        from repro.remote.link import LossyLink
        from repro.remote.session import RemoteSession
        from repro.remote.transport import InputChannel
        from repro.sim.engine import Simulator
        from repro.sim.interrupts import InterruptController

        counts = self._counts
        for os_name, factory in list(winsys.SYSTEM_FACTORIES.items()):
            winsys.SYSTEM_FACTORIES[os_name] = self._wrap(
                "winsys.boot", factory, self._systems.append
            )
        self._patch(Simulator, "run", "sim.engine")
        self._patch(Simulator, "fast_forward", "sim.ff")
        self._patch(InterruptController, "raise_interrupt", "sim.interrupts")

        def idle_trace(trace) -> None:
            counts["idleloop.records"] += len(trace)

        def extraction(result) -> None:
            counts["extract.events"] += len(result.profile)

        def channel(counters: dict) -> None:
            for key in ("sent", "acked", "retransmits"):
                counts[f"channel.{key}"] += counters[key]

        def session(result) -> None:
            counts["faults.injected"] += result.faults_injected
            self._harvest()

        self._patch(IdleLoopInstrument, "trace", "core.idleloop", idle_trace)
        self._patch(EventExtractor, "extract", "core.extract", extraction)
        self._patch(StageAttribution, "stage_sketches", "obs.harvest")
        self._patch(FleetAggregator, "add_session", "fleet.fold")
        for attr in ("merge", "to_dict", "from_dict", "digest"):
            self._patch(FleetAggregator, attr, "fleet.merge")
        self._patch(RemoteSession, "run", "remote.session")
        self._patch(LossyLink, "send", "remote.link")
        self._patch(InputChannel, "counters", None, channel)
        for module in (parallel, shards):
            self._patch(module, "experiment_to_dict", "experiments.transport")
        self._patch(shards, "run_session", "fleet.session", session)
        self._patch(parallel, "execute_job", "experiments.job", self._keep_job)
        self._patch(shards, "execute_fleet_batch", "fleet.batch", self._keep_job)
        return self

    def _keep_job(self, job) -> None:
        # The fleet fold drops payloads once merged; keep them for sizing.
        self._jobs.append((job, job.payload, job.rendered))

    def _harvest(self) -> None:
        """Fold the public counters of every system booted since the
        last harvest into the iteration's counts, then let them go."""
        counts = self._counts
        for system in self._systems:
            sim = system.sim
            counts["events_executed"] += sim.events_executed
            counts["events_fast_forwarded"] += sim.events_fast_forwarded
            counts["compactions"] += sim.compactions
            counts["sim_ns"] += sim.now
            self._high_water = max(self._high_water, sim.calendar_high_water)
            for vector, delivered in system.machine.interrupts.delivered.items():
                counts[f"delivered.{vector}"] += delivered
            recorder = getattr(getattr(system, "obs", None), "envelopes", None)
            if recorder is not None:
                counts["envelope.events"] += recorder.finished
        self._systems.clear()

    # ------------------------------------------------------------------
    # Iterations
    # ------------------------------------------------------------------
    def run(self, run_id: int, fn: Callable):
        """Call ``fn`` as iteration ``run_id``, the root span that every
        other span of the iteration nests in."""
        self.run_id = run_id
        return self._wrap(ROOT, fn)()

    def _clear(self) -> None:
        self._self_ns[:] = [0] * len(self._names)
        self._calls[:] = [0] * len(self._names)
        self._root_ns = 0
        self._counts.clear()
        self._jobs.clear()
        self._high_water = 0

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. the warm-up boot)."""
        self._harvest()
        for column in (
            self._span_name,
            self._span_start,
            self._span_end,
            self._span_parent,
            self._span_run,
        ):
            del column[:]
        self._clear()

    def take(self) -> dict:
        """The finished iteration's counts and, when timed, its self
        times and call counts; then zero them for the next iteration."""
        self._harvest()
        counts = dict(self._counts)
        counts["calendar_high_water"] = self._high_water
        transport_bytes = sum(
            len(pickle.dumps(dataclasses.replace(job, payload=payload, rendered=rendered)))
            for job, payload, rendered in self._jobs
        )
        taken = {"counts": counts, "transport_bytes": transport_bytes}
        if self.timed:
            self_ns = dict(zip(self._names, self._self_ns))
            taken.update(
                self_ns=self_ns,
                calls=dict(zip(self._names, self._calls)),
                root_ns=self._root_ns,
                balanced=not self._stack and sum(self_ns.values()) == self._root_ns,
            )
        self._clear()
        return taken

    def write_spans(self, path: Path) -> int:
        """Write every span recorded as tab-separated rows; returns the
        number of spans written."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self._names
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\trun\tname\tstart_ns\tend_ns\tparent\n")
            for row, (nid, start, end, parent, run) in enumerate(
                zip(
                    self._span_name,
                    self._span_start,
                    self._span_end,
                    self._span_parent,
                    self._span_run,
                )
            ):
                out.write(f"{row}\t{run}\t{names[nid]}\t{start}\t{end}\t{parent}\n")
        return len(self._span_start)
