"""Chrome trace-event JSON export (Perfetto / chrome://tracing).

The output dict follows the *JSON Object Format* of the Chrome trace
event spec: a top-level ``traceEvents`` array plus metadata.  Each
simulated OS personality is a process (``process_name`` metadata
event), each simulated thread is a track (``thread_name``), and a few
reserved tracks per process carry system activity (CPU run spans,
interrupts, I/O waits, fault markers).

Timestamps: the tracer records *simulated* integer nanoseconds; Chrome
``ts`` is microseconds, so we export ``sim_ns / 1000`` as a float —
divide-by-1000 keeps sub-microsecond sim events distinguishable.  The
host wall-clock stamp rides along in each event's ``args`` so harness
stalls stay diagnosable next to sim time.

:func:`merge_chrome_traces` folds per-worker traces into one file by
remapping pids, so a multi-seed sweep loads as one Perfetto session
with one process group per (experiment, seed).
:func:`validate_chrome_trace` is the structural checker used by tests
and ``make obs-smoke``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .tracer import Tracer

__all__ = ["chrome_trace", "merge_chrome_traces", "validate_chrome_trace"]


def _metadata_event(name: str, pid: int, tid: int, args: dict) -> dict:
    return {
        "name": name,
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "ts": 0,
        "args": args,
    }


def chrome_trace(tracer: Tracer, label: str = "") -> dict:
    """Render a tracer's buffer as a Chrome trace-event JSON object."""
    events: List[dict] = []
    for pid, pname in sorted(tracer.processes().items()):
        events.append(
            _metadata_event("process_name", pid, 0, {"name": pname})
        )
    for (pid, tid), tname in sorted(tracer.threads().items()):
        events.append(
            _metadata_event("thread_name", pid, tid, {"name": tname})
        )
        # sort_index keeps track order stable (registration order), not
        # alphabetical by whatever Perfetto decides.
        events.append(
            _metadata_event("thread_sort_index", pid, tid, {"sort_index": tid})
        )
    depth: Dict[Tuple[int, int], int] = {}
    open_names: Dict[Tuple[int, int], List[str]] = {}
    max_ts = 0.0
    for record in tracer.events():
        ts = record.sim_ns / 1000.0
        max_ts = max(max_ts, ts)
        event = {
            "name": record.name,
            "ph": record.phase,
            "pid": record.pid,
            "tid": record.tid,
            "ts": ts,
        }
        if record.category:
            event["cat"] = record.category
        args = dict(record.args) if record.args else {}
        args["wall_ns"] = record.wall_ns
        event["args"] = args
        if record.phase == "i":
            event["s"] = "t"  # instant scoped to its track
        track = (record.pid, record.tid)
        if record.phase == "B":
            depth[track] = depth.get(track, 0) + 1
            open_names.setdefault(track, []).append(record.name)
        elif record.phase == "E":
            depth[track] = depth.get(track, 0) - 1
            stack = open_names.get(track)
            if stack:
                stack.pop()
        events.append(event)
    # Spans still open when the run stopped (a blocked pump, the idle
    # thread) are closed at the last recorded timestamp so the export
    # is always well-nested.
    for track, open_count in sorted(depth.items()):
        stack = open_names.get(track, [])
        for _ in range(open_count):
            name = stack.pop() if stack else ""
            events.append(
                {
                    "name": name,
                    "ph": "E",
                    "pid": track[0],
                    "tid": track[1],
                    "ts": max_ts,
                    "args": {"auto_closed": True},
                }
            )
    trace = {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "clock": "simulated-ns (ts = sim_ns / 1000 us)",
            "generator": "repro.obs",
            "lossy": tracer.lossy,
            "dropped": tracer.dropped,
        },
    }
    if label:
        trace["otherData"]["label"] = label
    return trace


def merge_chrome_traces(traces: Iterable[Optional[dict]]) -> dict:
    """Fold several chrome-trace dicts into one, remapping pids so
    per-worker traces (which all start numbering at 1) don't collide.
    Labels recorded by :func:`chrome_trace` prefix the process names.
    """
    events: List[dict] = []
    lossy = False
    dropped = 0
    next_pid = 1
    for trace in traces:
        if not trace:
            continue
        label = trace.get("otherData", {}).get("label", "")
        other = trace.get("otherData", {})
        lossy = lossy or bool(other.get("lossy"))
        dropped += int(other.get("dropped", 0))
        pid_map: Dict[int, int] = {}
        for event in trace.get("traceEvents", []):
            pid = event.get("pid", 0)
            if pid not in pid_map:
                pid_map[pid] = next_pid
                next_pid += 1
            remapped = dict(event)
            remapped["pid"] = pid_map[pid]
            if (
                label
                and remapped.get("ph") == "M"
                and remapped.get("name") == "process_name"
            ):
                remapped["args"] = {
                    "name": f"{label}/{remapped['args']['name']}"
                }
            events.append(remapped)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "clock": "simulated-ns (ts = sim_ns / 1000 us)",
            "generator": "repro.obs",
            "lossy": lossy,
            "dropped": dropped,
        },
    }


def validate_chrome_trace(trace: dict) -> List[str]:
    """Structural validation; returns a list of problems (empty = valid).

    Checks the properties tests and ``make obs-smoke`` rely on:
    required keys per event, known phases, per-track monotone
    non-decreasing timestamps, balanced ``B``/``E`` nesting per track,
    and that every track referenced by an event has ``thread_name``
    metadata (each simulated thread maps to exactly one named track).
    """
    problems: List[str] = []
    if not isinstance(trace, dict):
        return ["trace is not a JSON object"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]

    named_processes: Dict[int, str] = {}
    named_tracks: Dict[Tuple[int, int], str] = {}
    last_ts: Dict[Tuple[int, int], float] = {}
    depth: Dict[Tuple[int, int], int] = {}
    used_tracks: set = set()

    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index} is not an object")
            continue
        for key in ("name", "ph", "pid", "tid", "ts"):
            if key not in event:
                problems.append(f"event {index} missing {key!r}")
        phase = event.get("ph")
        if phase not in ("B", "E", "i", "M", "X", "C"):
            problems.append(f"event {index} has unknown phase {phase!r}")
            continue
        pid = event.get("pid")
        tid = event.get("tid")
        track = (pid, tid)
        if phase == "M":
            if event.get("name") == "process_name":
                name = event.get("args", {}).get("name")
                if pid in named_processes:
                    problems.append(f"process {pid} named twice")
                named_processes[pid] = name
            elif event.get("name") == "thread_name":
                name = event.get("args", {}).get("name")
                if track in named_tracks:
                    problems.append(f"track {track} named twice")
                named_tracks[track] = name
            continue
        used_tracks.add(track)
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"event {index} ts is not numeric")
            continue
        if track in last_ts and ts < last_ts[track]:
            problems.append(
                f"event {index} ts {ts} decreases on track {track} "
                f"(previous {last_ts[track]})"
            )
        last_ts[track] = ts
        if phase == "B":
            depth[track] = depth.get(track, 0) + 1
        elif phase == "E":
            depth[track] = depth.get(track, 0) - 1
            if depth[track] < 0:
                problems.append(
                    f"event {index}: E without matching B on track {track}"
                )
                depth[track] = 0

    for track, open_spans in sorted(depth.items()):
        if open_spans > 0:
            problems.append(f"track {track}: {open_spans} unclosed span(s)")
    for track in sorted(used_tracks):
        if track not in named_tracks:
            problems.append(f"track {track} has events but no thread_name")
        if track[0] not in named_processes:
            problems.append(f"pid {track[0]} has events but no process_name")
    return problems
