"""Extension — the Figure 1 decomposition, generalized to a whole run.

Figure 1 shows, for one keystroke, that application-level timestamps
miss the interrupt handling and rescheduling preceding the message
retrieval.  With per-event stage envelopes stamped at every pipeline
boundary (:mod:`repro.obs.envelope`), every keystroke of a task splits
into pipeline (ISR + dispatch), queue wait and handling — quantifying
exactly how much a getchar-style measurement under-reports on each
system.

The stage numbers come from the observability layer's envelopes — the
same records the Perfetto stage tracks, the fleet sketches and the
``stats`` breakdown render — and are cross-checked here against the
original message-log decomposition
(:func:`repro.core.decompose.decompose_events`), kept as an independent
reference oracle: the two instruments measure the same run through
different evidence (boundary stamps vs. the message-API log), so the
shared boundaries (injection, message post, message retrieval) must
agree *exactly*, and the keystroke end — where the instruments define
"done" differently (the envelope closes at the owning thread's next
message-pump visit, the oracle at system idle) — within a small
tolerance.
"""

from __future__ import annotations

from ..apps.notepad import NotepadApp
from ..core import MeasurementSession
from ..core.decompose import decompose_events
from ..core.report import TextTable
from ..obs import observed
from ..workload.script import InputScript, Key
from .common import ALL_OS, ExperimentResult

ID = "ext-decompose"
TITLE = "Extension: per-event input-latency decomposition"

#: Envelope -> Figure 1 stage mapping: the envelope's finer stages
#: collapse onto the decomposition's three.
_PIPELINE_STAGES = ("input", "dispatch")

#: Keystroke-end agreement tolerance (ns) between the envelope close
#: (next pump visit) and the oracle's idle detection.
_END_TOL_NS = 2_000_000


def _keystroke_pairs(recorders):
    """(KEYDOWN envelope, KEYUP envelope) per keystroke, in inject order.

    A keystroke is two input events — key down (which fans out into
    WM_CHAR and the echo) and key up — so the full Figure 1 span runs
    from the down injection to the up envelope's close.
    """
    # ``completed`` is built from the recorder's columns when read.
    completed = [
        envelope for recorder in recorders for envelope in recorder.completed
    ]
    down = sorted(
        (
            envelope
            for envelope in completed
            if envelope.message_kinds
            and "KEYDOWN" in envelope.message_kinds[0]
        ),
        key=lambda envelope: envelope.inject_ns,
    )
    up = sorted(
        (
            envelope
            for envelope in completed
            if envelope.message_kinds
            and envelope.message_kinds[0].endswith("KEYUP")
        ),
        key=lambda envelope: envelope.inject_ns,
    )
    return list(zip(down, up))


def run(seed: int = 0, chars: int = 60) -> ExperimentResult:
    result = ExperimentResult(id=ID, title=TITLE)
    text = ("the quick brown fox " * 4)[:chars]
    script = InputScript([Key(c, pause_ms=140.0) for c in text])
    table = TextTable(
        [
            "system",
            "events",
            "pipeline ms",
            "queue ms",
            "handling ms",
            "invisible %",
        ],
        title="stage means per system (Notepad keystrokes, stage envelopes)",
    )
    stats = {}
    agreement = {}
    for os_name in ALL_OS:
        # A private envelope-only scope: no trace, no metrics, just
        # the per-event stage stamping (payloads are byte-identical
        # either way — observability is determinism-neutral).  Its exit
        # hands an observed job's session back.
        with observed(trace=False, metrics=False) as obs_session:
            session = MeasurementSession(os_name, NotepadApp, seed=seed)
            run_result = session.run(script, queuesync=False, max_seconds=300)
            recorders = obs_session.envelope_recorders
        pairs = _keystroke_pairs(recorders)
        pipeline_ns = [
            sum(down.stage_ns.get(stage, 0) for stage in _PIPELINE_STAGES)
            for down, _ in pairs
        ]
        queue_ns = [down.stage_ns.get("queue", 0) for down, _ in pairs]
        # Handling: message retrieval to the keystroke's close (the up
        # envelope's), matching the oracle's retrieval-to-idle stage.
        handling_ns = [
            up.done_ns - down.inject_ns - pipeline - queue
            for (down, up), pipeline, queue in zip(pairs, pipeline_ns, queue_ns)
        ]
        count = max(len(pairs), 1)
        pipeline_ms = sum(pipeline_ns) / count / 1e6
        queue_ms = sum(queue_ns) / count / 1e6
        handling_ms = sum(handling_ns) / count / 1e6
        total_ms = pipeline_ms + queue_ms + handling_ms
        invisible = (pipeline_ms + queue_ms) / total_ms if total_ms else 0.0

        # Reference oracle: the original message-log decomposition of
        # the *same* run, from independent evidence.
        oracle = decompose_events(
            run_result.profile,
            run_result.driver.injection_times,
            run_result.monitor,
        )
        matched = list(zip(oracle.events, pairs))
        agreement[os_name] = {
            "events_match": len(oracle.events) == len(pairs),
            "inject_exact": all(
                o.inject_ns == down.inject_ns for o, (down, _) in matched
            ),
            "pipeline_exact": all(
                o.pipeline_ns == pipeline
                for (o, _), pipeline in zip(matched, pipeline_ns)
            ),
            "queue_exact": all(
                o.queue_wait_ns == queue
                for (o, _), queue in zip(matched, queue_ns)
            ),
            "max_end_delta_ns": max(
                (
                    abs(o.event.end_ns - up.done_ns)
                    for o, (_, up) in matched
                ),
                default=0,
            ),
        }
        stats[os_name] = {
            "events": len(pairs),
            "pipeline_ms": pipeline_ms,
            "queue_ms": queue_ms,
            "handling_ms": handling_ms,
            "invisible_fraction": invisible,
            "oracle": {
                "events": len(oracle.events),
                "pipeline_ms": oracle.mean_pipeline_ms,
                "queue_ms": oracle.mean_queue_wait_ms,
                "handling_ms": oracle.mean_handling_ms,
                "invisible_fraction": oracle.invisible_fraction,
            },
        }
        table.add_row(
            os_name,
            len(pairs),
            pipeline_ms,
            queue_ms,
            handling_ms,
            invisible * 100,
        )
    result.tables.append(table)
    result.data = stats

    result.check(
        "every keystroke carried stage envelopes on every system",
        all(s["events"] == len(text) for s in stats.values()),
        ", ".join(f"{k}: {v['events']}" for k, v in stats.items()),
    )
    result.check(
        "timestamps would miss a real share of latency (2-40%)",
        all(0.02 <= s["invisible_fraction"] <= 0.40 for s in stats.values()),
        ", ".join(
            f"{k}: {v['invisible_fraction'] * 100:.0f}%" for k, v in stats.items()
        ),
    )
    result.check(
        "Win95's 16-bit input pipeline is the most expensive",
        stats["win95"]["pipeline_ms"]
        > max(stats["nt351"]["pipeline_ms"], stats["nt40"]["pipeline_ms"]),
        ", ".join(f"{k}: {v['pipeline_ms']:.2f} ms" for k, v in stats.items()),
    )
    result.check(
        "handling dominates every system (Notepad is compute-bound)",
        all(s["handling_ms"] > s["pipeline_ms"] + s["queue_ms"] for s in stats.values()),
        "",
    )
    result.check(
        "envelopes agree with the message-log oracle (shared boundaries "
        f"exact; keystroke end within {_END_TOL_NS / 1e6:.0f} ms)",
        all(
            a["events_match"]
            and a["inject_exact"]
            and a["pipeline_exact"]
            and a["queue_exact"]
            and a["max_end_delta_ns"] <= _END_TOL_NS
            for a in agreement.values()
        ),
        ", ".join(
            f"{k}: end delta {v['max_end_delta_ns'] / 1e6:.3f} ms"
            for k, v in agreement.items()
        ),
    )
    return result
