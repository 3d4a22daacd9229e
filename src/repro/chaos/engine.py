"""The chaos engine: deterministic realization of a chaos plan.

:class:`ChaosEngine` turns a ``(ChaosPlan, chaos seed)`` pair into
concrete per-``(job, attempt)`` decisions, drawing every coin flip from
a :mod:`random.Random` seeded by ``sha256(f"{seed}:{plan}:{spec}:
{job}:{attempt}")`` — the :mod:`repro.sim.rng` idiom one layer up.  Two
consequences carry the whole design:

* **Exact replay.**  The same ``(seed, plan)`` produces the identical
  failure schedule on any machine, any shard count, any steal order —
  a chaos bug report is two integers and a name.
* **Channel separation.**  Retries, hedge duplicates and quarantine
  re-runs each draw from distinct *attempt channels* (plain attempts
  count from 0; hedges from :data:`HEDGE_ATTEMPT_BASE`; recovery from
  :data:`RECOVERY_ATTEMPT_BASE`), so a spec windowed with
  ``max_attempt=N`` provably never fires on the healing paths — which
  is what makes "healable" schedules healable *by construction*.

:func:`chaos_harness` is the context workers enter around one job.  On
entry it applies the scheduled faults for that ``(job, attempt)``:

* ``crash`` — ``os._exit`` in a pool worker (a real SIGKILL-grade
  death: the parent sees ``BrokenProcessPool``, classified ``"pool"``
  and retried); sequentially it raises :class:`ChaosCrash`, a
  ``BaseException`` that escapes the executor's ``except Exception``
  and is classified ``"pool"`` by the sequential round — the same
  retryable semantics without killing the only process we have.
* ``hang``/``straggle`` — sleep (past the watchdog / briefly).
* ``enospc``/``corrupt-write`` — enter a
  :func:`repro.core.atomicio.write_fault_scope` for the job's duration
  (restored on exit, so chaos never leaks into the next job of a
  sequential sweep).

``poison`` and ``corrupt-result`` are consulted by the fleet batch
executor itself (per session index / on the finished payload), via the
:class:`ActiveChaos` handle the context yields.
"""

from __future__ import annotations

import errno
import hashlib
import os
import random
import time
from contextlib import contextmanager, nullcontext
from typing import Iterator, List, Optional, Tuple

from ..core.atomicio import write_fault_scope
from .plan import ChaosPlan, ChaosSpec

__all__ = [
    "CRASH_EXIT_CODE",
    "HEDGE_ATTEMPT_BASE",
    "RECOVERY_ATTEMPT_BASE",
    "ActiveChaos",
    "ChaosCrash",
    "ChaosEngine",
    "ChaosPoison",
    "chaos_harness",
    "chaos_payload",
]

#: Exit status of a chaos-crashed pool worker (distinctive in core
#: dumps and process tables; any nonzero value breaks the pool).
CRASH_EXIT_CODE = 13

#: Attempt channel for hedge duplicates: ``HEDGE_ATTEMPT_BASE + round
#: attempt``.  Far above any sane ``max_attempt`` window, so windowed
#: faults never fire on the hedge that is supposed to heal them.
HEDGE_ATTEMPT_BASE = 1000

#: Attempt channel for quarantine/bisection re-runs:
#: ``RECOVERY_ATTEMPT_BASE + bisection depth``.
RECOVERY_ATTEMPT_BASE = 2000


class ChaosCrash(BaseException):
    """Simulated hard worker death on the sequential path.

    Derives from ``BaseException`` so it escapes ``except Exception``
    capture inside executors (a real ``os._exit`` would not be caught
    either) and reaches the sequential round, which classifies it
    ``"pool"`` — transient, retryable — exactly like a pool worker
    death observed from the parent.
    """


class ChaosPoison(RuntimeError):
    """Deterministic per-session failure (a plain ``Exception``: the
    executor captures it as ``failure_kind="error"``, which is exactly
    right — poison is deterministic and must not be retried, only
    bisected down to the session and quarantined)."""


class ChaosEngine:
    """Realizes a :class:`~repro.chaos.plan.ChaosPlan` under one seed."""

    def __init__(self, plan: ChaosPlan, seed: int = 0) -> None:
        self.plan = plan
        self.seed = int(seed)

    def _stream(self, label: str) -> random.Random:
        digest = hashlib.sha256(
            f"{self.seed}:{self.plan.name}:{label}".encode("utf-8")
        ).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def active(self, job_id: str, attempt: int) -> List[ChaosSpec]:
        """The specs that fire for this ``(job, attempt)``, in plan order.

        ``poison`` specs never appear here — they key on session
        indices (:meth:`poisoned`), not jobs, so bisecting a batch can
        never make a poisoned session pass.
        """
        fired: List[ChaosSpec] = []
        for spec in self.plan:
            if spec.kind == "poison":
                continue
            if spec.max_attempt is not None and attempt >= spec.max_attempt:
                continue
            if spec.probability >= 1.0:
                fired.append(spec)
            elif (
                self._stream(f"{spec.name}:{job_id}:{attempt}").random()
                < spec.probability
            ):
                fired.append(spec)
        return fired

    def poisoned(self, index: int) -> bool:
        """Whether session ``index`` is poisoned — a pure function of
        ``(chaos seed, plan, index)``, independent of batching, attempt
        or scheduling, so the poison set is stable under bisection."""
        for spec in self.plan:
            if spec.kind != "poison":
                continue
            if (
                spec.probability >= 1.0
                or self._stream(f"{spec.name}:session:{index}").random()
                < spec.probability
            ):
                return True
        return False

    def corrupt_text(self, text: str) -> str:
        """Deterministically mangle artifact bytes (a torn write that
        *survives* the rename: truncated, with garbage appended)."""
        return text[: len(text) // 2] + "\x00<<chaos-torn-write>>"

    def describe(self) -> dict:
        """Provenance stamp: what chaos ran (plan identity + seed)."""
        return {
            "plan": self.plan.name,
            "seed": self.seed,
            "kinds": self.plan.kinds,
            "specs": len(self.plan),
        }


class ActiveChaos:
    """The per-job chaos decisions, yielded by :func:`chaos_harness`.

    Executors consult it for the two faults that cannot be applied at
    harness entry: ``poison`` (per session index, raised inside the
    batch loop) and ``corrupt-result`` (applied to the finished
    payload after any cache write, so shared caches keep clean bytes —
    the corruption models the *transport*, not the computation).
    """

    def __init__(
        self, engine: ChaosEngine, job_id: str, attempt: int
    ) -> None:
        self.engine = engine
        self.job_id = job_id
        self.attempt = attempt
        self.active = engine.active(job_id, attempt)
        self.kinds = {spec.kind for spec in self.active}

    def check_poison(self, index: int) -> None:
        """Raise :class:`ChaosPoison` if session ``index`` is poisoned."""
        if self.engine.poisoned(index):
            raise ChaosPoison(f"chaos poison: session {index}")

    def corrupt_result(self, job) -> None:
        """Mangle a finished fleet batch's recorded digest in place.

        The aggregate bytes and the digest stamped next to them no
        longer agree — precisely the signature of payload corruption in
        transit, and precisely what the fleet fold's digest
        verification exists to catch.
        """
        if "corrupt-result" not in self.kinds:
            return
        data = (job.payload or {}).get("data")
        if isinstance(data, dict) and "digest" in data:
            data["digest"] = "chaos-corrupt:" + str(data["digest"])


def chaos_payload(
    plan: ChaosPlan, seed: int = 0, attempt_base: int = 0
) -> dict:
    """The picklable chaos descriptor threaded through job options.

    The parallel runner stamps ``attempt`` per round (``attempt_base +
    round``); hedge submissions re-stamp with
    :data:`HEDGE_ATTEMPT_BASE`; recovery re-runs pass their own
    ``attempt_base``.  Workers rebuild the engine from this dict.
    """
    payload = {"plan": plan.to_dict(), "seed": int(seed)}
    if attempt_base:
        payload["attempt_base"] = int(attempt_base)
    return payload


def _engine_from_payload(payload: dict) -> Tuple[ChaosEngine, int]:
    plan = payload["plan"]
    if not isinstance(plan, ChaosPlan):
        plan = ChaosPlan.from_dict(plan)
    engine = ChaosEngine(plan, seed=int(payload.get("seed", 0)))
    return engine, int(payload.get("attempt", 0))


def _write_hook(engine: ChaosEngine, specs: List[ChaosSpec]):
    """Build the :func:`write_fault_scope` hook for this job's active
    write-level faults, scoped to the artifact class each spec names
    (checkpoints are ``*.ckpt.json``; everything else is "cache"/other
    artifact output)."""

    def hook(path, text: str) -> str:
        is_checkpoint = path.name.endswith(".ckpt.json")
        for spec in specs:
            scope = spec.param("scope", "all")
            if scope == "cache" and is_checkpoint:
                continue
            if scope == "checkpoint" and not is_checkpoint:
                continue
            if spec.kind == "enospc":
                raise OSError(
                    errno.ENOSPC, f"chaos enospc: no space left for {path}"
                )
            text = engine.corrupt_text(text)
        return text

    return hook


@contextmanager
def chaos_harness(
    payload: Optional[dict], job_id: str
) -> Iterator[Optional[ActiveChaos]]:
    """Enter one job's chaos context; yields ``None`` when chaos is off.

    Applies crash/hang/straggle at entry and scopes the write-fault
    hook to the job's duration; the previous hook is restored on exit
    whatever happens, so sequential sweeps can never leak one job's
    chaos into the next.
    """
    if not payload:
        yield None
        return
    engine, attempt = _engine_from_payload(payload)
    chaos = ActiveChaos(engine, job_id, attempt)
    for spec in chaos.active:
        if spec.kind == "crash":
            import multiprocessing

            if multiprocessing.parent_process() is not None:
                # A real hard death: no cleanup, no result, the parent
                # observes a broken pool — the disaster we are drilling.
                os._exit(CRASH_EXIT_CODE)
            raise ChaosCrash(
                f"chaos crash: {job_id} attempt {attempt} "
                f"(spec {spec.name!r})"
            )
    for spec in chaos.active:
        if spec.kind == "hang":
            time.sleep(float(spec.param("seconds", 3600.0)))
        elif spec.kind == "straggle":
            time.sleep(float(spec.param("seconds", 0.25)))
    write_specs = [
        spec
        for spec in chaos.active
        if spec.kind in ("enospc", "corrupt-write")
    ]
    scope = (
        write_fault_scope(_write_hook(engine, write_specs))
        if write_specs
        else nullcontext()
    )
    with scope:
        yield chaos
