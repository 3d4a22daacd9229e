"""Microsoft-Test-style script driver.

"MS Test provides a system for simulating user input events on a
Windows system in a repeatable manner.  Test scripts can specify the
pauses between input events, generating minimal runtime overhead.
However, in some cases, the way that Test drives applications alters
the behavior of those applications."  (Section 3.)

The altering artifact the paper identified — "Test generates a
WM_QUEUESYNC message after every keystroke" (Section 5.4) — is on by
default and can be disabled, because reproducing both behaviours is the
point of the Section 5.4 experiment.

The driver is self-scheduling: it injects one action, then schedules
itself after the scripted pause (or after system quiescence for
WaitIdle), so scripts whose operations have unknown durations still
play deterministically.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import dataclasses

from ..sim.timebase import ns_from_ms
from ..winsys.system import WindowsSystem
from .script import Click, Command, InputScript, Key, Mark, Pause, WaitIdle

__all__ = ["MsTestDriver"]


class MsTestDriver:
    """Replays an :class:`InputScript` against a booted system."""

    #: Delay between injecting an input event and posting its
    #: WM_QUEUESYNC (the sync message trails the event's messages).
    QUEUESYNC_DELAY_NS = ns_from_ms(3)
    #: Poll interval while honouring WaitIdle.
    IDLE_POLL_NS = ns_from_ms(5)

    #: Give up waiting for the QUEUESYNC round trip after this long.
    QUEUESYNC_TIMEOUT_NS = ns_from_ms(10_000)

    def __init__(
        self,
        system: WindowsSystem,
        script: InputScript,
        queuesync: bool = True,
        default_pause_ms: float = 150.0,
    ) -> None:
        self.system = system
        self.script = script
        self.queuesync = queuesync
        self.default_pause_ns = ns_from_ms(default_pause_ms)
        self.finished = False
        self.events_injected = 0
        #: Injection timestamps for every input event (keystroke,
        #: click, command) — the driver-side half of the input-latency
        #: decomposition in :mod:`repro.core.decompose`.
        self.injection_times: List[int] = []
        #: The input actions actually injected, in order (for replay).
        self._injected_actions: List[object] = []
        #: (label, time_ns) pairs recorded by Mark actions.
        self.marks: List[Tuple[str, int]] = []
        self._index = 0
        self._wait_deadline = 0
        # QUEUESYNC round-trip tracking: MS Test (a journal-playback
        # driver) waits for its sync message to be processed before the
        # scripted pause begins, so slow QUEUESYNC processing inflates
        # elapsed time without touching event latencies — the Figure 7
        # Windows 95 anomaly.
        self._awaiting_qs = False
        self._qs_retrieved = False
        self._pending_pause_ns = 0
        #: True while run_to_completion's predicate-free run is active;
        #: the finishing _step then stops the simulator directly.
        self._stop_on_finish = False
        if queuesync:
            system.hooks.register("GetMessage", self._on_hook_record)
            system.hooks.register("PeekMessage", self._on_hook_record)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def start(self, start_ns: Optional[int] = None) -> None:
        """Begin playback at ``start_ns`` (default: 100 ms from now)."""
        at = start_ns if start_ns is not None else self.system.now + ns_from_ms(100)
        self.system.sim.schedule_at(at, self._step, label="mstest-step")

    def run_to_completion(self, max_seconds: float = 3600.0) -> int:
        """Start (if needed), run the simulation until the script ends,
        then let the system settle.  Returns the finish time."""
        if self._index == 0 and not self.finished:
            self.start()
        deadline = self.system.now + ns_from_ms(max_seconds * 1000.0)
        # The final _step calls sim.stop() (armed below) when the script
        # ends, so the run needs no per-event ``until`` predicate — the
        # engine stops at exactly the same event without evaluating one
        # between every two events.
        if not self.finished:
            self._stop_on_finish = True
            try:
                self.system.sim.run(until_ns=deadline)
            finally:
                self._stop_on_finish = False
        if not self.finished:
            raise TimeoutError(
                f"script did not finish within {max_seconds} s of simulated time"
            )
        self.system.run_until_quiescent(max_ns=deadline)
        self.system.run_for(ns_from_ms(50))
        return self.system.now

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _schedule_step(self, delay_ns: int) -> None:
        self.system.sim.schedule(delay_ns, self._step, label="mstest-step")

    def _pause_after(self, action) -> int:
        if getattr(action, "pause_ms", None) is not None:
            return ns_from_ms(action.pause_ms)
        return self.default_pause_ns

    def _step(self) -> None:
        # Zero-time actions (marks) are folded into this step.
        while self._index < len(self.script):
            action = self.script[self._index]
            self._index += 1
            if isinstance(action, Mark):
                self.marks.append((action.label, self.system.now))
                continue
            if isinstance(action, Pause):
                self._schedule_step(ns_from_ms(action.ms))
                return
            if isinstance(action, WaitIdle):
                self._wait_deadline = self.system.now + ns_from_ms(action.timeout_ms)
                self._poll_idle(ns_from_ms(action.settle_ms))
                return
            if isinstance(action, Key):
                self.system.machine.keyboard.keystroke(action.key)
                self._injected_actions.append(action)
                self._after_input(self._pause_after(action))
                return
            if isinstance(action, Click):
                self.system.machine.mouse.move(action.x, action.y)
                self.system.machine.mouse.click(
                    button=action.button, hold_ns=ns_from_ms(action.hold_ms)
                )
                self._injected_actions.append(action)
                self._after_input(
                    self._pause_after(action) + ns_from_ms(action.hold_ms),
                    extra_delay_ns=ns_from_ms(action.hold_ms),
                )
                return
            if isinstance(action, Command):
                self.system.post_command(action.payload)
                self._injected_actions.append(action)
                self._after_input(self._pause_after(action))
                return
            raise TypeError(f"unknown script action {action!r}")
        self.finished = True
        if self._stop_on_finish:
            self.system.sim.stop()

    def _after_input(self, pause_ns: int, extra_delay_ns: int = 0) -> None:
        self.events_injected += 1
        self.injection_times.append(self.system.now)
        if not self.queuesync:
            self._schedule_step(pause_ns)
            return
        # Post the sync message behind the input's own messages, then
        # hold the scripted pause until its round trip completes.
        self._pending_pause_ns = pause_ns
        self._qs_retrieved = False

        def post_and_arm() -> None:
            self._awaiting_qs = True
            self.system.post_queuesync()

        self.system.sim.schedule(
            self.QUEUESYNC_DELAY_NS + extra_delay_ns,
            post_and_arm,
            label="mstest-queuesync",
        )
        self.system.sim.schedule(
            self.QUEUESYNC_TIMEOUT_NS + extra_delay_ns,
            self._qs_timeout,
            label="mstest-qs-timeout",
        )

    def _on_hook_record(self, record) -> None:
        if not self._awaiting_qs:
            return
        message = record.message
        if not self._qs_retrieved:
            from ..winsys.messages import WM

            if message is not None and message.kind == WM.QUEUESYNC:
                self._qs_retrieved = True
            return
        # First API call after the QUEUESYNC retrieval: the app is done
        # processing it; the scripted pause starts now.
        self._awaiting_qs = False
        self._schedule_step(self._pending_pause_ns)

    def _qs_timeout(self) -> None:
        if self._awaiting_qs:
            self._awaiting_qs = False
            self._schedule_step(self._pending_pause_ns)

    # ------------------------------------------------------------------
    # Capture / replay
    # ------------------------------------------------------------------
    def recorded_script(self) -> InputScript:
        """The injected input as a replayable script with exact timing.

        Pauses come from the *observed* injection gaps, so replaying the
        recording (with any driver, on any OS) reproduces this run's
        input stream precisely — how the paper's hand-generated trials
        kept "the same typist and input" comparable across runs.
        """
        actions = []
        for index, action in enumerate(self._injected_actions):
            if index + 1 < len(self.injection_times):
                gap_ms = (
                    self.injection_times[index + 1] - self.injection_times[index]
                ) / 1e6
                if isinstance(action, Click):
                    gap_ms = max(0.0, gap_ms - action.hold_ms)
                actions.append(dataclasses.replace(action, pause_ms=gap_ms))
            else:
                actions.append(action)
        return InputScript(actions)

    def _poll_idle(self, settle_ns: int) -> None:
        if self.system.quiescent() or self.system.now >= self._wait_deadline:
            self._schedule_step(settle_ns)
            return
        self.system.sim.schedule(
            self.IDLE_POLL_NS, lambda: self._poll_idle(settle_ns), label="mstest-poll"
        )
