"""Microsoft Word model.

Section 5.4's findings drive this model:

* Word does substantial *foreground* work per keystroke (variable-width
  layout, formatting) — the ~32 ms typical hand-typed latency on
  NT 3.51;
* it "responds to input events and handles background computations
  asynchronously using an internal system of coroutines" — modelled as
  a queue of background units (interactive spell-check, repagination)
  drained either lazily via a timer (realistic behaviour) or
  synchronously when MS Test's WM_QUEUESYNC arrives — the paper's
  hypothesis for why Test-driven events measured 80-100 ms while
  hand-typed events measured ~32 ms;
* carriage returns force a paragraph relayout *and* drain whatever
  background work is pending, which is why hand-typed CRs exceeded
  200 ms while Test-driven runs (whose queues stay drained) never
  passed 140 ms;
* on Windows 95 the system "does not become idle immediately after
  Word finishes handling an event": with
  ``personality.app_idle_detection_reliable == False`` the background
  engine busy-polls PeekMessage for seconds after every event,
  destroying idle-loop measurement exactly as the paper reports.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, Optional

from ..sim.timebase import ns_from_ms, ns_from_sec
from ..winsys.syscalls import Syscall
from .base import InteractiveApp

__all__ = ["WordApp"]

_BG_TIMER_ID = 7


class WordApp(InteractiveApp):
    """Word processor with asynchronous background computation."""

    name = "word"
    #: Foreground layout+echo per printable character (GUI path).
    CHAR_FG_BASE = 1_830_000
    #: One background unit (spell-check / repagination slice).
    BG_UNIT_BASE = 760_000
    #: Extra foreground work when a line fills (justification).
    LINE_JUSTIFY_BASE = 800_000
    #: Carriage return: paragraph relayout (GUI path).
    PARAGRAPH_BASE = 5_500_000
    #: Caret movement (arrows).
    CARET_BASE = 250_000
    #: Per-keystroke glyph drawing (batched GDI).
    GLYPH_DRAW_BASE = 220_000
    #: Background units drained per timer firing (lazy mode).
    BG_CHUNK_UNITS = 3
    #: Lazy-drain timer period.
    BG_TIMER_PERIOD_NS = ns_from_ms(100)
    #: The background coroutine defers to recent foreground activity:
    #: a timer firing this soon after an input event does no work.
    BG_POLITENESS_NS = ns_from_ms(60)
    #: A carriage return repaginates its own paragraph: it drains at
    #: most this many pending units synchronously (the rest stay lazy).
    CR_DRAIN_LIMIT = 16
    #: Characters per visual line before justification triggers.
    LINE_WIDTH = 65

    def __init__(self, system) -> None:
        super().__init__(system)
        self._rng = system.machine.rngs.stream("app:word")
        self._pending: Deque[int] = deque()  # queued background units (cycles)
        self._last_input_ns = 0
        self._timer_active = False
        self._chars_in_line = 0
        self._chars_in_word = 0
        #: Remaining busy-poll budget after an event (Win95 quirk), ns.
        self._spin_budget_ns = 0
        # Diagnostics.
        self.chars_typed = 0
        self.bg_units_run = 0
        self.paragraphs = 0

    # ------------------------------------------------------------------
    # Foreground handling
    # ------------------------------------------------------------------
    def _fg_noise(self) -> float:
        """Layout cost varies with line content (±12%)."""
        return self._rng.uniform(0.88, 1.12)

    def _queue_units(self, count: int) -> None:
        for _ in range(count):
            self._pending.append(self.BG_UNIT_BASE)

    def _after_event(self) -> Iterator[Syscall]:
        """Arrange background draining after a foreground event."""
        self._last_input_ns = self.system.now
        if not self.personality.app_idle_detection_reliable:
            # Win95: the app never reliably notices idleness; it will
            # busy-poll (see run_background_step) for a while.
            self._spin_budget_ns = ns_from_sec(self._rng.uniform(2.0, 3.5))
            return
        if self._pending and not self._timer_active:
            yield self.set_timer(_BG_TIMER_ID, self.BG_TIMER_PERIOD_NS)
            self._timer_active = True

    def on_char(self, char: str) -> Iterator[Syscall]:
        self.chars_typed += 1
        if char == "\n":
            yield from self._carriage_return()
            return
        fg = round(self.CHAR_FG_BASE * self._fg_noise())
        yield self.gui_compute(fg, label="word-layout")
        yield self.draw(self.GLYPH_DRAW_BASE, pixels=14 * 18, label="word-glyph")
        self._queue_units(self._rng.randint(5, 8))
        self._chars_in_line += 1
        if char == " ":
            # Word boundary: interactive spell check of the word.
            self._queue_units(self._rng.randint(1, 2))
            self._chars_in_word = 0
        else:
            self._chars_in_word += 1
        if self._chars_in_line >= self.LINE_WIDTH:
            # Line filled: justification relayout (line justification
            # "was enabled", Section 5.4).
            yield self.gui_compute(
                round(self.LINE_JUSTIFY_BASE * self._fg_noise()),
                label="word-justify",
            )
            self._queue_units(2)
            self._chars_in_line = 0
        yield from self._after_event()

    def _carriage_return(self) -> Iterator[Syscall]:
        self.paragraphs += 1
        yield self.gui_compute(
            round(self.PARAGRAPH_BASE * self._fg_noise()), label="word-paragraph"
        )
        # Paragraph end forces the paragraph's pending background work
        # synchronously (repagination + spell check); older backlog
        # stays lazy.  Under MS Test the queue is always near-empty
        # (WM_QUEUESYNC drained it each keystroke), so Test CRs stay
        # under ~140 ms while hand-typed CRs exceed 200 ms — the
        # Section 5.4 discrepancy.
        yield from self._drain(self.CR_DRAIN_LIMIT)
        self._queue_units(self._rng.randint(2, 4))
        self._chars_in_line = 0
        yield from self._after_event()

    def on_key(self, key: str) -> Iterator[Syscall]:
        if key in ("Left", "Right", "Up", "Down"):
            yield self.gui_compute(self.CARET_BASE, label="word-caret")
        elif key == "Backspace":
            fg = round(self.CHAR_FG_BASE * 0.6 * self._fg_noise())
            yield self.gui_compute(fg, label="word-backspace")
            yield self.draw(self.GLYPH_DRAW_BASE, pixels=200 * 18, label="word-bs")
            self._queue_units(self._rng.randint(2, 4))
            self._chars_in_line = max(0, self._chars_in_line - 1)
            yield from self._after_event()
        elif key == "Enter":
            yield from self._carriage_return()
        elif len(key) == 1:
            yield self.app_compute(6_000, label="word-translate")
        else:
            yield from super().on_key(key)

    def on_keyup(self, key: str) -> Iterator[Syscall]:
        yield self.user_compute(15_000, label="word-keyup")

    # ------------------------------------------------------------------
    # WM_QUEUESYNC: the MS Test artifact (Section 5.4 hypothesis)
    # ------------------------------------------------------------------
    def on_queuesync(self) -> Iterator[Syscall]:
        yield from self._drain(None)

    def _drain(self, limit: Optional[int]) -> Iterator[Syscall]:
        drained = 0
        while self._pending and (limit is None or drained < limit):
            cycles = self._pending.popleft()
            self.bg_units_run += 1
            drained += 1
            yield self.app_compute(cycles, label="word-bg-sync")

    # ------------------------------------------------------------------
    # Lazy background draining (timer on NT, busy-poll on Win95)
    # ------------------------------------------------------------------
    def on_timer(self, timer_id: int) -> Iterator[Syscall]:
        if timer_id != _BG_TIMER_ID:
            yield from super().on_timer(timer_id)
            return
        if self.system.now - self._last_input_ns < self.BG_POLITENESS_NS:
            return  # defer to foreground responsiveness; fire again later
        for _ in range(self.BG_CHUNK_UNITS):
            if not self._pending:
                break
            cycles = self._pending.popleft()
            self.bg_units_run += 1
            yield self.app_compute(cycles, label="word-bg-timer")
        if not self._pending and self._timer_active:
            yield self.kill_timer(_BG_TIMER_ID)
            self._timer_active = False

    def has_background_work(self) -> bool:
        if self.personality.app_idle_detection_reliable:
            return False  # timer-based draining; the pump blocks normally
        return bool(self._pending) or self._spin_budget_ns > 0

    def run_background_step(self) -> Iterator[Syscall]:
        """Win95 mode: one busy-poll iteration."""
        if self._pending:
            cycles = self._pending.popleft()
            self.bg_units_run += 1
            yield self.app_compute(cycles, label="word-bg-poll")
            return
        poll_cycles = 40_000
        self._spin_budget_ns -= self.system.machine.cpu.duration_ns(
            self.personality.app_work(poll_cycles)
        ) + 50_000  # PeekMessage overhead approximation
        yield self.app_compute(poll_cycles, label="word-idle-poll")
