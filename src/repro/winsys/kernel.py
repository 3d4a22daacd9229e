"""The simulated Windows kernel.

Ties the scheduler, message queues, Win32 API layer, I/O manager and
input pipeline to one :class:`~repro.sim.machine.Machine`.  Application
threads are generators yielding :mod:`~repro.winsys.syscalls` objects;
the kernel performs each request, charging its CPU cost through the
machine's CPU model so that *every* cycle of system activity is visible
to an idle-loop instrument — the property the paper's methodology
depends on (Figure 1: the idle loop sees the interrupt handling and
rescheduling that getchar()-timestamping misses).

Scheduling model:

* DPCs (deferred procedure calls) run before any thread; they carry the
  system-side input dispatching, disk completion work and per-tick
  housekeeping.
* Threads run strictly by priority with clock-tick round-robin among
  equals.
* When nothing is runnable the CPU is idle — unless an instrument has
  installed an idle-priority thread (Section 2.3).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..sim.devices.disk import DiskRequest
from ..sim.devices.keyboard import KeyEvent
from ..sim.devices.mouse import MouseEvent
from ..sim.engine import Periodic, fast_forward_default
from ..sim.machine import Machine
from ..sim.timebase import NS_PER_SEC
from ..sim.work import HwEvent, Work
from .filesystem import BufferCache, FileSystem
from .gdi import GdiBatch
from .hooks import ApiCallRecord, HookManager
from .iomgr import IoManager
from .messages import WM, Message
from .personality import OSPersonality
from .scheduler import Scheduler
from .syscalls import (
    Compute,
    GdiFlush,
    GdiOp,
    GetMessage,
    IdleCompute,
    KillTimer,
    PeekMessage,
    ReadCycleCounter,
    SetTimer,
    SyncRead,
    SyncWrite,
)
from .threads import IDLE_PRIORITY, NORMAL_PRIORITY, SimThread, ThreadState

__all__ = ["Kernel", "KernelPanic"]

# Sentinel a pending action returns when it left the thread blocked.
_BLOCKED = object()
_SPIN_CYCLES = 10**14  # open-ended busy-wait; cancelled, never completed


class KernelPanic(RuntimeError):
    """Internal inconsistency in the simulated kernel."""


@dataclass
class _Dpc:
    """One deferred procedure call: system work plus a post-action."""

    work: Work
    action: Optional[Callable[[], None]]
    label: str = ""


class _DpcContext:
    """CPU context marker for DPC execution (not a schedulable thread)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<dpc>"


class _SpinContext:
    """CPU context marker for the Win95 mouse busy-wait."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<mouse-spin>"


@dataclass
class _Timer:
    thread: SimThread
    timer_id: int
    period_ns: int
    next_due_ns: int


class Kernel:
    """Scheduler + syscall dispatcher for one booted operating system."""

    def __init__(self, machine: Machine, personality: OSPersonality) -> None:
        self.machine = machine
        self.personality = personality
        self.sim = machine.sim
        self.cpu = machine.cpu
        self.scheduler = Scheduler()
        self.hooks = HookManager()
        self.filesystem = FileSystem(
            total_blocks=machine.spec.disk_geometry.total_blocks,
            block_size=personality.block_size,
            kind=personality.filesystem_kind,
        )
        self.buffer_cache = BufferCache(personality.buffer_cache_blocks)
        self.iomgr = IoManager(machine.disk, self.buffer_cache, personality)
        self.threads: List[SimThread] = []
        self.foreground: Optional[SimThread] = None
        #: Thread receiving WM_SOCKET notifications (None = foreground).
        self.socket_owner: Optional[SimThread] = None
        self.running: object = None  # SimThread | _DpcContext | None
        self._dpc_context = _DpcContext()
        self._spin_context = _SpinContext()
        self._dpc_queue: Deque[_Dpc] = deque()
        self._active_dpc: Optional[_Dpc] = None
        self._dispatch_scheduled = False
        self._timers: Dict[Tuple[int, int], _Timer] = {}
        self._gdi_batches: Dict[int, GdiBatch] = {}
        #: Override for every thread's GDI batch limit; 1 disables
        #: batching (the partial mitigation Section 1.1 mentions).
        self.gdi_batch_limit_override: Optional[int] = None
        self._spin_active = False
        self._spin_began_ns = 0
        self._pending_mouse_down: Optional[MouseEvent] = None
        self._booted = False
        #: Idle fast-forward switch (see :meth:`_try_fast_forward`).  The
        #: result is bit-identical either way; the default comes from the
        #: enclosing :func:`~repro.sim.engine.fast_forward_scope`, which
        #: ``--no-fast-forward`` turns off for A/B comparison.
        self.fast_forward = fast_forward_default()
        # Diagnostics.
        self.context_switches = 0
        self.dpcs_run = 0
        #: Instrumented jumps taken and the records they completed in
        #: closed form, the clock ticks any jump crossed, and those the
        #: instrumented jump crossed in runs of plain ticks.  Diagnostics
        #: only: no digest includes them.
        self.fast_forward_batches = 0
        self.fast_forward_segments = 0
        self.ticks_crossed = 0
        self.ticks_in_runs = 0
        #: Why each jump stopped, or declined to cross a tick (see
        #: :meth:`_try_fast_forward`, :meth:`_try_quiescent_jump` and
        #: :meth:`_try_busy_jump`).  Diagnostics only: no digest
        #: includes it.
        self.jump_stops: Counter = Counter()
        #: Why each call that took no jump at all declined before
        #: looking at the calendar (see :meth:`_decline_reason`,
        #: :meth:`_try_quiescent_jump` and :meth:`_try_busy_jump`).  With
        #: ``jump_stops`` it accounts for every call of the three jumps.
        #: Diagnostics only.
        self.jump_declines: Counter = Counter()
        #: Engine ``next_seq`` where the last jump stopped.  The
        #: instrument yields again at once, and until something is
        #: scheduled a retry would stop at the same place.
        self._jump_stopped_at = -1
        #: Trace-and-metrics sink (a SystemInstrumentation from
        #: repro.obs), bound at boot only when the session has a live
        #: tracer or metrics registry; None otherwise.
        self.obs = None
        #: Stage-envelope recorder (an EnvelopeRecorder from repro.obs),
        #: bound at boot only when the session records envelopes.
        self.envelopes = None
        # Precompiled engine handler ids for the kernel's own recurring
        # events: one heap tuple each, no handle/closure/label per
        # occurrence (docs/performance.md, "inner loop").
        self._dispatch_hid = self.sim.register_handler(self._dispatch)
        #: The Windows 95 idle background, armed at boot when the
        #: personality has one; the jumps cross and re-key it like a
        #: tick.
        self._idle_bg = Periodic(
            self.sim,
            self._idle_background_tick,
            personality.idle_background_period_ns,
        )
        #: Durations of the clock ISR, the tick DPC, the housekeeping DPC
        #: and the idle background DPC, for the jumps that cross them.
        self._chain_ns = (
            self.cpu.duration_ns(personality.clock_isr_work),
            self.cpu.duration_ns(personality.tick_dpc_work),
            self.cpu.duration_ns(personality.housekeeping_work),
            self.cpu.duration_ns(personality.idle_background_work),
        )
        #: The fewest cycles a segment needs to last one tick period: the
        #: busy jump declines every shorter segment at once.
        self._tick_cycles = -(
            -machine.clock.period_ns * self.cpu.hz // NS_PER_SEC
        )
        #: Other components' periodic entries that touch nothing on this
        #: machine while their ``idle`` holds (the remote server's frame
        #: tick): the jump without the instrument crosses them too.
        self.periodic: List[Periodic] = []
        # Precompiled syscall dispatch table: concrete syscall class →
        # bound perform method, so the steady state is one dict hit per
        # syscall instead of an isinstance chain.  A class missing here
        # is a KernelPanic.
        self._perform_table = {
            Compute: self._perform_compute,
            IdleCompute: self._perform_compute,
            GetMessage: self._perform_getmessage,
            PeekMessage: self._perform_peekmessage,
            GdiOp: self._perform_gdiop,
            GdiFlush: self._perform_gdiflush,
            SyncRead: self._perform_syncread,
            SyncWrite: self._perform_syncwrite,
            SetTimer: self._perform_settimer,
            KillTimer: self._perform_killtimer,
            ReadCycleCounter: self._perform_rdtsc,
        }

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------
    def boot(self) -> None:
        """Wire interrupt vectors, start the clock, begin dispatching."""
        if self._booted:
            raise KernelPanic("kernel booted twice")
        self._booted = True
        personality = self.personality
        interrupts = self.machine.interrupts
        interrupts.set_isr_work("clock", personality.clock_isr_work)
        interrupts.set_isr_work("keyboard", personality.keyboard_isr_work)
        interrupts.set_isr_work("mouse", personality.mouse_isr_work)
        interrupts.set_isr_work("disk", personality.disk_isr_work)
        interrupts.set_isr_work("nic", personality.nic_isr_work)
        interrupts.set_handler("clock", self._on_clock_tick)
        interrupts.set_handler("keyboard", self._on_keyboard)
        interrupts.set_handler("mouse", self._on_mouse)
        interrupts.set_handler("disk", self._on_disk)
        interrupts.set_handler("nic", self._on_packet)
        self.machine.power_on()
        if (
            personality.idle_background_period_ns > 0
            and personality.idle_background_cycles > 0
        ):
            self._arm_idle_background()

    # ------------------------------------------------------------------
    # Thread management
    # ------------------------------------------------------------------
    def create_thread(
        self,
        name: str,
        program,
        priority: int = NORMAL_PRIORITY,
    ) -> SimThread:
        """Create and ready a thread around a generator ``program``."""
        thread = SimThread(name=name, program=program, priority=priority)
        self.threads.append(thread)
        thread.queue.add_post_callback(
            lambda message, t=thread: self._on_message_posted(t, message)
        )
        # Both subscribe to the thread's queue; the recorder first, so
        # its stage spans precede the sink's message instant.
        if self.envelopes is not None:
            self.envelopes.thread_created(thread)
        if self.obs is not None:
            self.obs.thread_created(thread)
        self.scheduler.make_ready(thread)
        self._request_dispatch()
        return thread

    def set_foreground(self, thread: SimThread) -> None:
        """Give ``thread`` the input focus (messages route to its queue)."""
        self.foreground = thread

    def gdi_batch(self, thread: SimThread) -> GdiBatch:
        batch = self._gdi_batches.get(thread.tid)
        if batch is None:
            batch = GdiBatch(
                self.personality, batch_limit=self.gdi_batch_limit_override
            )
            self._gdi_batches[thread.tid] = batch
        return batch

    def post_message(self, thread: SimThread, message: Message) -> None:
        """Kernel-side message post (input pipeline, drivers)."""
        thread.queue.post(message, self.sim.now)

    def post_to_foreground(self, message: Message) -> None:
        if self.foreground is None:
            raise KernelPanic("no foreground thread to receive input")
        self.post_message(self.foreground, message)

    # ------------------------------------------------------------------
    # Dispatching
    # ------------------------------------------------------------------
    def _request_dispatch(self) -> None:
        if self._dispatch_scheduled:
            return
        self._dispatch_scheduled = True
        self.sim.schedule_kind(0, self._dispatch_hid)

    def _dispatch(self) -> None:
        self._dispatch_scheduled = False
        if self._spin_active:
            return  # the busy-wait owns the processor until cancelled
        # DPCs run ahead of any thread.
        if self._dpc_queue:
            if self.cpu.busy:
                if self.running is self._dpc_context:
                    return  # current DPC finishes first, then queue drains
                self._preempt_running_thread()
            self._start_next_dpc()
            return
        if self.cpu.busy:
            if isinstance(self.running, SimThread):
                if self.scheduler.top > self.running.priority:
                    self._preempt_running_thread()
                else:
                    return
            else:
                return  # DPC executing and no further DPCs queued
        if not self.cpu.busy:
            thread = self.scheduler.pick()
            if thread is not None:
                self._run_thread(thread)
            elif self.fast_forward:
                self._try_quiescent_jump()

    def _preempt_running_thread(self) -> None:
        thread = self.running
        if not isinstance(thread, SimThread):
            raise KernelPanic(f"cannot preempt context {thread!r}")
        context, remaining = self.cpu.preempt()
        if context is not thread:
            raise KernelPanic("CPU context does not match running thread")
        thread.pending_work = remaining
        self.running = None
        self.context_switches += 1
        if self.obs is not None:
            self.obs.run_end(thread, "preempt")
            self.obs.context_switch("preempt")
        self.scheduler.make_ready(thread, front=True)

    def _run_thread(self, thread: SimThread) -> None:
        self.running = thread
        thread.dispatches += 1
        if self.obs is not None:
            self.obs.run_begin(thread)
        if thread.pending_work is not None:
            work = thread.pending_work
            thread.pending_work = None
            self.cpu.start(work, thread, self._work_done)
            if self.fast_forward and thread.priority > IDLE_PRIORITY:
                self._try_busy_jump(thread, work)
            return
        resume = thread.resume_value
        thread.resume_value = None
        self._advance(thread, resume)

    def _work_done(self, context: object) -> None:
        if context is self._dpc_context:
            dpc = self._active_dpc
            self._active_dpc = None
            self.running = None
            self.dpcs_run += 1
            if self.obs is not None:
                self.obs.dpc_end(dpc.label if dpc is not None else "")
            if dpc is not None and dpc.action is not None:
                dpc.action()
            self._request_dispatch()
            return
        if context is self._spin_context:
            raise KernelPanic("mouse busy-wait completed; it must be cancelled")
        thread = context
        if not isinstance(thread, SimThread):
            raise KernelPanic(f"unknown CPU context {context!r}")
        result: object = None
        action = thread.pending_action
        if action is not None:
            thread.pending_action = None
            arg = thread.pending_action_arg
            if arg is None:
                result = action()
            else:
                thread.pending_action_arg = None
                result = action(arg)
        if result is _BLOCKED:
            if self.obs is not None:
                self.obs.run_end(thread, thread.wait_reason or "block")
            self.running = None
            self._request_dispatch()
            return
        if self.scheduler.top > thread.priority or self._dpc_queue:
            thread.resume_value = result
            self.running = None
            if self.obs is not None:
                self.obs.run_end(thread, "preempt-pending")
            self.scheduler.make_ready(thread, front=True)
            self._request_dispatch()
            return
        self._advance(thread, result)

    def _advance(self, thread: SimThread, send_value: object) -> None:
        """Drive the thread's generator until it blocks or hits the CPU."""
        table = self._perform_table
        while True:
            try:
                syscall = thread.advance(send_value)
            except StopIteration:
                self._finish_thread(thread)
                return
            perform = table.get(syscall.__class__)
            if perform is None:
                raise KernelPanic(f"unknown syscall class {syscall.__class__!r}")
            outcome = perform(thread, syscall)
            if outcome[0] == "result":
                send_value = outcome[1]
                continue
            # ("compute", work, action, arg): run ``work`` on the CPU,
            # then ``action(arg)`` (or ``action()`` when arg is None)
            # from _work_done.
            thread.pending_action = outcome[2]
            thread.pending_action_arg = outcome[3]
            self.cpu.start(outcome[1], thread, self._work_done)
            if self.fast_forward and thread.priority > IDLE_PRIORITY:
                self._try_busy_jump(thread, outcome[1])
            return

    def _finish_thread(self, thread: SimThread) -> None:
        thread.state = ThreadState.DONE
        if self.obs is not None:
            self.obs.run_end(thread, "exit")
        self.running = None
        self._request_dispatch()

    def _wake(self, thread: SimThread, resume_value: object = None) -> None:
        """Unblock a thread; preemption happens via the deferred dispatch."""
        if thread.state != ThreadState.BLOCKED:
            return
        thread.resume_value = resume_value
        thread.quantum_ticks_used = 0  # fresh quantum after blocking
        self.scheduler.make_ready(thread)
        self._request_dispatch()

    def quiescent(self) -> bool:
        """No thread above idle priority running or ready, no DPC queued
        or running, no Win95 spin, no timer armed, no pending I/O and no
        message queued for a thread above idle priority.

        ``WindowsSystem.run_until_quiescent`` runs the calendar with this
        test as its ``until`` predicate, which the jumps recognise (see
        :meth:`_until_hold`).
        """
        if self._dpc_queue or self._spin_active or self._active_dpc or self._timers:
            return False
        running = self.running
        if running is not None and (
            not isinstance(running, SimThread) or running.priority > IDLE_PRIORITY
        ):
            return False
        top = self.scheduler.top_priority()
        if (top is not None and top > IDLE_PRIORITY) or self.iomgr.pending_ops:
            return False
        for thread in self.threads:
            if thread.priority > IDLE_PRIORITY and len(thread.queue) and not thread.done:
                return False
        return True

    def _until_hold(self) -> Optional[str]:
        """Why the active run's ``until`` predicate forbids a jump to
        cross periodic entries, or None when it does not.

        The slow path tests the predicate after every event.  When it
        is the kernel's own test, :meth:`quiescent`, and the test is
        False at the jump's start, it is False because of a busy
        thread, a DPC queued or running, pending I/O, or messages queued
        for a blocked thread (an armed timer holds every jump anyway).
        No crossed tick, DPC or idle background changes any of these,
        so the test stays False through the jump and the run stops at
        the slow path's event.  Any other predicate, or the test True,
        holds.
        """
        until = self.sim.until
        if until is None or (until == self.quiescent and not self.quiescent()):
            return None
        return "until run"

    # ------------------------------------------------------------------
    # Syscall execution
    # ------------------------------------------------------------------
    # One method per syscall class, dispatched through _perform_table.
    # Every method returns one of:
    #
    #   ("compute", work, action, arg)  — run ``work`` on the CPU, then
    #       ``action(arg)`` (``action()`` when arg is None);
    #   ("result", value)               — resume the generator with value.
    #
    # Actions are prebound methods with their argument carried in the
    # outcome tuple, so the hot path allocates no closures.  An action
    # that leaves the thread blocked returns the _BLOCKED sentinel.

    def _perform_compute(self, thread: SimThread, syscall: Compute):
        if syscall.__class__ is IdleCompute and self.fast_forward:
            ramps = self._try_fast_forward(thread, syscall)
            if ramps is not None:
                return ("result", ramps)
        return ("compute", syscall.work, None, None)

    def _perform_getmessage(self, thread: SimThread, syscall: GetMessage):
        # The interposed DLL sees the call as it is made; with no DLL
        # installed the record is never built (the call still counts).
        hooks = self.hooks
        if hooks.active:
            hooks.fire(
                ApiCallRecord(
                    time_ns=self.sim.now,
                    thread_name=thread.name,
                    api="GetMessage",
                    queue_len=len(thread.queue),
                    message=None,
                    blocked=thread.queue.empty,
                )
            )
        else:
            hooks.calls_seen += 1
        cost = self.personality.user_call_work
        # The GDI batch flushes when the thread is about to block —
        # while input keeps arriving the batch keeps accumulating,
        # which is the throughput-vs-responsiveness batching
        # behaviour of Section 1.1.
        if thread.queue.empty:
            flush = self.gdi_batch(thread).flush()
            if flush is not None:
                cost = cost.plus(flush, label="getmessage+flush")
        return ("compute", cost, self._getmessage_action, thread)

    def _perform_peekmessage(self, thread: SimThread, syscall: PeekMessage):
        hooks = self.hooks
        if hooks.active:
            hooks.fire(
                ApiCallRecord(
                    time_ns=self.sim.now,
                    thread_name=thread.name,
                    api="PeekMessage",
                    queue_len=len(thread.queue),
                    message=None,
                    blocked=False,
                )
            )
        else:
            hooks.calls_seen += 1
        cost = self.personality.user_call_work
        if thread.queue.empty:
            flush = self.gdi_batch(thread).flush()
            if flush is not None:
                cost = cost.plus(flush, label="peekmessage+flush")
        return ("compute", cost, self._peekmessage_action, thread)

    def _perform_gdiop(self, thread: SimThread, syscall: GdiOp):
        flush_work = self.gdi_batch(thread).add(syscall)
        if syscall.pixels:
            self.machine.display.paint(syscall.pixels)
        if flush_work is not None:
            return ("compute", flush_work, None, None)
        return ("result", None)

    def _perform_gdiflush(self, thread: SimThread, syscall: GdiFlush):
        flush_work = self.gdi_batch(thread).flush()
        if flush_work is not None:
            return ("compute", flush_work, None, None)
        return ("result", None)

    def _perform_syncread(self, thread: SimThread, syscall: SyncRead):
        plan = self.iomgr.plan_read(syscall.file, syscall.offset, syscall.length)
        return ("compute", plan.cpu_work, self._sync_io_action, (thread, plan))

    def _perform_syncwrite(self, thread: SimThread, syscall: SyncWrite):
        plan = self.iomgr.plan_write(syscall.file, syscall.offset, syscall.length)
        return ("compute", plan.cpu_work, self._sync_io_action, (thread, plan))

    def _perform_settimer(self, thread: SimThread, syscall: SetTimer):
        period = max(syscall.period_ns, self.machine.spec.clock_period_ns)
        # next_due is anchored at issue time, not at the syscall cost's
        # completion — the timer period starts when SetTimer is called.
        return (
            "compute",
            self.personality.syscall_work,
            self._set_timer_action,
            (thread, syscall.timer_id, period, self.sim.now),
        )

    def _set_timer_action(self, spec):
        thread, timer_id, period, issued_ns = spec
        self._timers[(thread.tid, timer_id)] = _Timer(
            thread=thread,
            timer_id=timer_id,
            period_ns=period,
            next_due_ns=issued_ns + period,
        )
        return None

    def _perform_killtimer(self, thread: SimThread, syscall: KillTimer):
        return (
            "compute",
            self.personality.syscall_work,
            self._kill_timer_action,
            (thread.tid, syscall.timer_id),
        )

    def _kill_timer_action(self, key):
        self._timers.pop(key, None)
        return None

    def _perform_rdtsc(self, thread: SimThread, syscall: ReadCycleCounter):
        return ("result", self.machine.perf.read_cycle_counter())

    def _try_fast_forward(self, thread: SimThread, syscall: IdleCompute):
        """Jump a quiescent machine forward, crossing periodic events in
        closed form (``docs/performance.md`` §1).

        Preconditions (otherwise return None and execute the segment
        normally): ``thread`` is the running thread, at idle priority,
        the CPU is free, no DPC is queued, no other thread is ready and
        no Win95 mouse spin is active — nothing but this idle loop can
        touch the processor before the next calendar event — and the
        engine allows a jump (:meth:`Simulator.jump_window`).

        The jump walks the idle loop forward in arithmetic: runs of
        uncontended segments complete in one step, and so do runs of
        plain ticks, each of which only makes one record ``isr_ns``
        late.  Each housekeeping DPC or Win95 idle-background DPC that
        lands in a segment is crossed with the elongation, preemption
        split (rounded as :meth:`CPU.split` rounds it) and charges the
        slow path would produce — also when it lands on the segment's
        end, in the order the calendar runs it — and the splits are
        charged once, at the end (:meth:`_cross_turns`).  The idle
        background with a tick right behind it at the same instant
        (every 110 ms) is one chain, :meth:`_tie`'s.  It ends at a
        segment completion, where the slow path resumes the instrument:
        before the next other live event, at the run horizon, at a full
        trace buffer, or before a segment it does not model (a periodic
        event on the segment's start, a preemption that leaves nothing,
        periodic events whose chains share a span).  It crosses no
        periodic event at all — the zero-tick batch — when a live tracer
        or metrics registry is attached, the issuer reads state at each
        record (``tickless`` is False), an application timer is armed,
        or the run's ``until`` predicate holds it (:meth:`_until_hold`).
        ``jump_stops`` counts why each jump stopped, ``jump_declines``
        why a call declined before the window was asked for, and
        ``ticks_in_runs`` the ticks crossed in runs.

        The crossed events are accounted exactly: executed and sequence
        counters (a plain tick costs 3 events and 4 sequence numbers
        with its segment, a housekeeping tick 6 and 8, a tie 10 and 12),
        re-keyed tick and idle-background entries, ticks and deliveries,
        busy time, hardware events and fractional residuals, context
        switches, DPCs run, the thread's dispatches and quantum ticks (a
        tied tick returns during a DPC and uses none), and the scheduler
        requeue (which replays any requeue-jitter draw).
        Returns the records as ``(start, count)`` ramps (see
        :class:`~repro.winsys.syscalls.IdleCompute`), or None when no
        segment completed; ``tests/test_fastforward.py`` compares every
        such state with the slow path's.
        """
        space = syscall.max_batch
        if (
            space <= 0
            or self.sim.next_seq == self._jump_stopped_at
            or self._dpc_queue
            or self._spin_active
            or self.running is not thread
            or thread.priority != IDLE_PRIORITY
            or self.cpu.busy
            or self.scheduler.top >= 0
        ):
            self.jump_declines[self._decline_reason(thread, space)] += 1
            return None
        cpu = self.cpu
        work = syscall.work
        step = cpu.duration_ns(work)
        if step <= 0:
            self.jump_declines["zero-length segment"] += 1
            return None
        sim = self.sim
        clock = self.machine.clock
        bg = self._idle_bg
        tick = clock.pending
        background = bg.pending
        limit, bound = sim.jump_window(
            (tick[1],) if background is None else (tick[1], background[1])
        )
        if limit is None:
            self.jump_stops[bound] += 1
            return None
        # Why this jump may not cross a periodic event, if it may not.
        if self.obs is not None:
            hold = "observer attached"
        elif not syscall.tickless:
            hold = "record hook"
        elif self._timers:
            hold = "timer armed"
        else:
            hold = self._until_hold()
        period = clock.period_ns
        isr_ns, _dpc_ns, housekeeping_ns, bg_ns = self._chain_ns
        ticks = clock.ticks
        every = self.personality.housekeeping_period_ticks
        cycles = work.cycles
        hz = cpu.hz
        # Runs of plain ticks cross in one step when no tick's record
        # can reach the next tick (the first block of the loop).
        runs = hold is None and period > step + isr_ns

        now = t = sim.now
        base = sim.next_seq
        events = seqs = crossed = ties = whole = in_runs = 0
        housekeeping = backgrounds = turns = busy = 0
        fractions: List[float] = []
        ramps: List[Tuple[int, int]] = []
        ramp_start = ramp_count = 0
        while True:
            if runs and tick[0] > t and (background is None or tick < background):
                # A run of plain ticks.  A tick at ``at`` lets k = (at -
                # 1 - t) // step whole segments complete, and the segment
                # it lands in completes isr_ns late: that record is the
                # next t.  Each tick costs k + 3 events, k + 4 schedules
                # and k + 1 records.  The run ends before the housekeeping
                # tick, a record at or after the idle background or past
                # the window, and a full buffer; the step below takes
                # that tick from there.
                at = tick[0]
                stop_at = at + (-(ticks + crossed + 1) % every) * period
                cap = limit
                if background is not None and background[0] <= limit:
                    cap = background[0] - 1
                free = space
                if not ramp_count:
                    ramp_start = t + step
                while at < stop_at:
                    k = (at - 1 - t) // step
                    record = t + (k + 1) * step + isr_ns
                    if record > cap or k >= free:
                        break
                    if ramp_count or k:
                        ramps.append((ramp_start, ramp_count + k))
                    ramp_start = t = record
                    ramp_count = 1
                    free -= k + 1
                    at += period
                if at != tick[0]:
                    n = (at - tick[0]) // period
                    done = space - free
                    space = free
                    whole += done
                    events += done + 2 * n
                    seqs += done + 3 * n
                    crossed += n
                    in_runs += n
                    # The last tick re-arms with its third schedule.
                    tick = (at, base + seqs - 1)
            # The next periodic event in the calendar's (time, seq) order.
            is_tick = background is None or tick < background
            nxt = tick[0] if is_tick else background[0]
            # Uncontended segments: each completes strictly before the
            # next periodic event and within the window.
            edge = limit if nxt > limit else nxt - 1
            k = min((edge - t) // step, space)
            if k > 0:
                if not ramp_count:
                    ramp_start = t + step
                ramp_count += k
                whole += k
                events += k
                seqs += k
                space -= k
                t += k * step
            if not space:
                reason = "buffer full"
                break
            if nxt > limit:
                reason = bound
                break
            if hold is not None:
                reason = hold
                break
            if nxt <= t:
                reason = "periodic event on a segment edge"
                break
            # The segment [t, t + step] holds the periodic event at nxt.
            # Work out the record it leaves, what the crossed events cost
            # and the keys they re-arm with; commit only if nothing else
            # lands in that span.  ``ticked``, ``due`` and ``ran`` say
            # whether a tick fires, its housekeeping DPC runs and the idle
            # background's DPC runs; ``preempts`` whether a DPC turn
            # preempts the segment after ``executed`` (None: no DPC runs),
            # in which case ``record`` still lacks the remainder.
            on_end = nxt == t + step
            tie = not is_tick and tick[0] == nxt
            first = None
            executed = 0
            completes = 0  # the segment itself completes whole
            if tie:
                # The idle background with a tick right behind it at the
                # same instant (on the segment's end too: both were armed
                # before it started).  The tick's ISR steals before the
                # background's dispatch preempts the segment, so the split
                # leaves the stolen ISR out; the tick DPC and any
                # housekeeping DPC follow the background's, and the
                # remainder completes.
                if isr_ns >= bg_ns:
                    reason = "periodic events share a span"
                    break
                due, record, n_events, last, next_tick, next_bg = self._tie(
                    nxt, ticks + crossed + 1, base + seqs + 1
                )
                executed = max(0, nxt - t - isr_ns)
                # The remainder's completion; the segment's start and the
                # chain's schedules up to the remainder's start.
                n_events += 1
                n_seqs = last + 2
                ticked = ran = preempts = True
            else:
                if is_tick:
                    next_tick = (nxt + period, base + seqs + 3)
                    next_bg = background
                    due = not (ticks + crossed + 1) % every
                    ticked, ran = True, False
                    dpc_ns = housekeeping_ns
                    # The tick and its ISR return; the segment's start and
                    # the tick's three schedules (pushed completion, ISR
                    # return, next tick).
                    n_events, n_seqs = 2, 4
                else:
                    next_tick = tick
                    next_bg = (nxt + bg.period_ns, base + seqs + 2)
                    due = ticked = False
                    ran = True
                    dpc_ns = bg_ns
                    # The event; the segment's start, its dispatch request
                    # and its re-arm.
                    n_events, n_seqs = 1, 3
                rearm = (next_tick if is_tick else next_bg)[0]
                if on_end and step >= rearm - nxt:
                    # Armed after the segment started: the segment completes
                    # first and the event lands on the next one's start.
                    reason = "periodic event on a segment edge"
                    break
                preempts = True
                if is_tick and not due:
                    # A plain tick: the ISR steals its duration, so the
                    # segment completes that much later (on its end too: the
                    # tick was armed first).
                    record = t + step + isr_ns
                    n_events += 1
                    completes = 1
                    preempts = None
                elif not on_end:
                    # The DPC preempts the segment when it is queued (the
                    # ISR return, or the event itself), runs, and the
                    # remainder completes: dispatch, DPC completion,
                    # dispatch, remainder completion; the ISR return's
                    # dispatch request, the DPC's start and completion
                    # request, the remainder's start.
                    executed = nxt - t
                    record = nxt + (isr_ns if is_tick else 0) + dpc_ns
                    n_events += 4
                    n_seqs += 3 + is_tick
                elif is_tick:
                    # Housekeeping on the segment's end: the segment
                    # completes ISR-late before the ISR return queues the
                    # DPC, which then preempts the next segment before it
                    # makes progress.
                    if space < 2:
                        reason = "buffer full"
                        break
                    first = t + step + isr_ns
                    completes = 1
                    record = first + dpc_ns
                    n_events += 5
                    n_seqs += 5
                else:
                    # The idle background on the segment's end: its DPC is
                    # queued first, so the completed segment yields to it
                    # and the record lands when the DPC retires; nothing is
                    # preempted.
                    completes = 1
                    preempts = False
                    record = nxt + dpc_ns
                    n_events += 4
                    n_seqs += 2
            if preempts:
                # The remainder, rounded as CPU.split rounds it; within
                # half a cycle of the end nothing remains.
                fraction = executed / step
                rest = cycles - round(cycles * fraction)
                if rest <= 0:
                    reason = "periodic event on a segment edge"
                    break
                rest_ns = rest * NS_PER_SEC // hz
                record += rest_ns
            if next_tick[0] <= record or (
                next_bg is not None and next_bg[0] <= record
            ):
                reason = "periodic events share a span"
                break
            if record > limit:
                reason = bound
                break
            tick, background = next_tick, next_bg
            crossed += ticked
            ties += tie
            housekeeping += due
            backgrounds += ran
            whole += completes
            if preempts:
                fractions.append(fraction)
                busy += executed + rest_ns
            if preempts is not None:
                turns += 1
            events += n_events
            seqs += n_seqs
            if ramp_count:
                ramps.append((ramp_start, ramp_count))
            if first is not None:
                ramps.append((first, 1))
                space -= 1
            ramp_start, ramp_count = record, 1
            space -= 1
            t = record
        self.jump_stops[reason] += 1
        if ramp_count:
            ramps.append((ramp_start, ramp_count))
        if not ramps:
            return None
        # The tied ticks return while a DPC runs: no quantum tick.
        thread.quantum_ticks_used += crossed - ties
        self.ticks_crossed += crossed
        self.ticks_in_runs += in_runs
        rekeyed = []
        if crossed:
            rekeyed.append((clock, tick))
        if backgrounds:
            rekeyed.append((bg, background))
        self._commit_jump(t - now, events, seqs, rekeyed)
        cpu.credit(work, whole)
        self._credit_dpcs(ties, housekeeping, backgrounds)
        if turns:
            # Each preempted segment's remainder completes whole.
            rests = self._cross_turns(
                thread, turns, work.events, fractions, busy, chained=False
            )
            cpu.perf.charge_events_whole(rests)
        records = syscall.max_batch - space
        self.fast_forward_batches += 1
        self.fast_forward_segments += records
        if self.obs is not None:
            self.obs.fast_forward(records, t - now)
        return ramps

    def _cross_turns(
        self,
        thread: SimThread,
        turns: int,
        events: Dict[HwEvent, int],
        fractions: List[float],
        busy_ns: int,
        chained: bool,
    ) -> Dict[HwEvent, int]:
        """Account, once per jump, the ``turns`` a jump crossed in which
        DPCs took the processor from ``thread`` and a dispatch handed it
        back, and return the event counts the preemptions left.

        ``fractions`` are the executed fractions of the turns that
        preempted a segment with ``events``, in calendar order (see
        :meth:`PerfCounters.charge_splits`, which charges them through
        the order-dependent residual, and ``chained``); each counts a
        context switch.  ``busy_ns`` is the CPU time the preempted
        segments ran.  Every turn requeues the thread at the front and
        picks it again (:meth:`Scheduler.requeue_and_pick`, which
        replays any requeue-jitter draw).
        """
        left = self.cpu.perf.charge_splits(events, fractions, chained)
        self.cpu.busy_ns += busy_ns
        self.context_switches += len(fractions)
        thread.dispatches += turns
        self.scheduler.requeue_and_pick(thread, turns)
        return left

    def _tie(self, at: int, number: int, first: int):
        """The chain in which the Win95 idle background at ``at``, with
        clock tick ``number`` right behind it at the same instant,
        preempts a thread's segment and hands it back; ``first`` is the
        seq of the chain's first schedule.  The instrumented jump and
        the busy jump both cross it.

        The background fires first (armed 55 ms earlier): it requests
        the dispatch (schedule 0) and re-arms (1).  The tick's ISR
        steals, pushing the segment's completion back (2), and the tick
        schedules its ISR return (3) and re-arms (4).  The dispatch
        preempts the segment and starts the background's DPC (5).  The
        ISR returns during that DPC, with the thread ready and so using
        no quantum tick, and queues the tick DPC and its dispatch (6),
        which finds the DPC running.  The DPC's completion requests the
        dispatch (7) that starts the tick DPC (8), whose completion
        requests the next (9).  When the tick is due for housekeeping,
        that dispatch starts the housekeeping DPC (10), whose completion
        requests the next (11).  The last dispatch resumes the remainder.

        Returns whether the tick is due for housekeeping, when the
        resuming dispatch runs, the chain's events up to and including
        it (9, or 11 with housekeeping), the offset among its schedules
        of the remainder's start (10, or 12), and the re-armed tick's
        and background's keys.
        """
        _isr_ns, dpc_ns, housekeeping_ns, bg_ns = self._chain_ns
        due = not number % self.personality.housekeeping_period_ticks
        resume = at + bg_ns + dpc_ns
        if due:
            resume += housekeeping_ns
        return (
            due,
            resume,
            11 if due else 9,
            12 if due else 10,
            (at + self.machine.clock.period_ns, first + 4),
            (at + self._idle_bg.period_ns, first + 1),
        )

    def _credit_dpcs(self, ticks: int, housekeeping: int, backgrounds: int) -> None:
        """Credit whole, and count as run, the tick, housekeeping and
        idle-background DPCs a jump crossed."""
        personality = self.personality
        cpu = self.cpu
        if ticks:
            cpu.credit(personality.tick_dpc_work, ticks)
        if housekeeping:
            cpu.credit(personality.housekeeping_work, housekeeping)
        if backgrounds:
            cpu.credit(personality.idle_background_work, backgrounds)
        self.dpcs_run += ticks + housekeeping + backgrounds

    def _decline_reason(self, thread: SimThread, space: int) -> str:
        """The first precondition of :meth:`_try_fast_forward` that
        failed, in the order it tests them."""
        if space <= 0:
            return "no buffer space"
        if self.sim.next_seq == self._jump_stopped_at:
            # Nothing was scheduled since the last jump stopped here.
            return "futile retry"
        if self._dpc_queue:
            return "DPC queued"
        if self._spin_active:
            return "Win95 spin"
        if self.running is not thread or thread.priority != IDLE_PRIORITY:
            return "not the running idle thread"
        if self.cpu.busy:
            return "CPU busy"
        return "ready thread"

    def _try_quiescent_jump(self) -> None:
        """Cross a quiescent machine's periodic events in closed form
        when no instrument runs (``docs/performance.md`` §1).

        Tried where the machine goes quiescent: from a dispatch that
        finds nothing to run and from the ISR return of a tick that
        queued no DPC (a link delivery to the far side wakes nothing
        here, so the dispatch alone would miss its windows).  It
        declines, before any heap walk, while another component's
        :attr:`periodic` entry is busy, when a live tracer or metrics
        registry is attached, the horizon comes before the next tick,
        nothing was scheduled since the last jump stopped, the machine
        is not quiescent (the CPU busy, a DPC queued, a thread ready or
        an application timer armed), or the run's ``until`` predicate
        holds it (:meth:`_until_hold`).

        Otherwise it merges the clock tick (with its housekeeping DPC),
        the Win95 idle background and the idle :attr:`periodic` entries
        in the calendar's ``(time, seq)`` order, and crosses each
        occurrence whose events all land within the window: a plain
        tick is 2 events, a housekeeping tick 5, an idle background 4
        and another component's idle occurrence 1, and each of these
        events makes one schedule.  The idle background with a tick
        behind it at the same instant (Windows 95, every 110 ms) is
        crossed as one pair.  It stops before the window's bound and
        before an occurrence whose events would interleave with
        another's.  Every crossed event is a whole credit: ISRs and DPCs
        charge no fractional residual.  ``jump_stops`` and
        ``jump_declines`` count every call.
        """
        # Another component's busy entry (a remote server sending
        # frames) wakes the machine within a few ticks, itself or by the
        # traffic it causes, and a jump would cost more than it crosses.
        for entry in self.periodic:
            if entry.pending is not None and not entry.idle:
                self.jump_declines["periodic entry busy"] += 1
                return
        sim = self.sim
        clock = self.machine.clock
        tick = clock.pending
        horizon = sim.horizon
        if self.obs is not None:
            reason = "observer attached"
        elif horizon is not None and horizon < tick[0]:
            reason = "horizon before the next tick"
        elif sim.next_seq == self._jump_stopped_at:
            reason = "futile retry"
        elif self.running is not None or self.cpu.busy:
            reason = "CPU busy"
        elif self._dpc_queue:
            reason = "DPC queued"
        elif self.scheduler.top >= 0:
            reason = "ready thread"
        elif self._timers:
            reason = "timer armed"
        else:
            reason = self._until_hold()
        if reason is not None:
            self.jump_declines[reason] += 1
            return
        # Ticks are crossed in runs between the occurrences of the other
        # entries: the idle background, when armed, and every armed
        # entry of another component.
        bg = self._idle_bg
        others = [bg] if bg.pending is not None else []
        others += [entry for entry in self.periodic if entry.pending is not None]
        keys = [entry.pending for entry in others]
        limit, bound = sim.jump_window([tick[1]] + [key[1] for key in keys])
        if limit is None:
            self.jump_stops[bound] += 1
            return
        isr_ns, _dpc_ns, housekeeping_ns, bg_ns = self._chain_ns
        every = self.personality.housekeeping_period_ticks
        period = clock.period_ns
        ticks = number = clock.ticks
        housekeeping = 0
        now = end = sim.now
        base = sim.next_seq
        events = 0
        # Crossed one-event occurrences at the latest ``end``, to undo
        # if an uncrossed entry ties with them (see below).
        tail = []
        while True:
            key = min(keys) if keys else None
            # The run of ticks whose events all land before ``key`` and
            # within the window.  A plain tick is 2 events, from the tick
            # to its ISR return, and a housekeeping tick 5, up to the
            # dispatch after its DPC; each re-arms with its second
            # schedule.  Only the last tick of a run can be a
            # housekeeping tick that no longer fits.
            edge = limit if key is None or key[0] > limit else key[0] - 1
            run = (edge - isr_ns - tick[0]) // period + 1
            if run > 0:
                top = number + run
                last_at = tick[0] + (run - 1) * period
                if not top % every and last_at + isr_ns + housekeeping_ns > edge:
                    run -= 1
                    top -= 1
                    last_at -= period
                if run:
                    due = top // every - number // every
                    closing = 5 if not top % every else 2
                    # The last tick re-arms after every schedule of the
                    # run's others and its own ISR return's.
                    before = events + 2 * run + 3 * due - closing
                    tick = (last_at + period, base + before + 1)
                    events += 2 * run + 3 * due
                    housekeeping += due
                    number = top
                    end = last_at + isr_ns + (housekeeping_ns if closing == 5 else 0)
                    tail.clear()
            if key is None or tick < key:
                # The next tick comes first, and does not fit.
                due = not (number + 1) % every
                last = tick[0] + isr_ns + (housekeeping_ns if due else 0)
                reason = bound if last > limit else "periodic events share a span"
                break
            i = keys.index(key)
            entry = others[i]
            at = key[0]
            rekeyed = (tick, key)
            tie = False
            if entry is not bg:
                # Another component's idle occurrence: 1 event, which
                # re-arms first of all.
                n_events, last = 1, at
                keys[i] = (at + entry.period_ns, base + events)
            elif tick[0] != at or bg_ns <= isr_ns:
                # The idle background: 4 events, up to the dispatch after
                # its DPC; it re-arms with its second schedule.
                n_events, last = 4, at + bg_ns
                keys[i] = (at + entry.period_ns, base + events + 1)
            else:
                # The idle background with a tick right behind it at the
                # same instant: the tick fires before the DPC starts and
                # its ISR returns during the DPC, so the tick re-arms
                # with the pair's fourth schedule and its housekeeping
                # DPC, if due, follows the background's.
                tie = True
                due = not (number + 1) % every
                n_events = 9 if due else 6
                last = at + bg_ns + (housekeeping_ns if due else 0)
                keys[i] = (at + entry.period_ns, base + events + 1)
                tick = (at + period, base + events + 3)
                number += 1
                housekeeping += due
            if last > limit or (
                last > at and (tick[0] <= last or min(keys)[0] <= last)
            ):
                # Past the window, or something else, its own successor
                # included, lands among its events.
                tick, keys[i] = rekeyed
                if tie:
                    number -= 1
                    housekeeping -= due
                reason = bound if last > limit else "periodic events share a span"
                break
            if last > at:
                tail.clear()
            else:
                tail.append((i, key, end))
            events += n_events
            end = last
        # The slow path may stop between a one-event occurrence and an
        # uncrossed entry at the same instant; no jump can end there.
        while tail and min(tick, *keys)[0] == end:
            i, keys[i], end = tail.pop()
            events -= 1
        self.jump_stops[reason] += 1
        if not events:
            return
        crossed = [(clock, tick)] if number > ticks else []
        for entry, key in zip(others, keys):
            if key is not entry.pending:
                crossed.append((entry, key))
        background = 0
        if bg.pending is not None:
            background = (keys[0][0] - bg.pending[0]) // bg.period_ns
        self._commit_jump(end - now, events, events, crossed)
        self._credit_dpcs(0, housekeeping, background)
        self.ticks_crossed += number - ticks

    def _try_busy_jump(self, thread: SimThread, work: Work) -> None:
        """Cross the clock ticks that preempt a long compute segment in
        closed form (``docs/performance.md`` §1, "The jump for a busy
        thread").

        Tried as the last act of the event in which ``thread``, above
        idle priority, starts or resumes ``work`` on the CPU.  It
        declines at once when ``work`` lasts less than one tick period,
        and before any heap walk when a live tracer or metrics registry
        is attached, an application timer is armed, another thread is
        ready at the thread's priority (its quantum could expire), or
        the run's ``until`` predicate holds it (:meth:`_until_hold`).

        Otherwise it crosses, in the calendar's ``(time, seq)`` order,
        each chain of events that preempts the segment and hands it
        back, and the schedules each chain makes:

        * a clock tick: the tick, its ISR return, the dispatch that
          preempts the segment for the tick DPC, the DPC's completion
          and the dispatch that resumes the remainder, 5 events and 7
          schedules (7 and 9 with the housekeeping DPC);
        * the Win95 idle background: the event, the dispatch that
          preempts for its DPC, the DPC's completion and the resuming
          dispatch, 4 events and 5 schedules;
        * the idle background with a tick right behind it at the same
          instant (every 110 ms): the tick's ISR steals before the
          preemption and returns during the background's DPC, when the
          thread uses no quantum tick, and the tick DPC runs second, 9
          events and 11 schedules (11 and 13 with housekeeping;
          :meth:`_tie`).

        Each preemption splits the piece of the segment then running:
        the loop rounds its remaining cycles as :meth:`CPU.split` does,
        keeps each executed fraction in order, and charges them all
        once, at the end (:meth:`_cross_turns`), which builds the one
        remainder ``Work``.  The jump ends right after the
        dispatch that resumes the remainder: before a chain that would
        pass the window (the next live entry or the horizon), before an
        occurrence at or after the remainder's completion, before a
        split that leaves nothing, and before periodic events that
        share a span any other way.  It commits through
        :meth:`_commit_jump`, which re-keys the tick and the idle
        background; ISR and DPC work is credited whole, and the CPU's
        completion entry is placed once, at the key of the slow path's
        last start (:meth:`CPU.restart`).  ``jump_stops`` and
        ``jump_declines`` count every call.
        """
        if work.cycles < self._tick_cycles:
            self.jump_declines["short segment"] += 1
            return
        if self.obs is not None:
            reason = "observer attached"
        elif self._timers:
            reason = "timer armed"
        elif self.scheduler.top >= thread.priority:
            reason = "ready thread"
        else:
            reason = self._until_hold()
        if reason is not None:
            self.jump_declines[reason] += 1
            return
        sim = self.sim
        clock = self.machine.clock
        bg = self._idle_bg
        tick = clock.pending
        background = bg.pending
        base = sim.next_seq
        # The segment's completion, which cpu.start just scheduled, is
        # re-keyed rather than crossed: it does not bound the window.
        skip = [tick[1], base - 1]
        if background is not None:
            skip.append(background[1])
        limit, bound = sim.jump_window(skip)
        if limit is None:
            self.jump_stops[bound] += 1
            return
        cpu = self.cpu
        isr_ns, dpc_ns, housekeeping_ns, bg_ns = self._chain_ns
        every = self.personality.housekeeping_period_ticks
        period = clock.period_ns
        number = clock.ticks
        hz = cpu.hz
        cycles = work.cycles
        duration = cpu.duration_ns(work)
        now = start = sim.now
        completes = now + duration
        events = seqs = resumed = busy = 0
        housekeeping = backgrounds = quantum = 0
        fractions: List[float] = []
        while True:
            # ``last`` is the offset, among the chain's schedules, of the
            # remainder's start; ``ticked``, ``used`` and ``ran`` say
            # whether a tick fires, the thread uses a quantum tick and the
            # idle background's DPC runs.
            if background is None or tick < background:
                # A clock tick: it pushes the completion back, schedules
                # its ISR return and re-arms; the ISR return requests the
                # dispatch, which starts the tick DPC; its completion
                # requests the dispatch that resumes the remainder.
                at = tick[0]
                executed = at - start
                due = not (number + 1) % every
                end = at + isr_ns + dpc_ns + (housekeeping_ns if due else 0)
                n_events, last = (7, 8) if due else (5, 6)
                next_tick, next_bg = (at + period, base + seqs + 2), background
                ticked = used = 1
                ran = 0
            elif background[0] != tick[0]:
                # The idle background: it requests the dispatch and
                # re-arms; the dispatch starts its DPC, whose completion
                # requests the dispatch that resumes the remainder.
                at = background[0]
                executed = at - start
                due = False
                end = at + bg_ns
                n_events, last = 4, 4
                next_tick, next_bg = tick, (at + bg.period_ns, base + seqs + 1)
                ticked = used = 0
                ran = 1
            elif isr_ns < bg_ns:
                # The idle background with a tick behind it: the tick
                # fires before the dispatch, so the split leaves out its
                # stolen ISR.
                at = tick[0]
                executed = max(0, at - start - isr_ns)
                due, end, n_events, last, next_tick, next_bg = self._tie(
                    at, number + 1, base + seqs
                )
                ticked = ran = 1
                used = 0
            else:
                reason = "periodic events share a span"
                break
            if at >= completes:
                reason = "segment completes"
                break
            if end > limit:
                reason = bound
                break
            if next_tick[0] <= end or (next_bg is not None and next_bg[0] <= end):
                reason = "periodic events share a span"
                break
            # The remainder of the piece then running, rounded as
            # CPU.split rounds it.
            fraction = executed / duration
            rest = cycles - round(cycles * fraction)
            if rest <= 0:
                reason = "nothing remains"
                break
            fractions.append(fraction)
            busy += executed
            number += ticked
            quantum += used
            housekeeping += due
            backgrounds += ran
            events += n_events
            resumed = seqs + last
            seqs = resumed + 1
            tick, background = next_tick, next_bg
            cycles, start = rest, end
            duration = rest * NS_PER_SEC // hz
            completes = end + duration
        self.jump_stops[reason] += 1
        if not events:
            return
        ticks = number - clock.ticks
        rekeyed = []
        if ticks:
            rekeyed.append((clock, tick))
        if backgrounds:
            rekeyed.append((bg, background))
        left = self._cross_turns(
            thread, len(fractions), work.events, fractions, busy, chained=True
        )
        cpu.withdraw()
        self._commit_jump(start - now, events, seqs, rekeyed)
        cpu.restart(Work(cycles, left, work.label), base + resumed)
        self._credit_dpcs(ticks, housekeeping, backgrounds)
        self.ticks_crossed += ticks
        thread.quantum_ticks_used += quantum

    def _commit_jump(
        self,
        delta_ns: int,
        events: int,
        seqs: int,
        crossed: List[Tuple[Periodic, Tuple[int, int]]],
    ) -> None:
        """Advance the engine past a jump of ``delta_ns``, standing for
        ``events`` callbacks and ``seqs`` schedules, and re-key and
        credit each periodic entry it crossed: ``(entry, key)`` gives
        the key of its successor."""
        sim = self.sim
        sim.fast_forward(
            delta_ns,
            events,
            seqs,
            [
                (entry.pending[1], key[0], key[1], entry.hid)
                for entry, key in crossed
            ],
        )
        self._jump_stopped_at = sim.next_seq
        for entry, key in crossed:
            entry.credit(key)

    def _block_value(self, thread: SimThread, reason: str):
        """Block from inside a pending action (returns the sentinel)."""
        thread.state = ThreadState.BLOCKED
        thread.wait_reason = reason
        return _BLOCKED

    def _getmessage_action(self, thread: SimThread):
        if self.envelopes is not None:
            # The pump reached its next retrieval: any envelope whose
            # render tail was pending on this thread is now on screen.
            self.envelopes.pump_idle(thread)
        message = thread.queue.get(self.sim.now)
        if message is not None:
            hooks = self.hooks
            if hooks.active:
                hooks.fire(
                    ApiCallRecord(
                        time_ns=self.sim.now,
                        thread_name=thread.name,
                        api="GetMessage",
                        queue_len=len(thread.queue),
                        message=message,
                        blocked=False,
                    )
                )
            else:
                hooks.calls_seen += 1
            return message
        return self._block_value(thread, "message")

    def _peekmessage_action(self, thread: SimThread):
        if self.envelopes is not None:
            self.envelopes.pump_idle(thread)
        message = thread.queue.get(self.sim.now)
        hooks = self.hooks
        if hooks.active:
            hooks.fire(
                ApiCallRecord(
                    time_ns=self.sim.now,
                    thread_name=thread.name,
                    api="PeekMessage",
                    queue_len=len(thread.queue),
                    message=message,
                    blocked=False,
                )
            )
        else:
            hooks.calls_seen += 1
        return message

    def _sync_io_action(self, thread_plan):
        thread, plan = thread_plan
        if plan.all_cached:
            return None
        self.iomgr.submit(plan, on_done=lambda: self._wake(thread))
        return self._block_value(thread, "io")

    def _on_message_posted(self, thread: SimThread, message: Message) -> None:
        if thread.blocked and thread.wait_reason == "message":
            delivered = thread.queue.get(self.sim.now)
            hooks = self.hooks
            if hooks.active:
                hooks.fire(
                    ApiCallRecord(
                        time_ns=self.sim.now,
                        thread_name=thread.name,
                        api="GetMessage",
                        queue_len=len(thread.queue),
                        message=delivered,
                        blocked=True,
                    )
                )
            else:
                hooks.calls_seen += 1
            self._wake(thread, resume_value=delivered)

    # ------------------------------------------------------------------
    # DPCs
    # ------------------------------------------------------------------
    def queue_dpc(
        self,
        work: Work,
        action: Optional[Callable[[], None]] = None,
        label: str = "",
    ) -> None:
        """Queue system-side work that runs ahead of all threads."""
        self._dpc_queue.append(_Dpc(work=work, action=action, label=label))
        self._request_dispatch()

    def _start_next_dpc(self) -> None:
        dpc = self._dpc_queue.popleft()
        self._active_dpc = dpc
        self.running = self._dpc_context
        if self.obs is not None:
            self.obs.dpc_begin(dpc.label)
        self.cpu.start(dpc.work, self._dpc_context, self._work_done)

    # ------------------------------------------------------------------
    # Interrupt post-actions (run when the ISR retires)
    # ------------------------------------------------------------------
    def _on_clock_tick(self, _tick) -> None:
        now = self.sim.now
        # Fire due application timers; timers of finished threads are
        # reaped so they cannot hold the system out of quiescence.  The
        # no-timer case (every idle tick) must not allocate.
        if self._timers:
            for key, timer in list(self._timers.items()):
                if timer.thread.done:
                    del self._timers[key]
                    continue
                if now >= timer.next_due_ns:
                    timer.next_due_ns = now + timer.period_ns
                    self.post_message(
                        timer.thread,
                        Message(WM.TIMER, payload=timer.timer_id, from_input=False),
                    )
        # Per-tick scheduler/timer DPC — only when the tick has actual
        # work to do (armed timers, runnable threads, or a non-idle
        # thread to account against).  A fully idle system's cheapest
        # ticks therefore cost the bare ISR, which is how the paper
        # could observe a ~400-cycle minimum on NT 4.0 (Section 2.5).
        tick_has_work = (
            bool(self._timers)
            or self.scheduler.top >= 0
            or (
                isinstance(self.running, SimThread)
                and self.running.priority > IDLE_PRIORITY
            )
        )
        if tick_has_work:
            self.queue_dpc(self.personality.tick_dpc_work, label="tick")
        housekeeping = (
            self.machine.clock.ticks % self.personality.housekeeping_period_ticks
            == 0
        )
        if housekeeping:
            self.queue_dpc(self.personality.housekeeping_work, label="housekeeping")
        # Quantum round-robin among equal priorities.  The counter lives
        # on the thread so the tick DPC's own brief preemption does not
        # restart the quantum.
        if isinstance(self.running, SimThread):
            thread = self.running
            thread.quantum_ticks_used += 1
            if (
                thread.quantum_ticks_used >= self.personality.quantum_ticks
                and self.scheduler.has_ready_at(thread.priority)
            ):
                context, remaining = self.cpu.preempt()
                if context is thread:
                    thread.pending_work = remaining
                    thread.quantum_ticks_used = 0
                    self.running = None
                    self.context_switches += 1
                    if self.obs is not None:
                        self.obs.run_end(thread, "quantum")
                        self.obs.context_switch("quantum")
                    self.scheduler.make_ready(thread, front=False)
                    self._request_dispatch()
        elif not (tick_has_work or housekeeping) and self.fast_forward:
            # The tick queued no DPC: quiescent, unless something else
            # holds the machine.
            self._try_quiescent_jump()

    def _on_keyboard(self, event: KeyEvent) -> None:
        if self.envelopes is not None:
            self.envelopes.input_dispatch_begin(event)
        self.queue_dpc(
            self.personality.input_dispatch_work,
            action=lambda: self._deliver_key(event),
            label="kbd-dispatch",
        )

    def _deliver_key(self, event: KeyEvent) -> None:
        if self.foreground is None:
            return
        recorder = self.envelopes
        envelope = recorder.take_envelope(event) if recorder is not None else None
        if event.down:
            self.post_to_foreground(
                Message(
                    WM.KEYDOWN,
                    payload=event.key,
                    from_input=True,
                    envelope=envelope,
                )
            )
            if len(event.key) == 1:
                # WM_CHAR shares the keystroke's envelope: the handler
                # stage covers both messages' handling.
                self.post_to_foreground(
                    Message(
                        WM.CHAR,
                        payload=event.key,
                        from_input=True,
                        envelope=envelope,
                    )
                )
        else:
            self.post_to_foreground(
                Message(
                    WM.KEYUP,
                    payload=event.key,
                    from_input=True,
                    envelope=envelope,
                )
            )

    def _on_mouse(self, event: MouseEvent) -> None:
        if self.envelopes is not None:
            self.envelopes.input_dispatch_begin(event)
        if event.kind == "down" and self.personality.mouse_click_busywait:
            self._pending_mouse_down = event
            self.queue_dpc(
                self.personality.input_dispatch_work,
                action=self._begin_mouse_spin,
                label="mouse-spin-start",
            )
            return
        if event.kind == "up" and self._spin_active:
            self._end_mouse_spin(event)
            return
        self.queue_dpc(
            self.personality.input_dispatch_work,
            action=lambda: self._deliver_mouse(event),
            label="mouse-dispatch",
        )

    def _deliver_mouse(self, event: MouseEvent) -> None:
        if self.foreground is None:
            return
        kind_to_wm = {"down": WM.LBUTTONDOWN, "up": WM.LBUTTONUP}
        recorder = self.envelopes
        envelope = recorder.take_envelope(event) if recorder is not None else None
        self.post_to_foreground(
            Message(
                kind_to_wm[event.kind],
                payload=event.position,
                from_input=True,
                envelope=envelope,
            )
        )

    def _begin_mouse_spin(self) -> None:
        """Windows 95: spin on the CPU until the button comes back up."""
        if self._spin_active:
            return
        if self.cpu.busy:
            if isinstance(self.running, SimThread):
                self._preempt_running_thread()
            else:
                # A DPC is mid-flight; try again when it retires.
                self.queue_dpc(
                    Work(100, label="spin-retry"), action=self._begin_mouse_spin
                )
                return
        self._spin_active = True
        self._spin_began_ns = self.sim.now
        self.cpu.start(
            Work(_SPIN_CYCLES, label="win95-mouse-spin"),
            self._spin_context,
            self._work_done,
        )

    def _end_mouse_spin(self, up_event: MouseEvent) -> None:
        if not self._spin_active:
            return
        context = self.cpu.abort()
        if context is not self._spin_context:
            raise KernelPanic("spin cancel found a different CPU context")
        self._spin_active = False
        down_event = self._pending_mouse_down
        self._pending_mouse_down = None

        def deliver_both() -> None:
            if down_event is not None:
                self._deliver_mouse(down_event)
            self._deliver_mouse(up_event)

        self.queue_dpc(
            self.personality.input_dispatch_work,
            action=deliver_both,
            label="mouse-dispatch",
        )
        self._request_dispatch()

    def bind_socket(self, thread: SimThread) -> None:
        """Route packet notifications to ``thread`` (WSAAsyncSelect)."""
        self.socket_owner = thread

    def _on_packet(self, packet) -> None:
        if self.envelopes is not None:
            self.envelopes.input_dispatch_begin(packet)
        self.queue_dpc(
            self.personality.nic_dispatch_work,
            action=lambda: self._deliver_packet(packet),
            label="nic-dispatch",
        )

    def _deliver_packet(self, packet) -> None:
        target = self.socket_owner or self.foreground
        if target is None or target.done:
            return
        recorder = self.envelopes
        envelope = recorder.take_envelope(packet) if recorder is not None else None
        self.post_message(
            target,
            Message(
                WM.SOCKET, payload=packet, from_input=True, envelope=envelope
            ),
        )

    def _on_disk(self, request: DiskRequest) -> None:
        self.queue_dpc(
            self.personality.disk_isr_work.scaled(0.5),
            action=lambda: self.iomgr.on_disk_complete(request),
            label="disk-dpc",
        )

    def _idle_background_tick(self) -> None:
        """Windows 95's extra idle-time activity (Figure 3)."""
        self.queue_dpc(self.personality.idle_background_work, label="idle-bg")
        self._arm_idle_background()

    def _arm_idle_background(self) -> None:
        self._idle_bg.arm_at(self.sim.now + self.personality.idle_background_period_ns)
