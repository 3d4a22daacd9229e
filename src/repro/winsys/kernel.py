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
from ..sim.engine import fast_forward_default
from ..sim.machine import Machine
from ..sim.work import Work
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
        #: Fast-forward jumps taken, the records they completed in closed
        #: form, and the clock ticks they crossed.
        self.fast_forward_batches = 0
        self.fast_forward_segments = 0
        self.ticks_crossed = 0
        #: Why each jump stopped, or declined to cross a tick (see
        #: :meth:`_try_fast_forward`).  Diagnostics only: no digest
        #: includes it.
        self.jump_stops: Counter = Counter()
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
        self._idle_bg_hid = self.sim.register_handler(self._idle_background_tick)
        #: ``(time, seq)`` of the armed idle-background entry (Windows 95),
        #: which the quiescent jump crosses and re-keys like a tick.
        self._idle_bg_pending: Optional[Tuple[int, int]] = None
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
        if personality.idle_background_period_ns > 0:
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
        uncontended segments complete in one step, and each clock tick,
        housekeeping DPC or Win95 idle-background DPC that lands in a
        segment is crossed with the elongation, preemption split
        (:meth:`CPU.split`, as a real preemption rounds it) and charges
        the slow path would produce — also when it lands on the
        segment's end, in the order the calendar runs it.  It ends at a
        segment completion, where the slow path resumes the instrument:
        before the next other live event, at the run horizon, at a full
        trace buffer, or before a segment it does not model (a periodic
        event on the segment's start, a preemption that leaves nothing,
        two periodic events in one segment's span).  It crosses no
        periodic event at all — the zero-tick batch — when a live tracer
        or metrics registry is attached, the issuer reads state at each
        record (``tickless`` is False), the run has an ``until``
        predicate, or an application timer is armed.  ``jump_stops``
        counts why each jump stopped.

        The crossed events are accounted exactly: executed and sequence
        counters (a plain tick costs 3 events and 4 sequence numbers
        with its segment, a housekeeping tick 6 and 8), re-keyed tick
        and idle-background entries, ticks and deliveries, busy time,
        hardware events and fractional residuals, context switches, DPCs
        run, the thread's dispatches and quantum ticks, and the
        scheduler requeue (which replays any requeue-jitter draw).
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
            return None
        cpu = self.cpu
        work = syscall.work
        step = cpu.duration_ns(work)
        if step <= 0:
            return None
        sim = self.sim
        clock = self.machine.clock
        personality = self.personality
        tick_at, tick_seq = clock.pending or (None, None)
        bg_at = bg_seq = None
        if personality.idle_background_cycles > 0 and self._idle_bg_pending:
            bg_at, bg_seq = self._idle_bg_pending
        limit, bound = sim.jump_window((tick_seq, bg_seq))
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
            hold = None
        period = clock.period_ns
        isr_ns = cpu.duration_ns(personality.clock_isr_work)
        ticks = clock.ticks
        housekeeping_every = personality.housekeeping_period_ticks
        housekeeping = personality.housekeeping_work
        idle_bg = personality.idle_background_work
        idle_bg_period = personality.idle_background_period_ns

        now = t = sim.now
        base = sim.next_seq
        events = seqs = crossed = whole = 0
        ramps: List[Tuple[int, int]] = []
        ramp_start = ramp_count = 0
        new_tick = new_bg = None
        while True:
            if tick_at is not None and (bg_at is None or tick_at <= bg_at):
                nxt = tick_at
            else:
                nxt = bg_at
            # Uncontended segments: each completes strictly before the
            # next periodic event and within the window.
            edge = limit if nxt is None or nxt > limit else nxt - 1
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
            if nxt is None or nxt > limit:
                reason = bound
                break
            if hold is not None:
                reason = hold
                break
            if nxt <= t:
                reason = "periodic event on a segment edge"
                break
            # The segment [t, t + step] holds the periodic event at nxt.
            # Work out the record it leaves and what the crossed events
            # cost; commit only if nothing else lands in that span.
            is_tick = nxt == tick_at
            if is_tick:
                rearm, other = nxt + period, bg_at
                number = ticks + crossed + 1
                dpc = housekeeping if number % housekeeping_every == 0 else None
                # The tick and its ISR return; the segment's start and the
                # tick's three schedules (pushed completion, ISR return,
                # next tick).
                n_events, n_seqs = 2, 4
            else:
                rearm, other, dpc = nxt + idle_bg_period, tick_at, idle_bg
                # The event; the segment's start, its dispatch request and
                # its re-arm.
                n_events, n_seqs = 1, 3
            on_end = nxt == t + step
            if on_end and step >= rearm - nxt:
                # Armed after the segment started: the segment completes
                # first and the event lands on the next one's start.
                reason = "periodic event on a segment edge"
                break
            first = rest = None
            executed = 0
            preempts = dpc is not None
            completes = 0  # the segment itself completes whole
            if dpc is None:
                # A plain tick: the ISR steals its duration, so the segment
                # completes that much later (on its end too: the tick was
                # armed first).
                record = t + step + isr_ns
                n_events += 1
                completes = 1
            elif not on_end:
                # The DPC preempts the segment when it is queued (the ISR
                # return, or the event itself), runs, and the remainder
                # completes: dispatch, DPC completion, dispatch, remainder
                # completion; the ISR return's dispatch request, the DPC's
                # start and completion request, the remainder's start.
                executed = nxt - t
                fraction, rest = cpu.split(work, executed)
                if rest is None:
                    # Within half a cycle of the end: nothing remains.
                    reason = "periodic event on a segment edge"
                    break
                record = (
                    nxt
                    + (isr_ns if is_tick else 0)
                    + cpu.duration_ns(dpc)
                    + cpu.duration_ns(rest)
                )
                n_events += 4
                n_seqs += 3 + is_tick
            elif is_tick:
                # Housekeeping on the segment's end: the segment completes
                # ISR-late before the ISR return queues the DPC, which then
                # preempts the next segment before it makes progress.
                if space < 2:
                    reason = "buffer full"
                    break
                first = t + step + isr_ns
                completes = 1
                fraction, rest = cpu.split(work, 0)
                record = first + cpu.duration_ns(dpc) + cpu.duration_ns(rest)
                n_events += 5
                n_seqs += 5
            else:
                # The idle background on the segment's end: its DPC is
                # queued first, so the completed segment yields to it and
                # the record lands when the DPC retires; nothing is
                # preempted.
                completes = 1
                preempts = False
                record = nxt + cpu.duration_ns(dpc)
                n_events += 4
                n_seqs += 2
            if rearm <= record or (other is not None and other <= record):
                reason = "periodic events share a segment"
                break
            if record > limit:
                reason = bound
                break
            if is_tick:
                new_tick = (rearm, base + seqs + 3)
                tick_at = rearm
                crossed += 1
            else:
                new_bg = (rearm, base + seqs + 2)
                bg_at = rearm
            whole += completes
            if dpc is not None:
                if preempts:
                    cpu.charge_split(work, fraction, executed)
                    cpu.credit(rest)
                    self.context_switches += 1
                cpu.credit(dpc)
                self.dpcs_run += 1
                thread.dispatches += 1
                # Requeued at the front (replaying any requeue-jitter
                # draw), then dispatched once the DPC retires.
                self.scheduler.make_ready(thread, front=True)
                self.scheduler.pick()
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
        moved = []
        if new_tick is not None:
            moved.append((tick_seq, new_tick[0], new_tick[1], clock.tick_hid))
        if new_bg is not None:
            moved.append((bg_seq, new_bg[0], new_bg[1], self._idle_bg_hid))
        sim.fast_forward(t - now, events, seqs, moved)
        self._jump_stopped_at = sim.next_seq
        if crossed:
            clock.credit(crossed, new_tick)
            thread.quantum_ticks_used += crossed
            self.ticks_crossed += crossed
        if new_bg is not None:
            self._idle_bg_pending = new_bg
        cpu.credit(work, whole)
        records = sum(count for _start, count in ramps)
        self.fast_forward_batches += 1
        self.fast_forward_segments += records
        if self.obs is not None:
            self.obs.fast_forward(records, t - now)
        return ramps

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
        if (
            self.machine.clock.ticks % self.personality.housekeeping_period_ticks
            == 0
        ):
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
        kind_to_wm = {
            "down": WM.LBUTTONDOWN,
            "up": WM.LBUTTONUP,
            "move": WM.MOUSEMOVE,
        }
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
        personality = self.personality
        if personality.idle_background_cycles > 0:
            self.queue_dpc(personality.idle_background_work, label="idle-bg")
        self._arm_idle_background()

    def _arm_idle_background(self) -> None:
        period = self.personality.idle_background_period_ns
        self._idle_bg_pending = (
            self.sim.now + period,
            self.sim.schedule_kind(period, self._idle_bg_hid),
        )
