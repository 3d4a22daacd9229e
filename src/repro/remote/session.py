"""Client/server remote-interaction session.

The client is a real simulated OS personality: keystrokes enter through
the keyboard interrupt path, the viewer app captures them in its message
pump and hands them to the ARQ :class:`~repro.remote.transport.InputChannel`;
frames come back through the NIC interrupt path as ``WM_SOCKET``
messages, so frame presentation pays the same USER/GDI costs every other
measured application pays.  The server is an event-level model on the
far side of the :class:`~repro.remote.link.LossyLink`: it applies inputs
in order (head-of-line blocking with a gap-skip timeout), acks each one,
and emits frames on a fixed cadence with a backlog-driven degradation
ladder (full → degraded encode → coalesce).

**Wait semantics** (the paper's metric, stretched across a network):

* prediction OFF — a keystroke's wait ends when the first frame whose
  cumulative ``covered`` set includes its sequence number finishes
  drawing on the client.  Inputs the transport abandons resolve at
  give-up time (the moment the user knows the character is lost).
* prediction ON — the wait ends when the provisional local echo
  finishes drawing (a few ms, loss-independent); the price is the
  *correction* count: echoes invalidated by retransmitted, abandoned or
  base-rate-mispredicted inputs.

Every decision in a session — drops, retransmit timers, backoff, frame
degradation, prediction outcomes — lands in one :class:`TransportLog`
whose SHA-256 digest is byte-identical across runs of the same
``(os, seed, LinkConfig, TransportConfig)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from ..apps.base import InteractiveApp
from ..faults import FaultInjector, get_scenario
from ..sim.engine import Periodic
from ..sim.timebase import ns_from_ms
from ..winsys import boot
from ..winsys.syscalls import Syscall
from .link import LinkConfig, LossyLink
from .transport import (
    AckPacket,
    FramePacket,
    InputChannel,
    InputPacket,
    SkipPacket,
    TransportConfig,
    TransportLog,
)

__all__ = ["RemoteServer", "RemoteSession", "RemoteSessionResult", "RemoteViewerApp"]

#: Trailing repeat frames after the last dirty tick, so a lossy downlink
#: still converges on the final screen state.
_REPEAT_FRAMES = 8
#: Client warm-up / post-typing drain (ms of simulated time).
_WARMUP_MS = 150.0
_DRAIN_MS = 2_500.0


class RemoteServer(Periodic):
    """Far-side input applier and frame producer (event-level model).

    The frame tick is the server's :class:`~repro.sim.engine.Periodic`
    kind entry, every ``frame_interval_ms``.  A tick with nothing dirty
    and its repeat frames spent only re-arms (:meth:`idle`), so the
    client kernel's quiescent jump crosses and re-keys it; the first
    packet that dirties the screen is a live event, and it ends the
    jump's window.
    """

    def __init__(
        self,
        link: LossyLink,
        config: TransportConfig,
        log: TransportLog,
        on_ack,
        on_frame,
    ) -> None:
        super().__init__(link.sim, self._tick, ns_from_ms(config.frame_interval_ms))
        link.system.kernel.periodic.append(self)
        self.link = link
        self.config = config
        self._log = log
        self._on_ack = on_ack
        self._on_frame = on_frame
        self.next_apply = 1
        self._buffer: Dict[int, InputPacket] = {}
        self._skipped = set()
        self.applied: Dict[int, int] = {}   # seq -> apply time (ns)
        self.late_applies = 0               # applied after a HOL skip-past
        self.dup_inputs = 0
        self.hol_skips = 0
        self.fseq = 0
        self.frames_sent = 0
        self.frames_degraded = 0
        self.frames_coalesced = 0
        self._dirty = False
        self._repeats_left = 0
        self._coalesced_run = 0
        self._hol_timer = None
        self._running = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._running = True
        self.arm_at(self.sim.now + self.period_ns)

    def stop(self) -> None:
        self._running = False
        self.disarm()
        if self._hol_timer is not None:
            self._hol_timer.cancel()
            self._hol_timer = None

    # ------------------------------------------------------------------
    # Upstream receive
    # ------------------------------------------------------------------
    def deliver(self, packet) -> None:
        if isinstance(packet, SkipPacket):
            if packet.seq >= self.next_apply and packet.seq not in self.applied:
                self._skipped.add(packet.seq)
                self._log(("srv-skip", packet.seq, self.sim.now))
            self._drain()
            return
        assert isinstance(packet, InputPacket)
        seq = packet.seq
        # Always ack — a duplicate means our previous ack was lost.
        self._send_ack(seq)
        if seq in self.applied or seq in self._skipped or seq in self._buffer:
            self.dup_inputs += 1
            return
        if seq < self.next_apply:
            # HOL-skipped earlier, arrived after all: out-of-order apply.
            self._apply(seq, late=True)
            return
        self._buffer[seq] = packet
        self._drain()

    def _send_ack(self, seq: int) -> None:
        self.link.send(
            "down",
            self.config.ack_bytes,
            lambda seq=seq: self._on_ack(AckPacket(seq)),
            label=f"ack:{seq}",
        )

    def _apply(self, seq: int, late: bool = False) -> None:
        self.applied[seq] = self.sim.now
        self._dirty = True
        self._repeats_left = _REPEAT_FRAMES
        if late:
            self.late_applies += 1
            self._log(("apply-late", seq, self.sim.now))
        else:
            self._log(("apply", seq, self.sim.now))

    def _drain(self) -> None:
        advanced = False
        while True:
            if self.next_apply in self._buffer:
                self._buffer.pop(self.next_apply)
                self._apply(self.next_apply)
                self.next_apply += 1
                advanced = True
            elif self.next_apply in self._skipped:
                self._skipped.discard(self.next_apply)
                self.next_apply += 1
                advanced = True
            else:
                break
        if advanced and self._hol_timer is not None:
            self._hol_timer.cancel()
            self._hol_timer = None
        if self._buffer and self._hol_timer is None and self._running:
            # A gap is blocking buffered input: arm the skip-past timer.
            self._hol_timer = self.sim.schedule(
                ns_from_ms(self.config.hol_skip_ms),
                self._hol_skip,
                label="hol-skip",
            )

    def _hol_skip(self) -> None:
        self._hol_timer = None
        if not self._buffer:
            return
        # Skip past the gap up to the first buffered seq; if the missing
        # input arrives later it applies out of order (consistency damage).
        gap_end = min(self._buffer)
        for seq in range(self.next_apply, gap_end):
            self._skipped.discard(seq)
            self.hol_skips += 1
            self._log(("hol-skip", seq, self.sim.now))
        self.next_apply = gap_end
        self._drain()

    # ------------------------------------------------------------------
    # Downstream frames
    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """Nothing on screen changed and the repeat frames are spent:
        the next frame tick only re-arms."""
        return not self._dirty and self._repeats_left <= 0

    def _tick(self) -> None:
        self.arm_at(self.sim.now + self.period_ns)
        if self.idle:
            return
        obs = self.link.system.kernel.obs
        backlog_ns = self.link.backlog_ns("down")
        if backlog_ns > ns_from_ms(self.config.skip_backlog_ms):
            # The downlink is badly behind: coalesce (send nothing, the
            # next frame covers this tick's damage too).
            self.frames_coalesced += 1
            self._coalesced_run += 1
            self._log(("frame-coalesce", self.fseq + 1, self.sim.now, backlog_ns))
            if obs is not None:
                obs.remote_frame("coalesced")
            return
        degraded = backlog_ns > ns_from_ms(self.config.degrade_backlog_ms)
        self.fseq += 1
        if not self._dirty:
            self._repeats_left -= 1
        self._dirty = False
        covered = tuple(sorted(self.applied))
        frame = FramePacket(
            fseq=self.fseq,
            covered=covered,
            ticks=1 + self._coalesced_run,
            degraded=degraded,
            sent_ns=self.sim.now,
        )
        self._coalesced_run = 0
        size = self.config.frame_base_bytes + self.config.frame_tick_bytes
        if degraded:
            size = max(64, size // 3)
            self.frames_degraded += 1
        self.frames_sent += 1
        self._log(
            ("frame", frame.fseq, self.sim.now, len(covered), int(degraded), size)
        )
        if obs is not None:
            obs.remote_frame("degraded" if degraded else "full")
        self.link.send(
            "down", size, lambda frame=frame: self._on_frame(frame),
            label=f"frame:{frame.fseq}",
        )

    def counters(self) -> dict:
        return {
            "applied": len(self.applied),
            "late_applies": self.late_applies,
            "dup_inputs": self.dup_inputs,
            "hol_skips": self.hol_skips,
            "frames_sent": self.frames_sent,
            "frames_degraded": self.frames_degraded,
            "frames_coalesced": self.frames_coalesced,
        }


class RemoteViewerApp(InteractiveApp):
    """Thin-client viewer: captures keystrokes, presents frames."""

    name = "remoteview"

    def __init__(self, system, session: "RemoteSession") -> None:
        super().__init__(system)
        self.remote = session
        self.frames_presented = 0

    def start(self, foreground: bool = True, **kwargs):
        thread = super().start(foreground=foreground, **kwargs)
        self.system.bind_socket(thread)
        return thread

    def on_char(self, char: str) -> Iterator[Syscall]:
        session = self.remote
        yield self.app_compute(6_000, label="remote-capture")
        seq = session.channel.send(char)
        session.note_inject(seq)
        if session.transport.prediction:
            # Provisional local echo: respond now, reconcile later.
            yield self.draw(8_000, pixels=400, label="predict-echo")
            session.note_echo(seq, self.system.now)

    def on_key(self, key: str) -> Iterator[Syscall]:
        yield self.user_compute(8_000, label="remote-keydown")

    def on_keyup(self, key: str) -> Iterator[Syscall]:
        yield self.user_compute(4_000, label="remote-keyup")

    def on_socket(self, packet) -> Iterator[Syscall]:
        frame = packet.payload
        if not isinstance(frame, FramePacket):  # stray traffic
            yield self.app_compute(5_000, label="remote-noise")
            return
        if frame.degraded:
            yield self.gui_compute(16_000, label="frame-decode-lo")
            yield self.draw(9_000, pixels=700, label="frame-present-lo")
        else:
            yield self.gui_compute(40_000, label="frame-decode")
            yield self.draw(14_000, pixels=2_000, label="frame-present")
        self.frames_presented += 1
        self.remote.note_frame_displayed(frame, self.system.now)


@dataclass
class RemoteSessionResult:
    """Everything one remote session contributes upstream."""

    os_name: str
    link_name: str
    prediction: bool
    scenario: Optional[str]
    #: Per-keystroke wait (ms): frame-echo wait (prediction OFF) or
    #: provisional-echo wait (prediction ON).
    wait_ms: List[float] = field(default_factory=list)
    #: Keystrokes never resolved in-session (drain-censored).
    unresolved: int = 0
    #: Prediction corrections (echoes that later proved wrong).
    corrections: int = 0
    predictions: int = 0
    abandoned: int = 0
    span_ms: float = 0.0
    schedule_digest: str = ""
    channel: dict = field(default_factory=dict)
    server: dict = field(default_factory=dict)
    link: dict = field(default_factory=dict)
    frames_stale: int = 0

    @property
    def consistency_cost(self) -> float:
        """Corrections + server-side out-of-order applies, per keystroke."""
        chars = max(1, len(self.wait_ms) + self.unresolved)
        damage = self.corrections + self.server.get("late_applies", 0) + self.abandoned
        return damage / chars

    def to_dict(self) -> dict:
        return {
            "os": self.os_name,
            "link": self.link_name,
            "prediction": self.prediction,
            "scenario": self.scenario,
            "wait_ms": [round(float(w), 6) for w in self.wait_ms],
            "unresolved": self.unresolved,
            "corrections": self.corrections,
            "predictions": self.predictions,
            "abandoned": self.abandoned,
            "span_ms": round(float(self.span_ms), 6),
            "schedule_digest": self.schedule_digest,
            "channel": dict(self.channel),
            "server": dict(self.server),
            "link": self.link,
            "frames_stale": self.frames_stale,
            "consistency_cost": round(self.consistency_cost, 6),
        }


class RemoteSession:
    """Glue: one client system + link + server, driven to completion."""

    def __init__(
        self,
        system,
        link_config: LinkConfig,
        transport: Optional[TransportConfig] = None,
        scenario: Optional[str] = None,
    ) -> None:
        self.system = system
        self.sim = system.sim
        self.transport = transport or TransportConfig()
        self.log = TransportLog()
        self.link = LossyLink(system, link_config, log=self.log)
        self.server = RemoteServer(
            self.link,
            self.transport,
            self.log,
            on_ack=self._ack_arrived,
            on_frame=self._frame_arrived,
        )
        self.channel = InputChannel(
            self.link,
            self.transport,
            deliver=self.server.deliver,
            log=self.log,
            on_acked=self._input_acked,
            on_abandoned=self._input_abandoned,
        )
        self.app = RemoteViewerApp(system, self)
        self._predict_stream = system.machine.rngs.stream("remote-predict")
        #: Stage-envelope recorder (attached at boot when an obs session
        #: is active); remote envelopes anchor at the hardware keystroke
        #: time and spend their round trip in the ``network`` stage.
        self._recorder = getattr(
            getattr(system, "obs", None), "envelopes", None
        )
        #: seq -> the recorder's opaque handle for its envelope.
        self._envs: Dict[int, int] = {}
        #: FIFO of keyboard-injection times; ``note_inject`` pairs each
        #: captured char with its true hardware inject time so waits
        #: include the local input path, as the paper's waits do.
        self._key_times: List[int] = []
        self._inject_ns: Dict[int, int] = {}
        self._pending: Dict[int, int] = {}   # seq -> inject (awaiting display)
        self._wait_ns: Dict[int, int] = {}
        self._echo_pending: Dict[int, int] = {}
        self.corrections = 0
        self.predictions = 0
        self.frames_stale = 0
        self._last_played_fseq = 0
        self.injector = None
        if scenario is not None:
            self.injector = FaultInjector(
                system, get_scenario(scenario)
            ).install()
            if self._recorder is not None:
                self._recorder.scenario = scenario
        self.scenario = scenario

    # ------------------------------------------------------------------
    # Client-side bookkeeping
    # ------------------------------------------------------------------
    def note_inject(self, seq: int) -> None:
        now = self._key_times.pop(0) if self._key_times else self.sim.now
        self._inject_ns[seq] = now
        if not self.transport.prediction:
            self._pending[seq] = now
        if self._recorder is not None:
            # input stage = the local client pipeline up to the
            # transport send; prediction resolves via the local echo
            # (render), transport via the network round trip.
            handle = self._recorder.remote_input(
                now, network=not self.transport.prediction
            )
            if handle is not None:
                self._envs[seq] = handle

    def note_echo(self, seq: int, end_ns: int) -> None:
        self._wait_ns[seq] = end_ns - self._inject_ns[seq]
        self.predictions += 1
        self._echo_pending[seq] = self._inject_ns[seq]
        self.log(("echo", seq, end_ns))
        handle = self._envs.pop(seq, None)
        if handle is not None:
            self._recorder.remote_close(handle, end_ns)

    def _input_acked(self, seq: int, transmissions: int) -> None:
        if not self.transport.prediction:
            return
        self._echo_pending.pop(seq, None)
        # A clean first-attempt ack can still be a semantic mispredict
        # (IME, selection state, ...) at the base rate; a retransmitted
        # input is ambiguous and always needs reconciliation.
        miss = transmissions > 1 or (
            self.transport.predict_base_miss > 0.0
            and self._predict_stream.random() < self.transport.predict_base_miss
        )
        if miss:
            self._correct(seq)
        else:
            obs = self.system.kernel.obs
            if obs is not None:
                obs.remote_prediction(hit=True)

    def _input_abandoned(self, seq: int) -> None:
        if self.transport.prediction:
            self._echo_pending.pop(seq, None)
            self._correct(seq)  # the echoed char never happened
        else:
            # The user now knows the keystroke was lost: the wait ends
            # here unless an ack-lost copy still shows up in a frame.
            self._pending.setdefault(seq, self._inject_ns[seq])
            self._wait_ns.setdefault(seq, self.sim.now - self._inject_ns[seq])
            handle = self._envs.pop(seq, None)
            if handle is not None:
                self._recorder.remote_close(handle, outcome="abandoned")

    def _correct(self, seq: int) -> None:
        self.corrections += 1
        self.log(("correct", seq, self.sim.now))
        obs = self.system.kernel.obs
        if obs is not None:
            obs.remote_prediction(hit=False)

    def _ack_arrived(self, ack: AckPacket) -> None:
        self.channel.on_ack(ack)

    # ------------------------------------------------------------------
    # Downstream frames: jitter buffer → NIC → message pump
    # ------------------------------------------------------------------
    def _frame_arrived(self, frame: FramePacket) -> None:
        if frame.fseq <= self._last_played_fseq:
            self.frames_stale += 1
            self.log(("frame-stale", frame.fseq, self.sim.now))
            obs = self.system.kernel.obs
            if obs is not None:
                obs.remote_frame("stale")
            return
        # Hold for the playout delay; in-order release happens because
        # play() ignores anything at or below the high-water mark.
        self.sim.schedule(
            ns_from_ms(self.transport.jitter_buffer_ms),
            lambda frame=frame: self._play(frame),
            label=f"jbuf:{frame.fseq}",
        )

    def _play(self, frame: FramePacket) -> None:
        if frame.fseq <= self._last_played_fseq:
            self.frames_stale += 1
            self.log(("frame-stale", frame.fseq, self.sim.now))
            return
        self._last_played_fseq = frame.fseq
        if self._envs:
            # The network stage ends when the covering frame starts to
            # play; what follows (decode + present) is render.  Marked
            # here — a live moment — so stage spans stay list-order
            # monotone for the trace validator.
            covered = set(frame.covered)
            for seq, handle in self._envs.items():
                if seq in covered:
                    self._recorder.remote_render(handle)
        self.system.machine.nic.deliver(payload=frame, size_bytes=64)

    def note_frame_displayed(self, frame: FramePacket, end_ns: int) -> None:
        self.log(("display", frame.fseq, end_ns))
        covered = set(frame.covered)
        for seq in sorted(self._pending):
            if seq in covered:
                inject = self._pending.pop(seq)
                self._wait_ns[seq] = end_ns - inject
                handle = self._envs.pop(seq, None)
                if handle is not None:
                    self._recorder.remote_close(handle, end_ns)

    # ------------------------------------------------------------------
    def run(self, chars: int = 36, cadence_ms: float = 120.0) -> RemoteSessionResult:
        system = self.system
        self.app.start(foreground=True)
        system.run_for(ns_from_ms(_WARMUP_MS))
        self.server.start()
        cadence = system.machine.rngs.stream("remote-typist")
        started_ns = system.now
        for position in range(chars):
            self._key_times.append(system.now)
            system.machine.keyboard.keystroke(chr(ord("a") + position % 26))
            gap_ms = cadence_ms * cadence.uniform(0.85, 1.15)
            system.run_for(ns_from_ms(gap_ms))
        system.run_for(ns_from_ms(_DRAIN_MS))
        self.server.stop()
        system.run_for(ns_from_ms(100.0))
        span_ms = (system.now - started_ns) / 1e6

        # Drain-censored keystrokes: resolve at session end.
        unresolved = 0
        for seq, inject in list(self._pending.items()):
            if seq not in self._wait_ns:
                self._wait_ns[seq] = system.now - inject
                unresolved += 1
        for handle in self._envs.values():
            self._recorder.remote_close(handle, outcome="censored")
        self._envs.clear()
        wait_ms = [
            self._wait_ns[seq] / 1e6 for seq in sorted(self._wait_ns)
        ]
        return RemoteSessionResult(
            os_name=system.personality.name,
            link_name=self.link.config.name,
            prediction=self.transport.prediction,
            scenario=self.scenario,
            wait_ms=wait_ms,
            unresolved=unresolved,
            corrections=self.corrections,
            predictions=self.predictions,
            abandoned=len(self.channel.abandoned),
            span_ms=span_ms,
            schedule_digest=self.log.digest(),
            channel=self.channel.counters(),
            server=self.server.counters(),
            link=self.link.counters(),
            frames_stale=self.frames_stale,
        )


def run_remote_session(
    os_name: str,
    seed: int,
    link_config: LinkConfig,
    transport: Optional[TransportConfig] = None,
    chars: int = 36,
    cadence_ms: float = 120.0,
    scenario: Optional[str] = None,
) -> RemoteSessionResult:
    """Boot, run and measure one remote session (pure in its arguments)."""
    system = boot(os_name, seed=seed)
    session = RemoteSession(
        system, link_config, transport=transport, scenario=scenario
    )
    return session.run(chars=chars, cadence_ms=cadence_ms)
