"""Resilient transport over the lossy link.

Three cooperating pieces, all deterministic in ``(seed, configs)``:

* :class:`RtoEstimator` — Jacobson/Karels adaptive retransmission
  timeout: ``SRTT``/``RTTVAR`` smoothing with a floor/ceiling clamp and
  a sticky exponential backoff multiplier that doubles on every timeout
  and resets on the next *clean* RTT sample.  Karn's algorithm: only
  never-retransmitted packets contribute RTT samples, so a retransmit
  ambiguity can never poison the estimate.
* :class:`InputChannel` — sequence-numbered input upstream with ARQ:
  every input is retransmitted under the current (backed-off) RTO until
  acked or the retry cap is exhausted, at which point the input is
  *abandoned* and an unreliable skip notice lets the server release the
  head-of-line hole early.
* :class:`TransportLog` — the flight recorder: every send, retransmit,
  ack, give-up, frame decision and prediction outcome is appended in
  simulated-time order, and :meth:`TransportLog.digest` collapses the
  whole schedule into one SHA-256 — the byte-identity proof the
  ``ext-remote`` golden checks pin.

The downstream frame pipeline lives with the server/session
(:mod:`repro.remote.session`); packets themselves are tiny frozen
dataclasses so they serialize into the log verbatim.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..sim.timebase import ns_from_ms

__all__ = [
    "AckPacket",
    "FramePacket",
    "InputChannel",
    "InputPacket",
    "RtoEstimator",
    "SkipPacket",
    "TransportConfig",
    "TransportLog",
]


@dataclass(frozen=True)
class TransportConfig:
    """Knobs of the resilient transport (pure data, round-trippable)."""

    input_bytes: int = 64            # upstream input-event packet size
    ack_bytes: int = 32              # downstream ack size
    frame_base_bytes: int = 1_400    # frame overhead
    frame_tick_bytes: int = 260      # extra bytes per coalesced dirty tick
    frame_interval_ms: float = 33.0  # server frame cadence
    jitter_buffer_ms: float = 12.0   # client playout delay
    degrade_backlog_ms: float = 25.0  # downlink backlog → degraded frames
    skip_backlog_ms: float = 70.0    # downlink backlog → skip (coalesce) tick
    rto_initial_ms: float = 150.0
    rto_min_ms: float = 60.0
    rto_max_ms: float = 1_200.0
    rto_margin_ms: float = 12.0
    retry_cap: int = 6               # transmissions before giving up
    hol_skip_ms: float = 450.0       # server head-of-line gap timeout
    prediction: bool = False         # client-side provisional echo
    predict_base_miss: float = 0.03  # baseline misprediction probability

    def __post_init__(self) -> None:
        for name in ("input_bytes", "ack_bytes", "frame_base_bytes",
                     "frame_tick_bytes", "retry_cap"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("frame_interval_ms", "rto_initial_ms", "rto_min_ms",
                     "rto_max_ms", "hol_skip_ms"):
            if float(getattr(self, name)) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("jitter_buffer_ms", "degrade_backlog_ms",
                     "skip_backlog_ms", "rto_margin_ms"):
            if float(getattr(self, name)) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.predict_base_miss < 1.0:
            raise ValueError("predict_base_miss must be in [0, 1)")
        if self.rto_min_ms > self.rto_max_ms:
            raise ValueError("rto_min_ms must be <= rto_max_ms")

    def to_dict(self) -> dict:
        return {
            "kind": "transport-config",
            "input_bytes": self.input_bytes,
            "ack_bytes": self.ack_bytes,
            "frame_base_bytes": self.frame_base_bytes,
            "frame_tick_bytes": self.frame_tick_bytes,
            "frame_interval_ms": self.frame_interval_ms,
            "jitter_buffer_ms": self.jitter_buffer_ms,
            "degrade_backlog_ms": self.degrade_backlog_ms,
            "skip_backlog_ms": self.skip_backlog_ms,
            "rto_initial_ms": self.rto_initial_ms,
            "rto_min_ms": self.rto_min_ms,
            "rto_max_ms": self.rto_max_ms,
            "rto_margin_ms": self.rto_margin_ms,
            "retry_cap": self.retry_cap,
            "hol_skip_ms": self.hol_skip_ms,
            "prediction": self.prediction,
            "predict_base_miss": self.predict_base_miss,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "TransportConfig":
        if data.get("kind") != "transport-config":
            raise ValueError(f"not a transport-config payload: {data.get('kind')!r}")
        fields = {k: v for k, v in data.items() if k != "kind"}
        return TransportConfig(**fields)

    def fingerprint(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class TransportLog:
    """Append-only schedule record with a canonical content digest."""

    def __init__(self) -> None:
        self.events: List[Tuple] = []

    def __call__(self, event: Tuple) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def digest(self) -> str:
        canonical = json.dumps(
            self.events, sort_keys=True, separators=(",", ":"), default=str
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def count(self, event: str) -> int:
        return sum(1 for entry in self.events if entry[0] == event)


@dataclass(frozen=True)
class InputPacket:
    seq: int
    char: str
    attempt: int
    sent_ns: int


@dataclass(frozen=True)
class AckPacket:
    seq: int


@dataclass(frozen=True)
class SkipPacket:
    """Unreliable notice: the client gave up on ``seq``."""

    seq: int


@dataclass(frozen=True)
class FramePacket:
    """One rendered frame travelling down to the client."""

    fseq: int
    covered: Tuple[int, ...]   # input seqs first displayed by this frame
    ticks: int                 # dirty ticks coalesced into it
    degraded: bool             # reduced-quality encode under backlog
    sent_ns: int


class RtoEstimator:
    """Jacobson SRTT/RTTVAR with clamped RTO and sticky backoff."""

    def __init__(self, config: TransportConfig) -> None:
        self._config = config
        self.srtt_ns: Optional[int] = None
        self.rttvar_ns: int = 0
        self.backoff: int = 1
        self.samples = 0

    def sample(self, rtt_ns: int) -> None:
        """Fold one clean (never-retransmitted) RTT sample in."""
        self.samples += 1
        self.backoff = 1  # a fresh sample ends the backed-off regime
        if self.srtt_ns is None:
            self.srtt_ns = rtt_ns
            self.rttvar_ns = rtt_ns // 2
            return
        delta = abs(self.srtt_ns - rtt_ns)
        self.rttvar_ns = (3 * self.rttvar_ns + delta) // 4
        self.srtt_ns = (7 * self.srtt_ns + rtt_ns) // 8

    def on_timeout(self) -> None:
        """Exponential backoff; capped so rto() stays <= rto_max."""
        self.backoff = min(self.backoff * 2, 64)

    def rto_ns(self) -> int:
        config = self._config
        if self.srtt_ns is None:
            base = ns_from_ms(config.rto_initial_ms)
        else:
            base = self.srtt_ns + 4 * self.rttvar_ns + ns_from_ms(config.rto_margin_ms)
        base = max(ns_from_ms(config.rto_min_ms), base) * self.backoff
        return min(ns_from_ms(config.rto_max_ms), base)


class InputChannel:
    """Client-side ARQ sender for sequence-numbered input events.

    ``on_ack`` is invoked by the link when the server's ack survives the
    downstream direction; ``deliver`` is the server's receive entry
    point.  All timers live on the shared simulator and are cancelled
    eagerly, so the retransmission schedule is replayable from
    ``(seed, link config, transport config)`` alone.
    """

    def __init__(
        self,
        link,
        config: TransportConfig,
        deliver: Callable[[InputPacket], None],
        log: TransportLog,
        on_acked: Optional[Callable[[int, int], None]] = None,
        on_abandoned: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.link = link
        self.sim = link.sim
        self.config = config
        self.estimator = RtoEstimator(config)
        self._deliver = deliver
        self._log = log
        self._on_acked = on_acked
        self._on_abandoned = on_abandoned
        self._next_seq = 1
        #: seq -> in-flight state.
        self._pending: Dict[int, dict] = {}
        self.acked: Dict[int, int] = {}       # seq -> transmissions used
        self.abandoned: List[int] = []
        self.retransmits = 0
        self.rto_backoffs = 0

    # ------------------------------------------------------------------
    def send(self, char: str) -> int:
        """Enqueue one input event; returns its sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        state = {
            "char": char,
            "first_sent_ns": self.sim.now,
            "attempts": 0,
            "rto_ns": self.estimator.rto_ns(),
            "timer": None,
        }
        self._pending[seq] = state
        self._transmit(seq)
        return seq

    def _transmit(self, seq: int) -> None:
        state = self._pending[seq]
        state["attempts"] += 1
        now = self.sim.now
        packet = InputPacket(
            seq=seq, char=state["char"], attempt=state["attempts"], sent_ns=now
        )
        kind = "send" if state["attempts"] == 1 else "retransmit"
        self._log((kind, seq, now, state["attempts"], state["rto_ns"]))
        self.link.send(
            "up",
            self.config.input_bytes,
            lambda packet=packet: self._deliver(packet),
            label=f"input:{seq}",
        )
        state["timer"] = self.sim.schedule(
            state["rto_ns"], lambda: self._on_timeout(seq), label=f"rto:{seq}"
        )

    def _on_timeout(self, seq: int) -> None:
        state = self._pending.get(seq)
        if state is None:
            return
        obs = self.link.system.kernel.obs
        if state["attempts"] >= self.config.retry_cap:
            del self._pending[seq]
            self.abandoned.append(seq)
            self._log(("give-up", seq, self.sim.now, state["attempts"]))
            # Unreliable courtesy notice so the server can release the
            # head-of-line hole before its own gap timeout.
            self.link.send(
                "up",
                self.config.ack_bytes,
                lambda seq=seq: self._deliver(SkipPacket(seq)),
                label=f"skip:{seq}",
            )
            if obs is not None:
                obs.remote_give_up(seq)
            if self._on_abandoned is not None:
                self._on_abandoned(seq)
            return
        self.estimator.on_timeout()
        self.rto_backoffs += 1
        self.retransmits += 1
        state["rto_ns"] = self.estimator.rto_ns()
        if obs is not None:
            obs.remote_retransmit(seq, state["attempts"] + 1, state["rto_ns"])
        self._transmit(seq)

    def on_ack(self, ack: AckPacket) -> None:
        state = self._pending.pop(ack.seq, None)
        if state is None:
            return  # duplicate ack, or the input was already abandoned
        if state["timer"] is not None:
            state["timer"].cancel()
        now = self.sim.now
        transmissions = state["attempts"]
        if transmissions == 1:
            # Karn: only unambiguous (never-retransmitted) samples.
            self.estimator.sample(now - state["first_sent_ns"])
        self.acked[ack.seq] = transmissions
        self._log(("ack", ack.seq, now, transmissions))
        if self._on_acked is not None:
            self._on_acked(ack.seq, transmissions)

    # ------------------------------------------------------------------
    def counters(self) -> dict:
        return {
            "sent": self._next_seq - 1,
            "acked": len(self.acked),
            "abandoned": len(self.abandoned),
            "in_flight": len(self._pending),
            "retransmits": self.retransmits,
            "rto_backoffs": self.rto_backoffs,
            "rtt_samples": self.estimator.samples,
        }
