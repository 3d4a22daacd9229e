"""Deterministic lossy-link model for remote interaction.

A :class:`LossyLink` connects the simulated client machine to an
abstract rendering server through two independent directions (input
events travel *up*, frames travel *down*).  Each direction has its own
bandwidth, propagation delay, jitter, loss and reorder parameters
(:class:`DirectionConfig`), and the whole link can *flap* — go dark for
a fixed window out of every period (:class:`LinkConfig`).

**The determinism contract.**  Every stochastic decision (loss
coin-flips, jitter draws, reorder draws) comes from a named RNG stream
per direction, forked from the client machine's master seed
(``rngs.fork("remote-link")``), and serialization queueing is integer
nanoseconds on the shared event calendar.  Two runs with the same
``(seed, LinkConfig)`` therefore drop, delay and deliver byte-identical
packet schedules — the property ``ext-remote`` pins with golden
digests.  Flap windows are a pure function of simulated time (no
draws), so degrading a link mid-run never perturbs unrelated streams.

Configs are frozen pure data with ``to_dict``/``from_dict`` round-trips
(property-tested with hypothesis) and a content ``fingerprint`` used in
schedule digests and cache variants.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from ..sim.timebase import ns_from_ms

__all__ = ["DirectionConfig", "LinkConfig", "LossyLink"]

#: The two directions of a remote-interaction link.
DIRECTIONS = ("up", "down")


@dataclass(frozen=True)
class DirectionConfig:
    """One direction of the link (client→server or server→client)."""

    bandwidth_kbps: float = 4_000.0   # serialization rate
    delay_ms: float = 20.0            # one-way propagation delay
    jitter_ms: float = 0.0            # uniform [0, jitter_ms) extra delay
    loss: float = 0.0                 # independent drop probability
    reorder: float = 0.0              # probability of a reorder excursion
    reorder_ms: float = 4.0           # extra delay of a reordered packet

    def __post_init__(self) -> None:
        if self.bandwidth_kbps <= 0:
            raise ValueError(f"bandwidth_kbps must be positive: {self.bandwidth_kbps}")
        for name, value in (
            ("delay_ms", self.delay_ms),
            ("jitter_ms", self.jitter_ms),
            ("reorder_ms", self.reorder_ms),
        ):
            if value < 0:
                raise ValueError(f"{name} must be non-negative: {value}")
        for name, value in (("loss", self.loss), ("reorder", self.reorder)):
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1): {value}")

    def to_dict(self) -> dict:
        return {
            "bandwidth_kbps": self.bandwidth_kbps,
            "delay_ms": self.delay_ms,
            "jitter_ms": self.jitter_ms,
            "loss": self.loss,
            "reorder": self.reorder,
            "reorder_ms": self.reorder_ms,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "DirectionConfig":
        return DirectionConfig(
            bandwidth_kbps=float(data.get("bandwidth_kbps", 4_000.0)),
            delay_ms=float(data.get("delay_ms", 20.0)),
            jitter_ms=float(data.get("jitter_ms", 0.0)),
            loss=float(data.get("loss", 0.0)),
            reorder=float(data.get("reorder", 0.0)),
            reorder_ms=float(data.get("reorder_ms", 4.0)),
        )


@dataclass(frozen=True)
class LinkConfig:
    """A full bidirectional link, plus optional periodic flapping.

    ``flap_period_ms``/``flap_down_ms`` describe a link that goes dark
    for ``flap_down_ms`` out of every ``flap_period_ms`` (both zero =
    never flaps).  Flap windows are anchored at the link's creation
    time, deterministically.
    """

    name: str = "lan"
    up: DirectionConfig = field(default_factory=DirectionConfig)
    down: DirectionConfig = field(default_factory=DirectionConfig)
    flap_period_ms: float = 0.0
    flap_down_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.flap_period_ms < 0 or self.flap_down_ms < 0:
            raise ValueError("flap windows must be non-negative")
        if self.flap_down_ms and not self.flap_period_ms:
            raise ValueError("flap_down_ms without flap_period_ms")
        if self.flap_period_ms and self.flap_down_ms >= self.flap_period_ms:
            raise ValueError(
                f"flap_down_ms ({self.flap_down_ms}) must be shorter than "
                f"flap_period_ms ({self.flap_period_ms})"
            )

    @property
    def rtt_ms(self) -> float:
        return self.up.delay_ms + self.down.delay_ms

    def to_dict(self) -> dict:
        return {
            "kind": "link-config",
            "name": self.name,
            "up": self.up.to_dict(),
            "down": self.down.to_dict(),
            "flap_period_ms": self.flap_period_ms,
            "flap_down_ms": self.flap_down_ms,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "LinkConfig":
        if data.get("kind") != "link-config":
            raise ValueError(f"not a link-config payload: {data.get('kind')!r}")
        return LinkConfig(
            name=str(data.get("name", "lan")),
            up=DirectionConfig.from_dict(data.get("up") or {}),
            down=DirectionConfig.from_dict(data.get("down") or {}),
            flap_period_ms=float(data.get("flap_period_ms", 0.0)),
            flap_down_ms=float(data.get("flap_down_ms", 0.0)),
        )

    def fingerprint(self) -> str:
        """Stable content digest (schedule-digest and cache component)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    @staticmethod
    def symmetric(
        name: str,
        rtt_ms: float,
        bandwidth_kbps: float = 4_000.0,
        jitter_ms: float = 0.0,
        loss: float = 0.0,
        reorder: float = 0.0,
        **flap,
    ) -> "LinkConfig":
        """Convenience: both directions share delay = rtt/2 and params."""
        direction = DirectionConfig(
            bandwidth_kbps=bandwidth_kbps,
            delay_ms=rtt_ms / 2.0,
            jitter_ms=jitter_ms,
            loss=loss,
            reorder=reorder,
        )
        return LinkConfig(name=name, up=direction, down=direction, **flap)


class LossyLink:
    """The two-directional lossy pipe between client and server.

    Packets are abstract: callers hand :meth:`send` a byte size and a
    delivery callback; the link decides drop/delay deterministically and
    schedules the callback on the shared simulator.  Registered on the
    system as ``system.remote_link`` so the fault injector's
    ``link-degrade`` kind can find (and degrade) it.
    """

    def __init__(self, system, config: LinkConfig, log: Optional[Callable] = None) -> None:
        self.system = system
        self.sim = system.sim
        self.config = config
        rngs = system.machine.rngs.fork("remote-link")
        self._streams = {d: rngs.stream(d) for d in DIRECTIONS}
        self._busy_until = {d: 0 for d in DIRECTIONS}
        self._log = log
        #: packet tallies per direction.
        self.sent = {d: 0 for d in DIRECTIONS}
        self.delivered = {d: 0 for d in DIRECTIONS}
        self.lost = {d: 0 for d in DIRECTIONS}
        self.flapped = {d: 0 for d in DIRECTIONS}
        self.bytes = {d: 0 for d in DIRECTIONS}
        # Mutable degradation state (driven by the link-degrade fault
        # kind; additive so overlapping windows compose).
        self._loss_add = {d: 0.0 for d in DIRECTIONS}
        self._jitter_add_ms = {d: 0.0 for d in DIRECTIONS}
        self._bandwidth_factor = {d: 1.0 for d in DIRECTIONS}
        #: (period_ns, down_ns, anchor_ns) or None — injected flapping.
        self._flap_override = None
        self._flap_anchor_ns = self.sim.now
        system.remote_link = self

    # ------------------------------------------------------------------
    # Degradation surface (fault injector)
    # ------------------------------------------------------------------
    def degrade(
        self,
        loss_add: float = 0.0,
        jitter_add_ms: float = 0.0,
        bandwidth_factor: float = 1.0,
    ) -> dict:
        """Apply additive degradation to both directions; returns a
        token :meth:`restore` undoes (windows can overlap)."""
        if bandwidth_factor <= 0:
            raise ValueError(f"bandwidth_factor must be positive: {bandwidth_factor}")
        for d in DIRECTIONS:
            self._loss_add[d] += loss_add
            self._jitter_add_ms[d] += jitter_add_ms
            self._bandwidth_factor[d] *= bandwidth_factor
        return {
            "loss_add": loss_add,
            "jitter_add_ms": jitter_add_ms,
            "bandwidth_factor": bandwidth_factor,
        }

    def restore(self, token: dict) -> None:
        for d in DIRECTIONS:
            self._loss_add[d] -= token["loss_add"]
            self._jitter_add_ms[d] -= token["jitter_add_ms"]
            self._bandwidth_factor[d] /= token["bandwidth_factor"]

    def set_flap(self, period_ms: float, down_ms: float) -> None:
        """Override flapping (injected ``link-flap`` faults)."""
        if down_ms >= period_ms or period_ms <= 0:
            raise ValueError(f"invalid flap override: {period_ms}/{down_ms}")
        self._flap_override = (ns_from_ms(period_ms), ns_from_ms(down_ms), self.sim.now)

    def clear_flap(self) -> None:
        self._flap_override = None

    # ------------------------------------------------------------------
    # The pipe
    # ------------------------------------------------------------------
    def is_down(self, at_ns: int) -> bool:
        """Is the link dark at ``at_ns``?  Pure function of time."""
        if self._flap_override is not None:
            period_ns, down_ns, anchor_ns = self._flap_override
        elif self.config.flap_period_ms:
            period_ns = ns_from_ms(self.config.flap_period_ms)
            down_ns = ns_from_ms(self.config.flap_down_ms)
            anchor_ns = self._flap_anchor_ns
        else:
            return False
        return (at_ns - anchor_ns) % period_ns < down_ns

    def effective(self, direction: str) -> DirectionConfig:
        """The direction's config with current degradation folded in."""
        config = getattr(self.config, direction)
        return DirectionConfig(
            bandwidth_kbps=config.bandwidth_kbps * self._bandwidth_factor[direction],
            delay_ms=config.delay_ms,
            jitter_ms=config.jitter_ms + self._jitter_add_ms[direction],
            loss=min(0.99, config.loss + self._loss_add[direction]),
            reorder=config.reorder,
            reorder_ms=config.reorder_ms,
        )

    def backlog_ns(self, direction: str) -> int:
        """Serialization backlog: how far behind real time the
        direction's transmit queue is (the degradation signal)."""
        return max(0, self._busy_until[direction] - self.sim.now)

    def send(
        self,
        direction: str,
        size_bytes: int,
        deliver: Callable[[], None],
        label: str = "pkt",
    ):
        """Offer one packet; returns the delivery event or None if lost.

        Drop decisions (flap window, then loss coin-flip) happen at send
        time; surviving packets serialize behind the direction's queue,
        then cross propagation + jitter (+ a reorder excursion).
        """
        if direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {direction!r}")
        if size_bytes <= 0:
            raise ValueError("packet size must be positive")
        now = self.sim.now
        stream = self._streams[direction]
        config = getattr(self.config, direction)
        self.sent[direction] += 1
        self.bytes[direction] += size_bytes
        obs = self.system.kernel.obs

        if self.is_down(now):
            self.flapped[direction] += 1
            self._note("flap", direction, label, now)
            if obs is not None:
                obs.remote_packet(direction, "flap", size_bytes)
            return None
        loss = min(0.99, config.loss + self._loss_add[direction])
        if loss > 0.0 and stream.random() < loss:
            self.lost[direction] += 1
            self._note("loss", direction, label, now)
            if obs is not None:
                obs.remote_packet(direction, "loss", size_bytes)
            return None

        kbps = config.bandwidth_kbps * self._bandwidth_factor[direction]
        # size_bytes*8 bits at kbps kilobits/second, in integer ns.
        serialize_ns = max(1, round(size_bytes * 8 * 1e6 / kbps))
        start_ns = max(now, self._busy_until[direction])
        end_ns = start_ns + serialize_ns
        self._busy_until[direction] = end_ns

        extra_ns = 0
        jitter_ms = config.jitter_ms + self._jitter_add_ms[direction]
        if jitter_ms > 0.0:
            extra_ns += round(stream.uniform(0.0, jitter_ms) * 1e6)
        if config.reorder > 0.0 and stream.random() < config.reorder:
            extra_ns += ns_from_ms(config.reorder_ms)
        at_ns = end_ns + ns_from_ms(config.delay_ms) + extra_ns

        self.delivered[direction] += 1
        self._note("tx", direction, label, now, at_ns, size_bytes)
        if obs is not None:
            obs.remote_packet(direction, "delivered", size_bytes)
            obs.remote_link_busy(direction, start_ns, end_ns)
            obs.remote_backlog(direction, self.backlog_ns(direction))
        return self.sim.schedule_at(
            at_ns, deliver, label=f"net:{direction}:{label}"
        )

    def _note(self, event: str, *fields) -> None:
        if self._log is not None:
            self._log((event, *fields))

    def counters(self) -> dict:
        return {
            "sent": dict(self.sent),
            "delivered": dict(self.delivered),
            "lost": dict(self.lost),
            "flapped": dict(self.flapped),
            "bytes": dict(self.bytes),
        }
