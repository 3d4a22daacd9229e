"""Network interface device.

The paper's definition of event-handling latency covers "an
asynchronous stream of independent and diverse events that result from
interactive user input **or network packet arrival**" (Section 1.1).
The NIC delivers that second event class: each arriving packet raises
the ``nic`` interrupt, and the OS input pipeline turns it into a
window message (the WSAAsyncSelect style of the era, where winsock
notified applications through their message queues).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..engine import Simulator

__all__ = ["Packet", "Nic"]


@dataclass(frozen=True)
class Packet:
    """One received datagram."""

    payload: object
    size_bytes: int
    arrived_ns: int


class Nic:
    """Receive-side network interface: one interrupt per packet."""

    VECTOR = "nic"

    def __init__(
        self,
        sim: Simulator,
        raise_interrupt: Optional[Callable[[str, object], None]] = None,
    ) -> None:
        self.sim = sim
        self._raise_interrupt = raise_interrupt
        self.packets_received = 0
        self.bytes_received = 0

    def deliver(self, payload: object, size_bytes: int = 256) -> Packet:
        """A packet arrives from the wire right now."""
        if self._raise_interrupt is None:
            raise RuntimeError("NIC not connected to an interrupt controller")
        if size_bytes <= 0:
            raise ValueError("packet size must be positive")
        packet = Packet(
            payload=payload, size_bytes=size_bytes, arrived_ns=self.sim.now
        )
        self.packets_received += 1
        self.bytes_received += size_bytes
        self._raise_interrupt(self.VECTOR, packet)
        return packet
