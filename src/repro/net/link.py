"""Point-to-point links with serialization and propagation delay.

A link is unidirectional (full-duplex ports are modelled as two links).
Serialization is enforced: a frame cannot start clocking out until the
previous frame has finished, which is what makes small-packet line rate a
packets-per-second limit rather than a bits-per-second one.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..sim import Simulator
from .packet import Packet, serialization_delay_us

#: Default one-way propagation within a rack (fibre + PHY), microseconds.
DEFAULT_PROPAGATION_US = 0.3

Receiver = Callable[[Packet], None]


class Link:
    """A unidirectional link feeding a receiver callback.

    The transmit side models an output queue of unbounded depth: frames
    handed to :meth:`transmit` are serialized back-to-back at line rate.
    ``queue_delay`` therefore emerges naturally under overload.
    """

    def __init__(self, sim: Simulator, bandwidth_gbps: float,
                 receiver: Optional[Receiver] = None,
                 propagation_us: float = DEFAULT_PROPAGATION_US,
                 name: str = "link"):
        if bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth_gbps = bandwidth_gbps
        self.propagation_us = propagation_us
        self.receiver = receiver
        self.name = name
        self._next_free = 0.0
        self.frames_sent = 0
        self.bytes_sent = 0
        #: optional FaultPlane consulted per frame (see repro.sim.faults)
        self.fault_plane = None
        self.frames_dropped = 0
        self.frames_corrupted = 0
        #: frame size -> serialization time at this link's rate
        self._ser_us: Dict[int, float] = {}

    def connect(self, receiver: Receiver) -> None:
        self.receiver = receiver

    def serialization_us(self, size: int) -> float:
        """Time to clock a ``size``-byte frame out, computed once per size."""
        ser = self._ser_us.get(size)
        if ser is None:
            ser = self._ser_us[size] = serialization_delay_us(
                self.bandwidth_gbps, size)
        return ser

    def transmit(self, packet: Packet) -> float:
        """Enqueue a frame; returns its delivery time at the receiver."""
        if self.receiver is None:
            raise RuntimeError(f"{self.name}: no receiver connected")
        start = max(self.sim.now, self._next_free)
        done = start + self.serialization_us(packet.size)
        self._next_free = done
        deliver_at = done + self.propagation_us
        self.frames_sent += 1
        self.bytes_sent += packet.size
        fate = None
        if self.fault_plane is not None:
            fate = self.fault_plane.frame_fate(self.name, packet)
        tracer = self.sim.tracer
        if tracer is not None:
            # wire occupancy: queueing behind the previous frame is
            # visible as start > sim.now in the exported trace
            tracer.record_span(
                "tx", "link", start, deliver_at,
                trace=packet.meta.get("trace"),
                node=self.name.split(".", 1)[0], track=self.name,
                size=packet.size, kind=packet.kind,
                fate=fate or "delivered")
        if fate is not None:
            # the frame still occupies the wire; it is just never
            # handed up (lost, or discarded by the receiving MAC on
            # an FCS mismatch)
            if fate == "drop":
                self.frames_dropped += 1
            else:
                self.frames_corrupted += 1
            return deliver_at
        self.sim.post_at(deliver_at, self.receiver, packet)
        return deliver_at

    @property
    def backlog_us(self) -> float:
        """How far ahead of now the transmit queue currently extends."""
        return max(0.0, self._next_free - self.sim.now)

    def utilization(self, elapsed_us: float) -> float:
        """Fraction of capacity used, based on bytes clocked out."""
        if elapsed_us <= 0:
            return 0.0
        sent_bits = self.bytes_sent * 8
        capacity_bits = self.bandwidth_gbps * 1e9 * elapsed_us / 1e6
        return min(sent_bits / capacity_bits, 1.0)


class DuplexPort:
    """A pair of links modelling a full-duplex port between two endpoints."""

    def __init__(self, sim: Simulator, bandwidth_gbps: float,
                 propagation_us: float = DEFAULT_PROPAGATION_US,
                 name: str = "port"):
        self.tx = Link(sim, bandwidth_gbps, propagation_us=propagation_us,
                       name=f"{name}.tx")
        self.rx = Link(sim, bandwidth_gbps, propagation_us=propagation_us,
                       name=f"{name}.rx")
