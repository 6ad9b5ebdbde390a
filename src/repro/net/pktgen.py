"""Workload traffic generators, mirroring the paper's augmented DPDK pkt-gen.

Two modes, matching the evaluation methodology:

* :class:`OpenLoopGenerator` — Poisson arrivals at a target rate, used for
  the characterization and scheduler experiments (§2.2, §5.4).
* :class:`ClosedLoopGenerator` — N logical clients, each with at most one
  outstanding request (§5.1: "invokes operations in a closed-loop manner").

Generators stamp packets with their creation time so end-to-end latency can
be measured at the point the reply returns.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..sim import LatencyRecorder, Rng, Simulator, Timeout, spawn
from .packet import Packet

PayloadFactory = Callable[[int], Any]
SendFn = Callable[[Packet], None]


class OpenLoopGenerator:
    """Poisson (or deterministic) open-loop source of request packets.

    The send path is the hottest loop in every sweep, so packet emission
    runs on the kernel's handle-free fast path (:meth:`Simulator.post`)
    rather than a generator process: each emission callback sends one
    packet and arms the next, and interarrival gaps are drawn from the
    RNG ``batch`` at a time to amortise the draw loop.  The RNG draw
    *order* is identical to the seed's one-draw-per-packet generator, so
    seeded runs reproduce the same packet schedule.
    """

    def __init__(self, sim: Simulator, send: SendFn, src: str, dst: str,
                 rate_mpps: float, size: int,
                 payload_factory: Optional[PayloadFactory] = None,
                 rng: Optional[Rng] = None, poisson: bool = True,
                 flow_count: int = 16, batch: int = 64):
        if rate_mpps <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.send = send
        self.src = src
        self.dst = dst
        self.rate_per_us = rate_mpps  # 1 Mpps == 1 packet/µs
        self.size = size
        self.payload_factory = payload_factory
        self.rng = rng or Rng(1)
        self.poisson = poisson
        self.flow_count = flow_count
        self.batch = max(1, batch)
        self.sent = 0
        self._stop = False
        self._gaps: list = []        # prefetched gaps, reversed for pop()
        self._arm()

    def stop(self) -> None:
        self._stop = True

    def _refill(self) -> None:
        if self.poisson:
            draw = self.rng.poisson_interarrival
            rate = self.rate_per_us
            gaps = [draw(rate) for _ in range(self.batch)]
        else:
            gaps = [1.0 / self.rate_per_us] * self.batch
        gaps.reverse()
        self._gaps = gaps

    def _arm(self) -> None:
        if not self._gaps:
            self._refill()
        self.sim.post(self._gaps.pop(), self._emit)

    def _emit(self) -> None:
        if self._stop:
            return
        payload = (self.payload_factory(self.sent)
                   if self.payload_factory else None)
        packet = Packet(
            src=self.src, dst=self.dst, size=self.size,
            flow_id=self.sent % self.flow_count,
            payload=payload, created_at=self.sim.now,
        )
        self.send(packet)
        self.sent += 1
        self._arm()


class ClosedLoopGenerator:
    """N clients, one outstanding request each; records reply latency.

    The destination is expected to eventually cause a reply packet to be
    routed back to ``src``; wire :meth:`on_reply` into the client node's
    receive path.  With a ``service``, each reply's latency also feeds
    that service's SLO histogram on the simulator's PulsePlane.
    """

    def __init__(self, sim: Simulator, send: SendFn, src: str, dst: str,
                 clients: int, size: int,
                 payload_factory: Optional[PayloadFactory] = None,
                 rng: Optional[Rng] = None, think_time_us: float = 0.0,
                 tag: Optional[str] = None, service: Optional[str] = None):
        if clients <= 0:
            raise ValueError("need at least one client")
        self.sim = sim
        self.send = send
        self.src = src
        self.dst = dst
        #: demux tag stamped into every request's ``client`` meta key;
        #: unique per generator so a multi-generator client node can
        #: route each reply to exactly its owning generator
        self.tag = tag if tag is not None else src
        self.clients = clients
        self.size = size
        self.payload_factory = payload_factory
        self.rng = rng or Rng(2)
        self.think_time_us = think_time_us
        self.service = service
        self.latency = LatencyRecorder(f"{src}->{dst}")
        self.completed = 0
        self.sent = 0
        self._stop = False
        self._pending: dict = {}
        for client in range(clients):
            spawn(sim, self._client(client), name=f"client-{src}-{client}")

    def stop(self) -> None:
        self._stop = True

    def throughput_mpps(self, elapsed_us: float) -> float:
        """Completed operations per microsecond (== Mops)."""
        return self.completed / elapsed_us if elapsed_us > 0 else 0.0

    def on_reply(self, packet: Packet) -> None:
        """Deliver a reply packet back to its waiting client."""
        waiter = self._pending.pop(packet.meta.get("client"), None)
        if waiter is not None:
            now = self.sim.now
            latency = now - packet.created_at
            self.latency.record(latency)
            pulse = self.sim.pulse
            if pulse is not None and self.service is not None:
                pulse.observe(self.service, latency, now)
            self.completed += 1
            waiter.trigger(packet)

    def _client(self, client_id: int):
        from ..sim import Signal

        while not self._stop:
            if self.think_time_us:
                yield Timeout(self.rng.exponential(self.think_time_us))
            payload = (self.payload_factory(self.sent)
                       if self.payload_factory else None)
            packet = Packet(
                src=self.src, dst=self.dst, size=self.size,
                flow_id=client_id, payload=payload,
                created_at=self.sim.now,
            )
            packet.meta["client"] = (self.tag, client_id)
            waiter = Signal(self.sim)
            self._pending[(self.tag, client_id)] = waiter
            self.send(packet)
            self.sent += 1
            yield waiter
