"""The request client, mirroring the paper's augmented DPDK pkt-gen.

One :class:`Client` class issues every request and keeps one ledger.
A client port (``repro.scenario.build.ClientPort``) creates the clients
and hands each reply to its owner.  Requests arrive open-loop (Poisson
or deterministic, §2.2/§5.4), closed-loop (N clients with one request
outstanding each and an exponential think time, §5.1), or from a
script that calls :meth:`Client.request`; scripted requests retry on
timeout and may carry a steering stamp.  Every request carries
``meta["client"] = (tag, seq)``, and its reply copies it.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..sim import LatencyRecorder, Rng, Signal, Timeout, spawn
from .packet import Packet

#: open-loop interarrival gaps drawn from the RNG per refill
GAP_BATCH = 64
#: open-loop requests cycle over this many flow ids
FLOWS = 16
#: transmissions of one scripted request before the client gives up
MAX_ATTEMPTS = 20
#: the retry timeout grows as timeout x min(2^(attempt-1), BACKOFF_CAP)
BACKOFF_CAP = 8


class Client:
    """One request issuer and its ledger.

    The ledger: ``sent`` requests (not counting retransmissions),
    ``answered``, ``in_flight``, ``lost`` (retry budget spent, still
    unanswered), ``retransmits``, ``duplicates`` (replies to a request
    already answered), the ``latency`` of each answer from the request's
    first transmission, and with a ``service`` the SLO feed into that
    service's PulsePlane histogram.  ``sent == answered + in_flight +
    lost``.  Per-request state is kept only where a reply must find its
    request: a waiting closed-loop client, or an unanswered scripted
    request (its retry timer needs it).  An open loop keeps none.
    """

    def __init__(self, port, tag: str, dst: Optional[str] = None,
                 size: int = 0,
                 payload_factory: Optional[Callable[[int], Any]] = None,
                 rng: Optional[Rng] = None, service: Optional[str] = None,
                 timeout_us: Optional[float] = None, connections: int = 0):
        self.sim = port.sim
        self._send = port.network.send
        self.name = port.name
        self.tag = tag                   # the port's demux key
        self.dst = dst
        self.size = size
        self.payload_factory = payload_factory
        self.rng = rng
        self.service = service
        self.timeout_us = timeout_us     # retry timeout; None: no retry
        self.connections = connections   # steering stamp; 0: none
        self.mode = "scripted"
        self.latency = LatencyRecorder(f"{self.name}->{dst}")
        self.sent = self.answered = self.retransmits = self.duplicates = 0
        #: seq -> a waiting closed-loop client's Signal, or a scripted
        #: request's [first sent, attempts, dst, kind, payload, size]
        self._pending: Optional[dict] = {} if timeout_us is not None else None
        self._stop = False

    def stop(self) -> None:
        self._stop = True

    @property
    def lost(self) -> int:
        retried = () if self.timeout_us is None else self._pending.values()
        return sum(1 for state in retried if state[1] >= MAX_ATTEMPTS)

    @property
    def in_flight(self) -> int:
        if self._pending is None:
            return self.sent - self.answered
        return len(self._pending) - self.lost

    def _answer(self, packet: Packet, seq: int) -> None:
        """Count the reply to request ``seq``; the port's demux calls it."""
        now = self.sim.now
        latency = now - packet.created_at
        entry = None
        if self._pending is not None:
            entry = self._pending.pop(seq, None)
            if entry is None:
                self.duplicates += 1
                return
            if self.timeout_us is not None:     # a scripted request's state
                latency, entry = now - entry[0], None
        self.answered += 1
        self.latency.record(latency)
        pulse = self.sim.pulse
        if pulse is not None and self.service is not None:
            pulse.observe(self.service, latency, now)
        if entry is not None:                   # a waiting closed-loop client
            entry.trigger(packet)

    # -- open loop: emissions on the kernel's handle-free fast path -------
    def _open(self, rate_mpps: float, poisson: bool) -> None:
        if rate_mpps <= 0:
            raise ValueError("rate must be positive")
        self.mode = "open"
        self.rate_per_us = rate_mpps  # 1 Mpps == 1 packet/µs
        self.poisson = poisson
        self._gaps: list = []        # prefetched gaps, reversed for pop()
        self._arm()

    def _arm(self) -> None:
        gaps = self._gaps
        if not gaps:
            # GAP_BATCH draws at a time, in the one-draw-per-packet order
            if self.poisson:
                draw, rate = self.rng.poisson_interarrival, self.rate_per_us
                gaps = [draw(rate) for _ in range(GAP_BATCH)]
            else:
                gaps = [1.0 / self.rate_per_us] * GAP_BATCH
            gaps.reverse()
            self._gaps = gaps
        self.sim.post(gaps.pop(), self._emit)

    def _emit(self) -> None:
        if self._stop:
            return
        seq = self.sent
        payload = self.payload_factory(seq) if self.payload_factory else None
        self._send(Packet(
            src=self.name, dst=self.dst, size=self.size,
            flow_id=seq % FLOWS, payload=payload, created_at=self.sim.now,
            meta={"client": (self.tag, seq)}))
        self.sent += 1
        self._arm()

    # -- closed loop ------------------------------------------------------
    def _closed(self, clients: int, think_time_us: float) -> None:
        if clients <= 0:
            raise ValueError("need at least one client")
        self.mode = "closed"
        self.think_time_us = think_time_us
        self._pending = {}
        for client in range(clients):
            spawn(self.sim, self._loop(client),
                  name=f"client-{self.name}-{client}")

    def _loop(self, client_id: int):
        while not self._stop:
            if self.think_time_us:
                yield Timeout(self.rng.exponential(self.think_time_us))
            payload = (self.payload_factory(self.sent)
                       if self.payload_factory else None)
            packet = Packet(src=self.name, dst=self.dst, size=self.size,
                            flow_id=client_id, payload=payload,
                            created_at=self.sim.now)
            packet.meta["client"] = (self.tag, client_id)
            self._pending[client_id] = waiter = Signal(self.sim)
            self._send(packet)
            self.sent += 1
            yield waiter

    # -- scripted, with retry ---------------------------------------------
    def request(self, dst: str, kind: str, payload, size: int = 128) -> int:
        """Send one request; returns its sequence number."""
        seq = self.sent
        self.sent += 1
        self._pending[seq] = [self.sim.now, 0, dst, kind, payload, size]
        self._transmit(seq)
        return seq

    def _transmit(self, seq: int) -> None:
        state = self._pending[seq]
        state[1] = attempt = state[1] + 1
        if attempt > 1:
            self.retransmits += 1
        packet = Packet(self.name, state[2], state[5], kind=state[3],
                        payload=state[4], created_at=self.sim.now)
        packet.meta["client"] = (self.tag, seq)
        if self.connections:
            self.stamp(packet, seq)
        self._send(packet)
        if attempt < MAX_ATTEMPTS:
            # capped exponential back-off: late recoveries (actor
            # restarts) take longer than a lost frame
            backoff = self.timeout_us * min(2 ** (attempt - 1), BACKOFF_CAP)
            self.sim.post(backoff, self._retry, seq)

    def _retry(self, seq: int) -> None:
        if seq in self._pending:
            self._transmit(seq)

    def stamp(self, packet: Packet, seq: int) -> None:
        """The steering stamp: a stable per-connection ``steer_key``, and
        a ``req_uid`` shared by every copy of one request, so a copy
        racing a repoint is suppressed as a duplicate."""
        packet.meta["req_uid"] = ("req", seq)
        packet.meta["steer_key"] = f"{self.name}:conn{seq % self.connections}"
