"""Traffic control: hardware traffic manager and off-path NIC switch (§2.1).

* On-path NICs (LiquidIOII) push every incoming packet through the hardware
  traffic manager, which exposes a *shared work queue* to all NIC cores with
  near-zero synchronization cost (implication I2, Figure 5).
* Off-path NICs (BlueField, Stingray) instead have a NIC switch that
  forwards flows either to the host (bypassing NIC cores) or to NIC cores,
  according to installed forwarding rules.  A software shuffle queue with a
  higher sync cost stands in for the missing traffic manager (§3.2.6).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from ..sim import Simulator
from ..sim.process import Command, Process
from ..net import Packet
from .calibration import HW_SHARED_QUEUE_SYNC_US, SW_SHARED_QUEUE_SYNC_US
from .specs import NicSpec


class _Pop(Command):
    """A core's blocking dequeue; see :meth:`TrafficManager.pop`."""

    __slots__ = ("manager", "service")

    def __init__(self, manager: "TrafficManager",
                 service: Optional[Callable[[Any], float]]):
        self.manager = manager
        self.service = service

    def subscribe(self, process: Process) -> None:
        manager = self.manager
        if manager.items:
            manager._hand(process, self.service, manager.items.popleft())
        else:
            manager._waiters.append((process, self.service))


class TrafficManager:
    """Shared work-queue abstraction feeding NIC cores.

    ``dequeue_sync_us`` is the per-dequeue synchronization tax — tiny when
    a hardware traffic manager provides the queue, ~10x larger for a
    software (spinlock) shuffle queue.

    :meth:`pop` charges that tax itself.  An item is *handed* to a core
    at time ``t``: when the core asks while the queue holds work, or,
    for cores blocked on an empty queue, in FIFO order as items are
    pushed.  The core then resumes once, at ``(t + dequeue_sync_us) +
    service(item)`` (the ``service`` term only when it is given and
    positive), and receives ``(item, t)`` — the float a
    ``Timeout(sync)``, ``Timeout(service)`` chain started at ``t``
    would reach, with ``t`` itself exact.  :meth:`try_pop` charges
    nothing; its caller pays the sync.

    Same-timestamp caveat: the resume is posted at the handoff, not
    from a wake event at ``t`` as that chain's ``Timeout`` was.  So
    against an event at exactly the resume time that was posted
    between the push and such a wake, the core can now run first.
    """

    def __init__(self, sim: Simulator, hardware: bool = True):
        self.sim = sim
        self.hardware = hardware
        self.items: Deque[Any] = deque()
        #: blocked cores, FIFO: (process, service)
        self._waiters: Deque[Tuple[Process, Any]] = deque()
        self.dequeue_sync_us = (
            HW_SHARED_QUEUE_SYNC_US if hardware else SW_SHARED_QUEUE_SYNC_US)
        self.enqueued = 0

    def push(self, packet: Packet) -> None:
        """Hardware enqueue of an arriving packet (work item)."""
        self.enqueued += 1
        if self._waiters:
            process, service = self._waiters.popleft()
            self._hand(process, service, packet)
        else:
            self.items.append(packet)

    def pop(self, service: Optional[Callable[[Any], float]] = None) -> _Pop:
        """Process command: dequeue a work item, paying the sync and then
        ``service(item)`` microseconds; resumes with ``(item, t)``.  The
        command keeps no state between uses, so a core may yield the
        same one for every dequeue."""
        return _Pop(self, service)

    def try_pop(self):
        """Immediate dequeue; returns None when the queue is empty."""
        return self.items.popleft() if self.items else None

    def withdraw(self, process: Process) -> bool:
        """Take a blocked core out of the waiters (it failed or stalled):
        the items pushed from now on go to the cores still waiting.
        True when the core was waiting."""
        waiting = len(self._waiters)
        self._waiters = deque(w for w in self._waiters if w[0] is not process)
        return len(self._waiters) < waiting

    def _hand(self, process: Process, service, item) -> None:
        t = self.sim.now
        when = t + self.dequeue_sync_us
        if service is not None:
            cost = service(item)
            if cost > 0:
                when += cost
        self.sim.post_at(when, process._resume, (item, t))

    def __len__(self) -> int:
        return len(self.items)


class NicSwitch:
    """Off-path forwarding: steer flows to NIC cores or straight to host.

    Rules map a classification key to ``"nic"`` or ``"host"``.  The default
    action sends traffic to the NIC cores (where iPipe runs); host-bound
    flows bypass NIC compute entirely, as BlueField/Stingray do.
    """

    def __init__(self, sim: Simulator,
                 to_nic: Callable[[Packet], None],
                 to_host: Callable[[Packet], None],
                 default: str = "nic",
                 switching_latency_us: float = 0.3):
        if default not in ("nic", "host"):
            raise ValueError("default must be 'nic' or 'host'")
        self.sim = sim
        self.to_nic = to_nic
        self.to_host = to_host
        self.default = default
        self.switching_latency_us = switching_latency_us
        self.rules: dict = {}
        self.steered_nic = 0
        self.steered_host = 0

    def install_rule(self, key, target: str) -> None:
        if target not in ("nic", "host"):
            raise ValueError("target must be 'nic' or 'host'")
        self.rules[key] = target

    def remove_rule(self, key) -> None:
        self.rules.pop(key, None)

    def classify(self, packet: Packet):
        """Rule key for a packet: (kind, flow)."""
        return packet.meta.get("steer_key", packet.kind)

    def ingest(self, packet: Packet) -> None:
        target = self.rules.get(self.classify(packet), self.default)
        if target == "host":
            self.steered_host += 1
            self.sim.post(self.switching_latency_us, self.to_host, packet)
        else:
            self.steered_nic += 1
            self.sim.post(self.switching_latency_us, self.to_nic, packet)


def traffic_manager_for(sim: Simulator, spec: NicSpec) -> TrafficManager:
    """Build the work queue matching the NIC's hardware capabilities."""
    return TrafficManager(sim, hardware=spec.has_traffic_manager)
