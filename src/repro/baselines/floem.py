"""Floem-style static offload baseline (§5.6).

Floem [53] is a dataflow programming system for SmartNIC offload whose
placement is *static*: offloaded elements stay on the NIC regardless of
traffic, complex elements stay on the host, and NIC↔host traffic crosses
a per-packet logical queue.  Two consequences the paper measures:

* under small-packet load the NIC elements keep computing while the NIC
  cores are needed for forwarding, collapsing throughput (iPipe instead
  migrates everything to the host and dedicates NIC cores to packets);
* the NIC-side bypass/multiplexing queue charges every crossing packet,
  so even the best case loses per-core efficiency (1.6 vs 2.9 Gbps/core
  on RTA).

Implemented as an :class:`~repro.core.runtime.IPipeRuntime` configured
with every adaptive mechanism off, plus the per-packet multiplexing
overhead on NIC-side handlers.
"""

from __future__ import annotations

from typing import List, Optional

from ..core import IPipeRuntime, SchedulerConfig
from ..core.actor import Actor, Location, Message
from ..host.machine import HostMachine
from ..net import Fabric
from ..nic.device import SmartNic
from ..sim import Simulator, Timeout

#: Per-packet cost of Floem's NIC-side logical-queue multiplexing layer.
FLOEM_QUEUE_OVERHEAD_US = 1.0
#: Static placement rule: elements costlier than this run on the host
#: ("the common computation elements of Floem mainly comprise of simple
#: tasks ... complex ones are performed on the host side", §5.6).
FLOEM_COMPLEX_THRESHOLD_US = 10.0


def floem_config() -> SchedulerConfig:
    """Static placement: no downgrades, no migration, no auto-scaling."""
    return SchedulerConfig(downgrade_enabled=False, migration_enabled=False,
                           autoscale=False)


class FloemRuntime(IPipeRuntime):
    """iPipe's machinery with Floem's static policy and queue overhead."""

    def __init__(self, sim: Simulator, nic: SmartNic, host: HostMachine,
                 network: Fabric, node_name: str, host_workers: int = 4):
        super().__init__(sim, nic, host, network, node_name,
                         config=floem_config(), host_workers=host_workers)

    def register_actor(self, actor: Actor,
                       steering_keys: Optional[List[str]] = None,
                       region_bytes: Optional[int] = None) -> Actor:
        # Static dataflow placement, decided once at configuration time:
        # simple elements on the NIC, complex ones on the host; nothing
        # ever moves afterwards.
        if (actor.profile is not None
                and actor.profile.exec_us > FLOEM_COMPLEX_THRESHOLD_US):
            actor.location = Location.HOST
        actor.pinned = True
        return super().register_actor(actor, steering_keys=steering_keys,
                                      region_bytes=region_bytes)

    def _nic_executor(self, core_id: int, actor: Actor, msg: Message):
        # every packet pays the logical-queue multiplexing tax first
        yield Timeout(FLOEM_QUEUE_OVERHEAD_US)
        yield from super()._nic_executor(core_id, actor, msg)
