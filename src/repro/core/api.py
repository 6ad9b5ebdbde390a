"""The public iPipe runtime API (Table 4).

Thin functional façade over the runtime objects, mirroring the C API the
paper publishes.  Four categories: actor management (Actor), distributed
memory objects (DMO), message passing (MSG), and the networking stack
(Nstack).  Functions marked runtime-internal in the paper (``*``) are
still exposed here for completeness but are normally called by the
framework itself.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..net import Packet
from .actor import Actor, Location, Message
from .dmo import Dmo
from .runtime import IPipeRuntime

# -- Actor management -----------------------------------------------------------


def actor_create(name: str, exec_handler, init_handler=None, **kwargs) -> Actor:
    """(*) Create an actor object (not yet registered with a runtime)."""
    return Actor(name, exec_handler, init_handler=init_handler, **kwargs)


def actor_register(runtime: IPipeRuntime, actor: Actor,
                   steering_keys: Optional[List[str]] = None) -> Actor:
    """(*) Register an actor into the runtime (allocates its DMO region,
    installs dispatch rules, runs ``init_handler``)."""
    return runtime.register_actor(actor, steering_keys=steering_keys)


def actor_init(runtime: IPipeRuntime, actor: Actor) -> None:
    """(*) (Re-)run the actor's state initialization handler."""
    if actor.init_handler is not None:
        from .runtime import ExecutionContext
        actor.init_handler(actor, ExecutionContext(runtime, actor, core_id=-1))


def actor_delete(runtime: IPipeRuntime, name: str) -> None:
    """(*) Remove the actor from the runtime and reclaim its resources."""
    runtime.delete_actor(name)


def actor_migrate(runtime: IPipeRuntime, name: str):
    """(*) Force-migrate an actor to the other side.

    Returns a process generator; spawn it (or ``yield from`` it) to run
    the four-phase protocol.
    """
    actor = runtime.actors.lookup(name)
    if actor is None:
        raise KeyError(f"no actor named {name!r}")
    if actor.location is Location.NIC:
        return runtime.migrator.migrate_to_host(actor)
    return runtime.migrator.migrate_to_nic(actor)


# -- Distributed memory objects ------------------------------------------------------


def dmo_malloc(runtime: IPipeRuntime, actor: str, size: int, data: Any = None) -> Dmo:
    """Allocate a distributed memory object in the actor's region."""
    owner = runtime.actors.lookup(actor)
    location = owner.location if owner is not None else Location.NIC
    return runtime.dmo.malloc(actor, size, data=data, location=location)


def dmo_free(runtime: IPipeRuntime, actor: str, object_id: int) -> None:
    runtime.dmo.free(actor, object_id)


def dmo_mmset(runtime: IPipeRuntime, actor: str, object_id: int, value: Any) -> None:
    runtime.dmo.memset(actor, object_id, value)


def dmo_mmcpy(runtime: IPipeRuntime, actor: str, dst: int, src: int) -> None:
    runtime.dmo.memcpy(actor, dst, src)


def dmo_mmmove(runtime: IPipeRuntime, actor: str, dst: int, src: int) -> None:
    runtime.dmo.memmove(actor, dst, src)


def dmo_migrate(runtime: IPipeRuntime, actor: str, object_id: int,
                to: Location) -> Dmo:
    """Relocate one object to the other side."""
    return runtime.dmo.migrate(actor, object_id, to)


# -- Message passing -------------------------------------------------------------------


def msg_init(runtime: IPipeRuntime, slots: int = 1024):
    """Initialize a remote message I/O ring pair (returns the channel)."""
    from .channel import Channel
    return Channel(runtime.sim, runtime._channel_dma, slots=slots)


def msg_read(channel, side: str = "host") -> Optional[Message]:
    """(*) Poll one message from the ring (host or NIC consumer side)."""
    return channel.host_poll() if side == "host" else channel.nic_poll()


def msg_write(channel, msg: Message, side: str = "host") -> None:
    """Write a message into the ring toward the other side."""
    if side == "host":
        channel.host_send(msg)
    else:
        channel.nic_send(msg)


# -- Networking stack --------------------------------------------------------------------


def nstack_new_wqe(src: str, dst: str, size: int, payload: Any = None,
                   kind: str = "data") -> Packet:
    """Create a new work-queue entry (packet)."""
    return Packet(src=src, dst=dst, size=size, payload=payload, kind=kind)


def nstack_hdr_cap(packet: Packet, **fields) -> Packet:
    """Build/patch the packet header fields."""
    for key, value in fields.items():
        if hasattr(packet, key):
            setattr(packet, key, value)
        else:
            packet.meta[key] = value
    return packet


def nstack_send(runtime: IPipeRuntime, packet: Packet,
                side: Location = Location.NIC) -> None:
    """Send a packet to the TX port."""
    runtime.transmit_from(side, packet)


def nstack_get_wqe(message: Message) -> Optional[Packet]:
    """Retrieve the work-queue entry underlying a message."""
    return message.packet


def nstack_recv(runtime: IPipeRuntime):
    """(*) Process command: block until the shared queue hands over a
    work item, pay the queue's dequeue sync, and resume with ``(item,
    t)``, ``t`` being the handoff time (the scheduler's FCFS loop
    blocks the same way; see :meth:`TrafficManager.pop`)."""
    return runtime.nic.traffic_manager.pop()
