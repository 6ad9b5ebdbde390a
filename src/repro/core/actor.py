"""The actor programming model (§3.1).

An actor is a computation agent with a self-contained private state
(distributed memory objects), a mailbox of asynchronous messages, and two
handlers: ``init_handler`` for state initialization and ``exec_handler``
for message execution.  Actors never share memory; all interaction is
message passing.

Handlers are written as Python generators so they can charge virtual time
(``yield ctx.compute(...)``), invoke accelerators, and send messages while
the scheduler retains control of the hosting core.  The handler's
*functional* effects (mutating skip lists, appending Paxos log entries …)
happen eagerly in Python — the reproduction executes the application logic
for real.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, Optional

from ..nic.cores import WorkloadProfile
from ..sim import LatencyTracker

if TYPE_CHECKING:
    from ..net.packet import Packet

_actor_ids = itertools.count(1)
_message_ids = itertools.count(1)


class Location(enum.Enum):
    """Where an actor currently executes."""

    NIC = "nic"
    HOST = "host"


class MigrationState(enum.Enum):
    """The §3.2.5 migration lifecycle."""

    RUNNING = "running"
    PREPARE = "prepare"
    READY = "ready"
    GONE = "gone"
    CLEAN = "clean"


@dataclass
class Message:
    """An asynchronous message delivered to an actor's mailbox."""

    target: str                 # actor name
    kind: str = "request"
    payload: Any = None
    size: int = 64              # bytes, drives wire/DMA costs
    source: Optional[str] = None
    created_at: float = 0.0
    #: The originating network packet, when the message came off the wire
    #: (used to route the reply back to the client).
    packet: Any = None
    msg_id: int = field(default_factory=lambda: next(_message_ids))
    meta: Dict[str, Any] = field(default_factory=dict)


# -- the request wire format (docs/SCENARIOS.md) ------------------------------
#
# A request payload comes in one of two forms.  The workload form
# ``{"kind": K, ...}`` (no "payload" key), which the fleet generators
# emit, is dispatched by ``K``.  The envelope form ``{"kind": K,
# "payload": P}``, which ``send_remote`` and migration forwarding emit, is
# dispatched by the frame's own ``kind`` and delivers ``P`` as a ``K``
# message.  Any other payload is delivered whole under the frame's kind.

def decode_kind(packet: Packet) -> None:
    """Re-key a workload-form frame to its payload's kind.  A runtime
    calls this first on every arrival, before anything (the dispatch
    table, an off-path NIC switch) reads ``packet.kind``."""
    payload = packet.payload
    if isinstance(payload, dict) and "kind" in payload \
            and "payload" not in payload:
        packet.kind = payload["kind"]


def ingress_message(packet: Packet, target: str, now: float) -> Message:
    """The message an arriving frame hands to actor ``target`` at
    ``now``, with an envelope payload unwrapped."""
    payload, kind = packet.payload, packet.kind
    if isinstance(payload, dict) and "kind" in payload and "payload" in payload:
        kind, payload = payload["kind"], payload["payload"]
    msg = Message(target=target, kind=kind, payload=payload,
                  size=packet.size, source=packet.src,
                  created_at=packet.created_at, packet=packet)
    msg.meta["nic_arrival"] = now
    return msg


#: exec_handler(actor, message, ctx) -> generator of sim commands
ExecHandler = Callable[["Actor", Message, Any], Any]
#: init_handler(actor, ctx) -> None (plain function, runs at registration)
InitHandler = Callable[["Actor", Any], None]


class Actor:
    """A registered iPipe actor and its runtime bookkeeping."""

    def __init__(self, name: str, exec_handler: ExecHandler,
                 init_handler: Optional[InitHandler] = None,
                 profile: Optional[WorkloadProfile] = None,
                 location: Location = Location.NIC,
                 pinned: bool = False,
                 concurrent: bool = False,
                 state_bytes: int = 1 << 20,
                 port: int = 0,
                 tenant: str = ""):
        self.name = name
        self.actor_id = next(_actor_ids)
        self.exec_handler = exec_handler
        self.init_handler = init_handler
        #: Default cost profile; handlers may charge explicit costs instead.
        self.profile = profile
        self.location = location
        #: Pinned actors never migrate (e.g. the host-only logging actor).
        self.pinned = pinned
        #: exec_lock semantics: ``concurrent=False`` means at most one core
        #: runs this actor at a time (§3.1's exec_lock).
        self.concurrent = concurrent
        self.state_bytes = state_bytes
        self.port = port
        #: Owning tenant ("" = the implicit single tenant; see
        #: docs/TENANCY.md).  Set from AppSpec.tenant at registration.
        self.tenant = tenant

        #: Private state namespace; DMO handles and plain Python values.
        self.state: Dict[str, Any] = {}
        #: Multi-producer multi-consumer FIFO of pending messages.
        self.mailbox: Deque[Message] = deque()
        self.migration_state = MigrationState.RUNNING
        self.is_drr = False
        self.deficit = 0.0
        self._locked_by: Optional[int] = None

        # -- bookkeeping (§3.2.3): EWMA latency, dispersion, load ---------
        #: Response time (execution + queueing), the paper's statistic (1).
        self.latency = LatencyTracker(alpha=0.1)
        #: Pure handler execution time — drives DRR deficit accounting and
        #: migration load ranking; never polluted by queueing delay.
        self.service = LatencyTracker(alpha=0.1)
        self.requests_seen = 0
        self.request_bytes_ewma = 0.0
        self.deregistered = False

    # -- exec_lock -----------------------------------------------------------
    def try_lock(self, core_id: int) -> bool:
        """Acquire the actor for execution on a core."""
        if self.concurrent:
            return True
        if self._locked_by is None:
            self._locked_by = core_id
            return True
        return False

    def unlock(self, core_id: int) -> None:
        if not self.concurrent and self._locked_by == core_id:
            self._locked_by = None

    # -- bookkeeping ---------------------------------------------------------
    def record_execution(self, latency_us: float, request_bytes: int,
                         service_us: Optional[float] = None) -> None:
        self.latency.record(latency_us)
        if service_us is not None:
            self.service.record(service_us)
        self.requests_seen += 1
        if self.request_bytes_ewma == 0.0:
            self.request_bytes_ewma = float(request_bytes)
        else:
            self.request_bytes_ewma += 0.2 * (request_bytes - self.request_bytes_ewma)

    @property
    def dispersion(self) -> float:
        """µ + 3σ of this actor's request latency (downgrade victim metric)."""
        return self.latency.dispersion

    @property
    def mean_exec_us(self) -> float:
        return self.latency.mu

    @property
    def mean_service_us(self) -> float:
        return self.service.mu

    def load(self, elapsed_us: float) -> float:
        """Average execution latency scaled by invocation frequency — the
        quantity the migration policy ranks actors by (§3.2.5)."""
        if elapsed_us <= 0:
            return 0.0
        rate = self.requests_seen / elapsed_us
        return rate * self.service.mu

    @property
    def schedulable(self) -> bool:
        return (self.migration_state == MigrationState.RUNNING
                and not self.deregistered)

    def __repr__(self) -> str:
        return (f"Actor({self.name!r}, id={self.actor_id}, "
                f"loc={self.location.value}, drr={self.is_drr})")


class ActorTable:
    """Directory of registered actors (the paper's ``actor_tbl``)."""

    def __init__(self) -> None:
        self._by_name: Dict[str, Actor] = {}

    def register(self, actor: Actor) -> None:
        if actor.name in self._by_name:
            raise ValueError(f"actor {actor.name!r} already registered")
        self._by_name[actor.name] = actor

    def deregister(self, name: str) -> Optional[Actor]:
        actor = self._by_name.pop(name, None)
        if actor is not None:
            actor.deregistered = True
        return actor

    def lookup(self, name: str) -> Optional[Actor]:
        return self._by_name.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def at(self, location: Location):
        return [a for a in self if a.location is location]
