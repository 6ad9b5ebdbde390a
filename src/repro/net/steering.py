"""SteerPlane: connection-consistent fabric load balancing.

Promotes the Maglev microbench (Table 3: "Load balancer" [18]) into a
real steering layer for the two-tier fabric.  Three pieces:

* :class:`MaglevTable` — the consistent-hashing lookup table, now with
  *incremental* backend add/remove (only the changed backend's slots are
  remapped, ≤ 2/M of the table per change) and an in-place
  :meth:`~MaglevTable.replace_backend` used when a live migration
  repoints a shard to its new home without disturbing any other flow.
* :class:`SteeringController` — epoch-versioned steering state pushed to
  the ToR/spine switches.  Packets addressed to a virtual service IP
  (``svc:<name>``) are rewritten to a concrete backend; per-connection
  affinity pins keep a flow on its backend for the lifetime of an epoch,
  and the pin itself implements the *forwarding window*: packets steered
  under the old epoch keep reaching the draining backend (whose runtime
  forwards them cross-rack) until the window is flushed.
* :class:`Rebalancer` — the policy loop reacting to FaultPlane rack
  schedules: it live-migrates every shard out of a rack before the rack
  dies (advance notice) and repatriates the shards when the rack
  returns, mirroring p4containerflow's zero-loss backend migration
  behind a consistent-hashing switch LB.

The controller records every steering decision and every delivery note
in append-only ledgers; :class:`repro.check.SteeringMonitor` replays the
ledgers against the epoch snapshots to prove the safety invariants
(ownership, affinity stability, exactly-once delivery).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..sim import Simulator, spawn
from .packet import Packet

#: Prime table size for steering services — small enough that epoch
#: snapshots stay cheap, large enough for an even share over few shards.
DEFAULT_STEERING_TABLE = 251
#: How long (µs) the forwarding window stays open after a repoint:
#: old-epoch packets still in flight are tombstone-forwarded to the new
#: backend until the window is flushed.
DEFAULT_WINDOW_US = 2_000.0


def _hash(name: str, salt: str) -> int:
    return zlib.crc32(f"{salt}:{name}".encode()) & 0x7FFFFFFF


class MaglevTable:
    """The Maglev lookup table over a set of backends.

    Construction follows the paper: each backend derives a permutation
    of table slots from two hashes and slots are filled round-robin, so
    every backend owns an almost-equal share.  Backend changes after
    construction are *incremental*: only slots owned by the removed
    backend (or stolen by the added one) are remapped, bounding
    disruption at roughly ``table_size / len(backends)`` entries —
    the ≤ 2/M minimal-disruption property the tests assert.
    """

    #: Maglev uses a prime table size; 65537 in the paper, smaller here by
    #: default to keep construction fast in tests.
    def __init__(self, backends: Sequence[str], table_size: int = 2039):
        if table_size < 2:
            raise ValueError("table size must be >= 2")
        self.table_size = table_size
        self.backends: List[str] = list(backends)
        self.lookup_table: List[Optional[str]] = [None] * table_size
        if self.backends:
            self._populate()

    def _permutation(self, backend: str) -> List[int]:
        offset = _hash(backend, "offset") % self.table_size
        skip = _hash(backend, "skip") % (self.table_size - 1) + 1
        return [(offset + j * skip) % self.table_size
                for j in range(self.table_size)]

    def _populate(self) -> None:
        permutations = {b: self._permutation(b) for b in self.backends}
        next_idx = {b: 0 for b in self.backends}
        table: List[Optional[str]] = [None] * self.table_size
        filled = 0
        while filled < self.table_size:
            for backend in self.backends:
                perm = permutations[backend]
                idx = next_idx[backend]
                while idx < self.table_size and table[perm[idx]] is not None:
                    idx += 1
                if idx >= self.table_size:
                    next_idx[backend] = idx
                    continue
                table[perm[idx]] = backend
                next_idx[backend] = idx + 1
                filled += 1
                if filled == self.table_size:
                    break
        self.lookup_table = table

    def pick(self, flow_key: str) -> str:
        """Backend for a flow (consistent across table rebuilds)."""
        if not self.backends:
            raise RuntimeError("no backends")
        return self.lookup_table[_hash(flow_key, "flow") % self.table_size]

    def remove_backend(self, backend: str) -> None:
        """Drop a backend, remapping only the slots it owned.

        Freed slots are refilled round-robin: the survivor with the
        fewest slots (name as tiebreak) claims the next freed slot along
        its own Maglev permutation, preserving both the even share and
        every surviving backend's existing slots.
        """
        self.backends.remove(backend)
        if not self.backends:
            self.lookup_table = [None] * self.table_size
            return
        freed = {i for i, b in enumerate(self.lookup_table) if b == backend}
        counts = {b: 0 for b in self.backends}
        for owner in self.lookup_table:
            if owner in counts:
                counts[owner] += 1
        permutations = {b: self._permutation(b) for b in self.backends}
        cursor = {b: 0 for b in self.backends}
        while freed:
            taker = min(self.backends, key=lambda b: (counts[b], b))
            perm = permutations[taker]
            idx = cursor[taker]
            while perm[idx] not in freed:
                idx += 1
            cursor[taker] = idx + 1
            slot = perm[idx]
            freed.discard(slot)
            self.lookup_table[slot] = taker
            counts[taker] += 1

    def add_backend(self, backend: str) -> None:
        """Add a backend, stealing only its fair share of slots.

        The newcomer walks its own permutation claiming empty slots and
        slots of over-share owners until it reaches the even share; no
        other slot changes hands.
        """
        if backend in self.backends:
            raise ValueError(f"backend {backend!r} already present")
        self.backends.append(backend)
        if all(owner is None for owner in self.lookup_table):
            self._populate()
            return
        target = self.table_size // len(self.backends)
        counts = {b: 0 for b in self.backends}
        for owner in self.lookup_table:
            if owner in counts:
                counts[owner] += 1
        taken = 0
        for slot in self._permutation(backend):
            if taken >= target:
                break
            owner = self.lookup_table[slot]
            if owner is None or counts.get(owner, 0) > target:
                if owner is not None:
                    counts[owner] -= 1
                self.lookup_table[slot] = backend
                counts[backend] += 1
                taken += 1

    def replace_backend(self, old: str, new: str) -> None:
        """Rename a backend in place: zero slots change owner share.

        This is the repoint step of a live migration — every flow that
        hashed to ``old`` now reaches ``new``, and no other flow moves.
        """
        idx = self.backends.index(old)
        if new in self.backends:
            raise ValueError(f"backend {new!r} already present")
        self.backends[idx] = new
        self.lookup_table = [new if owner == old else owner
                             for owner in self.lookup_table]

    def share(self, backend: str) -> float:
        """Fraction of table slots owned by a backend."""
        return sum(1 for b in self.lookup_table if b == backend) / self.table_size


class SteeringService:
    """Per-service steering state: table, epoch, affinity pins."""

    def __init__(self, name: str, backends: Sequence[str],
                 table_size: int = DEFAULT_STEERING_TABLE,
                 window_us: float = DEFAULT_WINDOW_US):
        self.name = name
        self.vip = f"svc:{name}"
        self.table = MaglevTable(backends, table_size=table_size)
        self.epoch = 0
        self.window_us = window_us
        #: flow key -> (backend, epoch of the pin).  The pin is the
        #: forwarding window: until flushed, old-epoch flows keep being
        #: steered to the draining backend.
        self.affinity: Dict[str, Tuple[str, int]] = {}
        #: epoch -> immutable lookup-table snapshot, for owner_at().
        self.snapshots: Dict[int, Tuple[Optional[str], ...]] = {
            0: tuple(self.table.lookup_table)}


class SteeringController:
    """Epoch-versioned steering tables installed on fabric switches.

    Switches call :meth:`route` for packets addressed to a service VIP;
    runtimes call the :meth:`note_delivery` hook (via
    ``IPipeRuntime.steer_note``) when a steered request is handed to a
    live actor.  Both sides append to ledgers the SteeringMonitor
    checks.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._services: Dict[str, SteeringService] = {}
        self._by_vip: Dict[str, SteeringService] = {}
        #: (time, service, flow key, backend, epoch) per routing decision.
        self.decisions: List[Tuple[float, str, str, str, int]] = []
        #: (time, service, uid, backend, epoch, flow key) per delivery.
        self.deliveries: List[Tuple[float, str, object, str, int,
                                    Optional[str]]] = []
        self.steered = 0
        self.pinned_hits = 0
        self.epoch_changes = 0

    # -- configuration ----------------------------------------------------
    def add_service(self, name: str, backends: Sequence[str],
                    table_size: int = DEFAULT_STEERING_TABLE,
                    window_us: float = DEFAULT_WINDOW_US) -> SteeringService:
        if name in self._services:
            raise ValueError(f"steering service {name!r} already declared")
        service = SteeringService(name, backends, table_size=table_size,
                                  window_us=window_us)
        self._services[name] = service
        self._by_vip[service.vip] = service
        return service

    def service(self, name: str) -> SteeringService:
        return self._services[name]

    def services(self) -> List[str]:
        return sorted(self._services)

    def install(self, switch) -> None:
        """Point a ToR/spine switch at this controller."""
        switch.steering = self

    # -- data path --------------------------------------------------------
    def route(self, packet: Packet) -> bool:
        """Rewrite a VIP-addressed packet to its owning backend.

        Returns True when the packet was steered (``packet.dst`` now
        names a concrete node); False when the destination is not a
        known service VIP.
        """
        service = self._by_vip.get(packet.dst)
        if service is None:
            return False
        flow = packet.meta.get("steer_key")
        if flow is None:
            flow = f"{packet.src}:{packet.flow_id}"
        pinned = service.affinity.get(flow)
        if pinned is not None:
            backend, epoch = pinned
            self.pinned_hits += 1
        else:
            backend = service.table.pick(flow)
            epoch = service.epoch
            service.affinity[flow] = (backend, epoch)
        packet.dst = backend
        packet.meta["steer_service"] = service.name
        packet.meta["steer_key"] = flow
        packet.meta["steer_epoch"] = epoch
        self.steered += 1
        self.decisions.append(
            (self.sim.now, service.name, flow, backend, epoch))
        return True

    def note_delivery(self, backend: str, packet: Packet) -> None:
        """Record that a steered request reached a live actor."""
        name = packet.meta.get("steer_service")
        if name is None:
            return
        self.deliveries.append(
            (self.sim.now, name, packet.meta.get("req_uid"), backend,
             packet.meta.get("steer_epoch", -1),
             packet.meta.get("steer_key")))

    # -- epoch management -------------------------------------------------
    def owner_at(self, service: str, epoch: int,
                 flow: str) -> Optional[str]:
        """The backend owning a flow under a specific epoch's table."""
        state = self._services.get(service)
        if state is None:
            return None
        snapshot = state.snapshots.get(epoch)
        if not snapshot:
            return None
        return snapshot[_hash(flow, "flow") % len(snapshot)]

    def replace_backend(self, service: str, old: str, new: str) -> int:
        """Repoint a shard to its migrated home; returns the new epoch.

        Bumps the service epoch and snapshots the new table.  Affinity
        pins to the old backend deliberately survive — they are the
        forwarding window — until :meth:`flush` closes it.
        """
        state = self._services[service]
        state.table.replace_backend(old, new)
        state.epoch += 1
        self.epoch_changes += 1
        state.snapshots[state.epoch] = tuple(state.table.lookup_table)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(f"steer:repoint:{service}", "steering",
                           track="mgmt", old=old, new=new,
                           epoch=state.epoch)
        return state.epoch

    def flush(self, service: str, old_backend: str) -> int:
        """Close the forwarding window: drop pins to the old backend."""
        state = self._services[service]
        stale = [flow for flow, (backend, _epoch)
                 in state.affinity.items() if backend == old_backend]
        for flow in stale:
            del state.affinity[flow]
        return len(stale)


# -- rebalancing policy -------------------------------------------------------

@dataclass(frozen=True)
class RebalanceSpec:
    """Policy reacting to rack outages — and, with ``on_load``, to
    sustained per-backend utilization skew measured by the PulsePlane."""

    #: The steered service to rebalance (default: the first declared).
    service: str = ""
    #: Start evacuating this many µs before a scheduled rack outage.
    notice_us: float = 1_000.0
    #: Migrate shards back to their home servers when the rack returns.
    return_home: bool = True
    #: React to PulsePlane utilization samples (LoadFeed) — migrate the
    #: hottest backend off an overloaded server on *sustained* skew.
    on_load: bool = False
    #: Absolute utilization a backend's server must reach to count hot.
    util_high: float = 0.75
    #: ...and exceed the fleet mean by at least this much (skew, not
    #: uniform overload, justifies moving work around).
    skew_min: float = 0.25
    #: Hysteresis: consecutive hot samples required before migrating.
    sustain_periods: int = 3
    #: Cooldown between load-driven moves (µs) — one migration must get
    #: the chance to take effect before the next is considered.
    cooldown_us: float = 5_000.0

    def __post_init__(self) -> None:
        for name, ok, rule in (
                ("notice_us", self.notice_us >= 0, ">= 0"),
                ("util_high", 0.0 < self.util_high <= 1.0, "in (0, 1]"),
                ("skew_min", 0.0 <= self.skew_min <= 1.0, "in [0, 1]"),
                ("sustain_periods", self.sustain_periods >= 1, ">= 1"),
                ("cooldown_us", self.cooldown_us >= 0, ">= 0")):
            if not ok:
                raise ValueError(f"{name} must be {rule} "
                                 f"(got {getattr(self, name)})")


@dataclass
class MovableBackend:
    """How to move one steered backend: its actors and state hooks."""

    actors: Tuple[str, ...]
    detach: Optional[Callable[[], object]] = None
    attach: Optional[Callable[[object, object], None]] = None


class Rebalancer:
    """Evacuate steered backends ahead of rack outages; repatriate after.

    Reads the FaultPlane's rack schedule at construction and arms an
    evacuation ``notice_us`` before each outage; subscribes to rack
    up/down events for repatriation (and as a late-notice fallback).
    With ``policy.on_load`` set it additionally reacts to PulsePlane
    utilization samples (:meth:`on_load_sample`, fed by
    :class:`repro.obs.pulse.LoadFeed`): a backend whose server stays
    both hot and skewed above the fleet mean for ``sustain_periods``
    consecutive samples is live-migrated to the least-loaded spare,
    subject to a ``cooldown_us`` gap between moves.
    """

    def __init__(self, sim: Simulator, controller: SteeringController,
                 migrator, policy: RebalanceSpec, service: str,
                 backends: Dict[str, MovableBackend],
                 runtimes: Dict[str, object],
                 rack_of: Callable[[str], Optional[str]],
                 window_us: float, fault_plane=None) -> None:
        self.sim = sim
        self.controller = controller
        self.migrator = migrator
        self.policy = policy
        self.service = service
        #: forwarding-window length handed to each migration
        self.window_us = window_us
        self.backends = backends
        self.runtimes = runtimes
        self.rack_of = rack_of
        #: home server -> server currently hosting that backend.
        self.placement: Dict[str, str] = {home: home for home in backends}
        #: (time, service, home, src, dst) per completed move.
        self.moves: List[Tuple[float, str, str, str, str]] = []
        self.interrupted = 0
        self._moving: set = set()
        #: load-trigger state: per-home consecutive hot-sample streaks.
        self.load_moves = 0
        self._hot_streak: Dict[str, int] = {}
        self._last_load_move = -float("inf")
        if fault_plane is not None:
            for rack, at_us, _duration in fault_plane.rack_schedule():
                when = max(self.sim.now, at_us - policy.notice_us)
                self.sim.post_at(when, self._evacuate, rack)
            fault_plane.rack_listeners.append(self._on_rack_event)

    # -- event plumbing ---------------------------------------------------
    def _on_rack_event(self, event: str, rack: str) -> None:
        if event == "down":
            # Late-notice fallback: anything still in the rack leaves now.
            self._evacuate(rack)
        elif event == "up" and self.policy.return_home:
            self._repatriate(rack)

    def _evacuate(self, rack: str) -> None:
        for home in sorted(self.placement):
            current = self.placement[home]
            if home in self._moving or self.rack_of(current) != rack:
                continue
            dst = self._pick_destination(exclude_rack=rack)
            if dst is None:
                continue
            self._launch(home, current, dst)

    def _repatriate(self, rack: str) -> None:
        for home in sorted(self.placement):
            current = self.placement[home]
            if (home in self._moving or current == home
                    or self.rack_of(home) != rack):
                continue
            self._launch(home, current, home)

    # -- load-driven migration (LoadFeed entry point) ---------------------
    def on_load_sample(self, now: float, utils: Dict[str, float]
                       ) -> Optional[Tuple[str, str]]:
        """One pulse of per-server utilization; maybe launch a move.

        ``utils`` maps server name -> mean NIC-core utilization over the
        last sample period (every candidate server, not only current
        backends).  Returns ``(home, dst)`` when a migration launched,
        None otherwise.  Hysteresis (``sustain_periods`` consecutive hot
        samples) filters transient spikes; ``cooldown_us`` spaces moves
        so one migration's effect is measured before the next fires.
        """
        policy = self.policy
        if not policy.on_load or len(utils) < 2:
            return None
        mean = sum(utils.values()) / len(utils)
        for home in sorted(self.placement):
            util = utils.get(self.placement[home])
            if util is None or home in self._moving:
                continue
            if util >= policy.util_high and util - mean >= policy.skew_min:
                self._hot_streak[home] = self._hot_streak.get(home, 0) + 1
            else:
                self._hot_streak[home] = 0
        if now - self._last_load_move < policy.cooldown_us:
            return None
        sustained = [home for home in sorted(self.placement)
                     if self._hot_streak.get(home, 0)
                     >= max(policy.sustain_periods, 1)
                     and home not in self._moving]
        # hottest first; one move per sample keeps the loop observable
        sustained.sort(
            key=lambda h: (-utils.get(self.placement[h], 0.0), h))
        for home in sustained:
            src = self.placement[home]
            dst = self._pick_load_destination(utils, exclude=src)
            if dst is None:
                continue
            self._hot_streak[home] = 0
            self._last_load_move = now
            self.load_moves += 1
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.instant(f"rebalance:load:{home}", "steering",
                               track="mgmt", src=src, dst=dst,
                               util=utils.get(src))
            self._launch(home, src, dst)
            return (home, dst)
        return None

    def _pick_load_destination(self, utils: Dict[str, float],
                               exclude: str) -> Optional[str]:
        """Least-loaded running server hosting no backend already."""
        hosting = set(self.placement.values())
        best: Optional[str] = None
        best_util = float("inf")
        for name in sorted(self.runtimes):
            if name == exclude or name in hosting:
                continue
            if not self.runtimes[name]._running:
                continue
            util = utils.get(name, 0.0)
            if util < best_util:
                best, best_util = name, util
        return best

    def _pick_destination(self, exclude_rack: str) -> Optional[str]:
        hosting = set(self.placement.values())
        for name in sorted(self.runtimes):
            if (name in hosting or self.rack_of(name) == exclude_rack
                    or not self.runtimes[name]._running):
                continue
            return name
        return None

    def _launch(self, home: str, src: str, dst: str) -> None:
        self._moving.add(home)
        self.placement[home] = dst
        spawn(self.sim, self._move(home, src, dst),
              name=f"rebalance:{home}->{dst}")

    def _move(self, home: str, src: str, dst: str):
        from ..core.migration import MigrationInterrupted
        movable = self.backends[home]
        try:
            yield from self.migrator.migrate(
                self.runtimes[src], self.runtimes[dst],
                list(movable.actors), service=self.service,
                detach=movable.detach, attach=movable.attach,
                window_us=self.window_us)
        except MigrationInterrupted:
            # Destination died mid-move; shard is still safe at the
            # source (checkpoint retained) — put the placement back so a
            # later evacuation retries with a different destination.
            self.interrupted += 1
            self.placement[home] = src
            return
        finally:
            self._moving.discard(home)
        self.moves.append((self.sim.now, self.service, home, src, dst))
