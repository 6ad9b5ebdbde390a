"""FaultPlane: deterministic fault injection for the NIC/host dataplane.

The runtime detects datapath failures (ring checksums, the DoS watchdog,
quota enforcement) but testing those paths used to rely on monkeypatching
``Channel.nic_send`` and friends.  The FaultPlane replaces that with a
first-class, *seeded* injector that the simulation components consult at
well-defined points:

* ``Link.transmit``       → frame loss / corruption on the wire
* ``Ring.produce``        → torn DMA writes (checksum mismatch on arrival)
* ``Ring.poll``           → consumer-side ring stalls (PCIe hiccups)
* ``NicScheduler``        → NIC core stalls and permanent core failures
* ``IPipeRuntime``        → actor crashes

Faults are declared as :class:`FaultSpec` records and can trigger three
ways, all deterministic for a given seed and event order:

* **stochastic** — ``probability`` per matching event, drawn from a
  per-spec forked :class:`~repro.sim.distributions.Rng` stream;
* **counted** — ``every_nth`` matching event;
* **scheduled** — explicit ``at_us`` times, or a ``period_us`` train
  inside ``[start_us, stop_us)`` (scheduled kinds only).

Every injection is appended to :attr:`FaultPlane.schedule_log` as a
``(time, kind, target)`` tuple, so two runs with the same seed can be
compared for byte-identical fault schedules (deterministic replay).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Tuple

from .distributions import Rng
from .engine import Simulator


class FaultKind:
    """String constants naming every injectable fault."""

    LINK_LOSS = "link_loss"        # frame dropped on the wire
    LINK_CORRUPT = "link_corrupt"  # frame FCS-corrupted, discarded by the MAC
    DMA_TORN = "dma_torn"          # torn DMA write: ring checksum mismatch
    RING_STALL = "ring_stall"      # consumer side of a ring freezes
    CORE_STALL = "core_stall"      # one NIC core stops scheduling temporarily
    CORE_FAIL = "core_fail"        # one NIC core fails permanently
    ACTOR_CRASH = "actor_crash"    # an actor process dies (DMO state survives)
    RACK_DOWN = "rack_down"        # whole rack dark: every server link + ToR


#: kinds decided per matching datapath event (probability / every_nth)
EVENT_KINDS = frozenset({
    FaultKind.LINK_LOSS, FaultKind.LINK_CORRUPT, FaultKind.DMA_TORN,
})
#: kinds fired at explicit virtual times (at_us / period_us)
SCHEDULED_KINDS = frozenset({
    FaultKind.RING_STALL, FaultKind.CORE_STALL, FaultKind.CORE_FAIL,
    FaultKind.ACTOR_CRASH,
})
#: kinds that expand over a whole rack of the wired fabric
RACK_KINDS = frozenset({FaultKind.RACK_DOWN})
ALL_KINDS = EVENT_KINDS | SCHEDULED_KINDS | RACK_KINDS

#: safety valve for unbounded period_us trains
_MAX_PERIODIC_FIRES = 100_000


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: what to break, where, and when.

    ``target`` is an fnmatch pattern matched against the component name
    (link name, ring name, actor name) — except for core faults, where it
    is the core id as a string.  ``node`` restricts scheduled faults to
    one runtime (``None`` = every wired runtime).
    """

    kind: str
    target: str = "*"
    node: Optional[str] = None
    #: stochastic trigger: inject with this probability per matching event
    probability: float = 0.0
    #: counted trigger: inject on every Nth matching event (0 = disabled)
    every_nth: int = 0
    #: scheduled trigger: explicit virtual times in µs
    at_us: Tuple[float, ...] = ()
    #: scheduled trigger: fire every period_us within [start_us, stop_us)
    period_us: float = 0.0
    start_us: float = 0.0
    stop_us: float = float("inf")
    #: for stalls: how long the component stays frozen
    duration_us: float = 0.0
    #: cap on total injections from this spec (None = unlimited)
    max_count: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.every_nth < 0:
            raise ValueError("every_nth must be >= 0")
        if self.kind in RACK_KINDS:
            if self.probability or self.every_nth:
                raise ValueError(
                    f"{self.kind} is scheduled; use at_us, not "
                    f"probability/every_nth")
            if not self.at_us and self.period_us <= 0.0:
                raise ValueError(f"{self.kind} needs at_us or period_us")
            if self.duration_us <= 0.0:
                raise ValueError(f"{self.kind} needs duration_us > 0")
            if (self.period_us > 0.0 and self.stop_us == float("inf")
                    and self.max_count is None):
                raise ValueError(
                    "periodic faults need stop_us or max_count (unbounded)")
        elif self.kind in EVENT_KINDS:
            if self.at_us or self.period_us:
                raise ValueError(
                    f"{self.kind} triggers per event; use probability or "
                    f"every_nth, not at_us/period_us")
            if self.probability == 0.0 and self.every_nth == 0:
                raise ValueError(
                    f"{self.kind} needs probability or every_nth")
        else:
            if self.probability or self.every_nth:
                raise ValueError(
                    f"{self.kind} is scheduled; use at_us or period_us")
            if not self.at_us and self.period_us <= 0.0:
                raise ValueError(f"{self.kind} needs at_us or period_us")
            if (self.period_us > 0.0 and self.stop_us == float("inf")
                    and self.max_count is None):
                raise ValueError(
                    "periodic faults need stop_us or max_count (unbounded)")

    def fire_times(self) -> List[float]:
        """Virtual times at which a scheduled spec fires (sorted)."""
        times = [t for t in self.at_us if self.start_us <= t < self.stop_us]
        if self.period_us > 0.0:
            cap = self.max_count if self.max_count is not None \
                else _MAX_PERIODIC_FIRES
            t = self.start_us
            while t < self.stop_us and len(times) < cap + len(self.at_us):
                times.append(t)
                t += self.period_us
        return sorted(times)


@dataclass
class FaultSnapshot:
    """Telemetry roll-up of everything the FaultPlane injected."""

    injected: Dict[str, int] = field(default_factory=dict)
    schedule_len: int = 0

    @property
    def total(self) -> int:
        return sum(self.injected.values())


class FaultPlane:
    """Seeded fault injector consulted by wired dataplane components.

    Wiring is explicit: call :meth:`wire_link` / :meth:`wire_network` for
    the fabric and :meth:`wire_runtime` (or the finer-grained
    :meth:`wire_channel` / :meth:`wire_dma`) per server.  Add every
    :class:`FaultSpec` *before* wiring runtimes so scheduled faults arm
    correctly; event-triggered specs may be added at any time.
    """

    def __init__(self, sim: Simulator, seed: int = 42,
                 specs: Optional[List[FaultSpec]] = None,
                 component_streams: bool = False):
        self.sim = sim
        self.seed = seed
        self.specs: List[FaultSpec] = []
        self._rngs: List[Rng] = []
        self._matched: List[int] = []      # matching events seen, per spec
        self._injections: List[int] = []   # faults injected, per spec
        #: per-(spec, component) streams: the stochastic/counted decision
        #: for an event depends only on (seed, spec, component, match
        #: ordinal on that component) — not on the global interleaving of
        #: matches across components.  Off by default: the shared-stream
        #: mode is pinned by existing golden fault schedules.
        self._component_streams = component_streams
        self._component_rngs: Dict[Tuple[int, str], Rng] = {}
        self._component_matched: Dict[Tuple[int, str], int] = {}
        self.counts: Dict[str, int] = {}
        #: deterministic-replay record: (time_us, kind, component)
        self.schedule_log: List[Tuple[float, str, str]] = []
        self._runtimes: List[object] = []
        self._links: List[object] = []
        self._rings: List[object] = []
        #: callbacks invoked with ("down"|"up", rack_name) on rack events
        self.rack_listeners: List = []
        self._network = None
        self._armed_rack_specs: set = set()
        for spec in specs or []:
            self.add(spec)

    # -- spec management ------------------------------------------------------
    def add(self, spec: FaultSpec) -> FaultSpec:
        """Register a spec; scheduled kinds arm against wired runtimes."""
        idx = len(self.specs)
        self.specs.append(spec)
        # one independent stream per spec: draws stay aligned no matter
        # how many other specs are consulted in between.  crc32 (not
        # hash()) so the derived seed is stable across processes.
        salt = zlib.crc32(f"fault-{idx}-{spec.kind}".encode())
        self._rngs.append(Rng((self.seed * 1_000_003 + salt) & 0x7FFFFFFF))
        self._matched.append(0)
        self._injections.append(0)
        if spec.kind in SCHEDULED_KINDS:
            for runtime in self._runtimes:
                self._arm_spec(idx, runtime)
        if spec.kind in RACK_KINDS and self._network is not None:
            self._arm_rack_spec(idx)
        return spec

    def _exhausted(self, idx: int) -> bool:
        cap = self.specs[idx].max_count
        return cap is not None and self._injections[idx] >= cap

    def _record(self, idx: int, kind: str, component: str) -> None:
        self._injections[idx] += 1
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.schedule_log.append((round(self.sim.now, 6), kind, component))

    def _decide(self, idx: int, component: Optional[str] = None) -> bool:
        """Event-trigger decision for spec ``idx`` (already matched)."""
        if self._exhausted(idx):
            return False
        spec = self.specs[idx]
        if self._component_streams and component is not None:
            key = (idx, component)
            matched = self._component_matched.get(key, 0) + 1
            self._component_matched[key] = matched
            if spec.every_nth and matched % spec.every_nth == 0:
                return True
            if spec.probability > 0.0:
                rng = self._component_rngs.get(key)
                if rng is None:
                    salt = zlib.crc32(
                        f"fault-{idx}-{spec.kind}-{component}".encode())
                    rng = Rng((self.seed * 1_000_003 + salt) & 0x7FFFFFFF)
                    self._component_rngs[key] = rng
                return rng.random() < spec.probability
            return False
        self._matched[idx] += 1
        if spec.every_nth and self._matched[idx] % spec.every_nth == 0:
            return True
        if spec.probability > 0.0:
            return self._rngs[idx].random() < spec.probability
        return False

    def _event_fault(self, kind: str, component: str) -> bool:
        window_ok = False
        for idx, spec in enumerate(self.specs):
            if spec.kind != kind:
                continue
            if not (spec.start_us <= self.sim.now < spec.stop_us):
                continue
            if not fnmatchcase(component, spec.target):
                continue
            if self._decide(idx, component):
                self._record(idx, kind, component)
                window_ok = True
        return window_ok

    # -- datapath decision points --------------------------------------------
    def frame_fate(self, link_name: str, packet) -> Optional[str]:
        """Consulted by ``Link.transmit``: None, ``"drop"`` or ``"corrupt"``."""
        if self._event_fault(FaultKind.LINK_LOSS, link_name):
            return "drop"
        if self._event_fault(FaultKind.LINK_CORRUPT, link_name):
            return "corrupt"
        return None

    def tear_write(self, ring_name: str) -> bool:
        """Consulted by ``Ring.produce``: corrupt this slot's checksum?"""
        return self._event_fault(FaultKind.DMA_TORN, ring_name)

    # -- wiring ---------------------------------------------------------------
    def wire_link(self, link) -> None:
        link.fault_plane = self
        self._links.append(link)

    def wire_network(self, network) -> None:
        """Wire every link of the fabric currently attached: node
        uplinks, ToR downlinks, and (multi-rack) the ToR↔spine pairs.
        Also arms any rack-level specs against the fabric topology."""
        self._network = network
        for idx, spec in enumerate(self.specs):
            if spec.kind in RACK_KINDS:
                self._arm_rack_spec(idx)
        if hasattr(network, "links"):
            for link in network.links():
                self.wire_link(link)
            return
        for link in network._uplinks.values():
            self.wire_link(link)
        for link in network.switch._egress.values():
            self.wire_link(link)

    def wire_dma(self, dma) -> None:
        dma.fault_plane = self

    def wire_channel(self, channel) -> None:
        for ring in (channel.to_host, channel.to_nic):
            ring.fault_plane = self
            self._rings.append(ring)
        self.wire_dma(channel.to_host.dma)

    def wire_runtime(self, runtime) -> None:
        """Wire a server runtime: channel rings + scheduled-fault arming."""
        self._runtimes.append(runtime)
        runtime.fault_plane = self
        self.wire_channel(runtime.channel)
        for idx, spec in enumerate(self.specs):
            if spec.kind in SCHEDULED_KINDS:
                self._arm_spec(idx, runtime)

    # -- scheduled faults -----------------------------------------------------
    def _arm_spec(self, idx: int, runtime) -> None:
        spec = self.specs[idx]
        if spec.node is not None and spec.node != runtime.node_name:
            return
        for when in spec.fire_times():
            self.sim.post_at(max(when, self.sim.now), self._fire, idx, runtime)

    def _fire(self, idx: int, runtime) -> None:
        if self._exhausted(idx):
            return
        spec = self.specs[idx]
        kind = spec.kind
        if kind == FaultKind.CORE_FAIL:
            core = int(spec.target)
            if runtime.nic_scheduler.fail_core(core):
                self._record(idx, kind, f"{runtime.node_name}.core{core}")
        elif kind == FaultKind.CORE_STALL:
            core = int(spec.target)
            if runtime.nic_scheduler.stall_core(core, spec.duration_us):
                self._record(idx, kind, f"{runtime.node_name}.core{core}")
        elif kind == FaultKind.ACTOR_CRASH:
            if runtime.crash_actor(spec.target):
                self._record(
                    idx, kind, f"{runtime.node_name}.{spec.target}")
        elif kind == FaultKind.RING_STALL:
            for ring in (runtime.channel.to_host, runtime.channel.to_nic):
                if fnmatchcase(ring.name, spec.target):
                    ring.stall(spec.duration_us)
                    self._record(idx, kind, ring.name)

    # -- rack-level faults ----------------------------------------------------
    def rack_down(self, name: str, at_us: float,
                  duration_us: float) -> FaultSpec:
        """Kill a whole rack: every server link + the ToR uplink go dark
        for ``duration_us`` starting at ``at_us`` (one declaration)."""
        return self.add(FaultSpec(kind=FaultKind.RACK_DOWN, target=name,
                                  at_us=(at_us,), duration_us=duration_us))

    def rack_schedule(self) -> List[Tuple[str, float, float]]:
        """Planned rack outages as ``(rack, at_us, duration_us)``, sorted."""
        outages = []
        for spec in self.specs:
            if spec.kind in RACK_KINDS:
                for when in spec.fire_times():
                    outages.append((spec.target, when, spec.duration_us))
        return sorted(outages, key=lambda entry: (entry[1], entry[0]))

    def _arm_rack_spec(self, idx: int) -> None:
        if idx in self._armed_rack_specs:
            return
        self._armed_rack_specs.add(idx)
        for when in self.specs[idx].fire_times():
            self.sim.post_at(max(when, self.sim.now), self._fire_rack, idx)

    def _rack_links(self, rack: str) -> List:
        """Every link touching a rack: node up/downlinks + spine pair."""
        network = self._network
        links = []
        node_rack = getattr(network, "_node_rack", {})
        for name in sorted(n for n, r in node_rack.items() if r == rack):
            links.append(network._uplinks[name])
        tor = getattr(network, "switches", {}).get(rack)
        if tor is not None:
            for name in sorted(tor._egress):
                links.append(tor._egress[name])
            if tor.uplink is not None:
                links.append(tor.uplink)
        spine = getattr(network, "spine", None)
        if spine is not None and rack in spine._egress:
            links.append(spine._egress[rack])
        return links

    def _fire_rack(self, idx: int) -> None:
        """Expand one rack outage into per-link total-loss windows."""
        if self._exhausted(idx) or self._network is None:
            return
        spec = self.specs[idx]
        rack = spec.target
        stop = self.sim.now + spec.duration_us
        for link in self._rack_links(rack):
            self.add(FaultSpec(kind=FaultKind.LINK_LOSS, target=link.name,
                               probability=1.0, start_us=self.sim.now,
                               stop_us=stop))
        self._record(idx, FaultKind.RACK_DOWN, rack)
        for listener in list(self.rack_listeners):
            listener("down", rack)
        self.sim.post_at(stop, self._rack_restore, rack)

    def _rack_restore(self, rack: str) -> None:
        """The outage window expired: log the return and notify."""
        self.schedule_log.append(
            (round(self.sim.now, 6), "rack_up", rack))
        for listener in list(self.rack_listeners):
            listener("up", rack)

    # -- telemetry ------------------------------------------------------------
    def snapshot(self) -> FaultSnapshot:
        return FaultSnapshot(injected=dict(self.counts),
                             schedule_len=len(self.schedule_log))


@dataclass
class RecoveryPolicy:
    """How the runtime restarts crashed / watchdog-killed actors.

    Restarts reuse the migration machinery: messages arriving while the
    actor is down are buffered (phase-1 style) and re-forwarded on
    restart (phase-4 style); the actor's DMO region is never torn down,
    so the restarted actor resumes from DMO-recovered state.
    """

    restart_delay_us: float = 50.0
    backoff_factor: float = 2.0
    restart_crashed: bool = True
    restart_killed: bool = True
    max_restarts: int = 16
