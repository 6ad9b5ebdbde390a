"""Scenario assembly: one ``build(spec)`` turning data into a simulation.

The builder owns every construction step the experiment modules used to
hand-roll: fabric wiring, server bring-up (iPipe, host-only iPipe, DPDK
and Floem baselines), application placement (including sharded RKV with
cross-rack Paxos replica groups), client fleets, fault-plane wiring and
observability riders.  Construction order is fixed — simulator, fabric,
trace plane, fault plane, servers (rack by rack), apps, client ports,
fleets, fault wiring — so a spec-built deployment schedules the exact
same event sequence as the seed's hand-wired testbeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from ..baselines import DpdkRuntime, FloemRuntime
from ..core import IPipeRuntime, SchedulerConfig
from ..host import HostMachine
from ..net import Client, Fabric, Packet
from ..nic import NicSpec, SmartNic, host_for
from ..sim import FaultPlane, RecoveryPolicy, Rng, Simulator
from ..workloads import KvWorkload, TwitterWorkload, TxnWorkload
from .spec import (
    AppSpec,
    FabricSpec,
    FirewallOptions,
    FleetSpec,
    ScenarioSpec,
    SLOSpec,
    resolve_nic,
)


@dataclass
class Server:
    """One server box: host machine + (Smart)NIC + runtime."""

    name: str
    nic: Optional[SmartNic]
    machine: HostMachine
    runtime: object


class ClientPort:
    """A client node: it creates the node's request clients and hands
    each reply to the client that owns it.

    The demux reads one meta key, ``client = (tag, seq)``, that every
    request carries and its reply copies: one lookup on the tag, O(1)
    per reply.  ``received`` counts every packet the node receives;
    ``unmatched`` counts those that name no local client, e.g. the
    answers to a fire-and-forget flood.
    """

    def __init__(self, sim: Simulator, network: Fabric, name: str):
        self.sim = sim
        self.network = network
        self.name = name
        self.clients: Dict[str, Client] = {}     # tag -> client
        self.received: int = 0
        self.unmatched: int = 0

    def receive(self, packet: Packet) -> None:
        self.received += 1
        key = packet.meta.get("client")
        if key is not None:
            client = self.clients.get(key[0])
            if client is not None:
                client._answer(packet, key[1])
                return
        self.unmatched += 1

    def _client(self, **kwargs) -> Client:
        # the first client keeps the node name as its tag (the seed's
        # meta layout); later ones get a unique suffix for the demux
        tag = f"{self.name}#{len(self.clients)}" if self.clients else self.name
        self.clients[tag] = client = Client(self, tag, **kwargs)
        return client

    def closed_loop(self, dst: str, clients: int, size: int,
                    payload_factory=None, rng: Optional[Rng] = None,
                    think_time_us: float = 0.0,
                    service: Optional[str] = None) -> Client:
        client = self._client(dst=dst, size=size,
                              payload_factory=payload_factory,
                              rng=rng or Rng(2), service=service)
        client._closed(clients, think_time_us)
        return client

    def open_loop(self, dst: str, rate_mpps: float, size: int,
                  payload_factory=None, rng: Optional[Rng] = None,
                  poisson: bool = True) -> Client:
        client = self._client(dst=dst, size=size,
                              payload_factory=payload_factory,
                              rng=rng or Rng(1))
        client._open(rate_mpps, poisson)
        return client

    def scripted(self, timeout_us: float = 2_000.0, connections: int = 0,
                 service: Optional[str] = None) -> Client:
        """A client a driver feeds through :meth:`Client.request`; its
        requests retry after ``timeout_us`` and, with ``connections``,
        carry the steering stamp."""
        return self._client(service=service, timeout_us=timeout_us,
                            connections=connections)


class BuiltApp:
    """One placed application: its replica groups and wired node objects."""

    def __init__(self, spec: AppSpec, groups: List[List[str]]):
        self.spec = spec
        self.kind = spec.kind
        self.groups = groups
        self.leaders: List[str] = []
        self.nodes: Dict[str, object] = {}   # server name -> app node


@dataclass
class Scenario:
    """A built simulation: everything ``build(spec)`` assembled."""

    spec: ScenarioSpec
    sim: Simulator
    network: Fabric
    servers: Dict[str, Server] = field(default_factory=dict)
    clients: Dict[str, ClientPort] = field(default_factory=dict)
    apps: List[BuiltApp] = field(default_factory=list)
    #: every fleet's clients, one per fleet (per shard leader for a
    #: ``shard:`` fleet), in construction order
    generators: List[Client] = field(default_factory=list)
    #: the spec's fleet index behind each client, in construction
    #: order (``_collect`` merges rack shards by it)
    gen_fleets: List[int] = field(default_factory=list)
    fault_plane: Optional[FaultPlane] = None
    trace_plane: Optional[object] = None
    recovery: Optional[RecoveryPolicy] = None
    #: SteeringController when the spec declares steered services
    steering: Optional[object] = None
    #: Rebalancer driving cross-rack migration on rack outages
    rebalancer: Optional[object] = None
    #: PulsePlane when the spec declares continuous telemetry
    pulse_plane: Optional[object] = None

    def server(self, name: str) -> Server:
        return self.servers[name]

    def ipipe_runtimes(self) -> List[Tuple[str, IPipeRuntime]]:
        """``(name, runtime)`` of every server that runs iPipe (Floem
        included), in name order; the only other kind is DpdkRuntime."""
        return [(name, self.servers[name].runtime)
                for name in sorted(self.servers)
                if isinstance(self.servers[name].runtime, IPipeRuntime)]

    def app(self, kind: str) -> BuiltApp:
        for app in self.apps:
            if app.kind == kind:
                return app
        raise KeyError(f"no {kind!r} app in scenario {self.spec.name!r}")

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until if until is not None
                     else self.spec.duration_us)

    def stop(self) -> None:
        for client in self.generators:
            client.stop()
        for server in self.servers.values():
            server.runtime.stop()


# -- server bring-up ----------------------------------------------------------

def make_server(sim: Simulator, network: Fabric, name: str,
                nic_spec: NicSpec, system: str = "ipipe",
                config: Optional[SchedulerConfig] = None,
                host_workers: Optional[int] = None,
                host_cores: Optional[int] = None,
                reliable: bool = False,
                fault_plane=None,
                recovery=None) -> Server:
    """Assemble one server of any supported runtime system."""
    if host_workers is None:
        host_workers = host_for(nic_spec).cores
    machine = HostMachine(sim, host_for(nic_spec), name=name,
                          cores=host_cores or host_for(nic_spec).cores)
    nic = None if system == "dpdk" else SmartNic(sim, nic_spec,
                                                 name=f"{name}.nic")
    if system in ("ipipe", "ipipe-hostonly"):
        host_only = system == "ipipe-hostonly"
        if host_only and config is None:
            config = SchedulerConfig(migration_enabled=False)
        runtime = IPipeRuntime(sim, nic, machine, network, name,
                               config=config, host_workers=host_workers,
                               host_only=host_only, reliable=reliable,
                               fault_plane=fault_plane, recovery=recovery)
    elif system == "floem":
        runtime = FloemRuntime(sim, nic, machine, network, name,
                               host_workers=host_workers)
    elif system == "dpdk":
        runtime = DpdkRuntime(sim, machine, network, name,
                              workers=host_workers,
                              link_bandwidth_gbps=nic_spec.bandwidth_gbps)
    else:
        raise ValueError(f"unknown system {system!r}")
    return Server(name=name, nic=nic, machine=machine, runtime=runtime)


def make_fabric(sim: Simulator, fabric: FabricSpec, racks=()) -> Fabric:
    """A fabric from its spec, with rack placements pre-registered."""
    network = Fabric(
        sim, bandwidth_gbps=fabric.bandwidth_gbps,
        propagation_us=fabric.propagation_us,
        racks=[r.name for r in racks],
        tor_latency_us=fabric.tor_latency_us,
        spine_latency_us=fabric.spine_latency_us,
        uplink_gbps=fabric.uplink_gbps,
        inter_rack_propagation_us=fabric.inter_rack_propagation_us)
    for rack in racks:
        for server in rack.servers:
            network.place(server.name, rack.name)
        for client in rack.clients:
            network.place(client.name, rack.name)
    return network


# -- application placement ----------------------------------------------------

def _rkv_node(runtime, name, group, leader, options):
    from ..apps.rkv import RkvNode
    kwargs = ({} if options.memtable_limit is None
              else {"memtable_limit": options.memtable_limit})
    node = RkvNode(runtime, [p for p in group if p != name],
                   initial_leader=leader, **kwargs)
    if options.prefill_keys:
        node.prefill(options.prefill_keys, options.prefill_value_bytes)
    return node


def _dt_node(runtime, name, group, leader, options):
    from ..apps.dt import DtCoordinatorNode, DtParticipantNode
    if name != leader:
        return DtParticipantNode(runtime)
    kwargs = ({} if options.log_segment_bytes is None
              else {"log_segment_bytes": options.log_segment_bytes})
    return DtCoordinatorNode(
        runtime, participant_nodes=[p for p in group if p != leader],
        **kwargs)


def _rta_node(runtime, name, group, leader, options):
    from ..apps.rta import RtaWorkerNode
    aggregate = options.aggregate
    if aggregate is None and len(group) > 1:
        aggregate = leader
    return RtaWorkerNode(runtime, aggregate_node=aggregate)


@lru_cache(maxsize=1)
def _ruleset(options: FirewallOptions):
    """One app's ruleset, generated once for all of its nodes (a tuple
    of frozen rules, so sharing it is safe)."""
    from ..apps.nf import generate_ruleset
    return tuple(generate_ruleset(options.rule_count,
                                  rng=Rng(options.rule_seed)))


def _firewall_node(runtime, name, group, leader, options):
    from ..apps.nf import FirewallNode
    node = FirewallNode(runtime, rules=_ruleset(options))
    runtime.dispatch_table["data"] = "firewall"
    return node


def _ipsec_node(runtime, name, group, leader, options):
    from ..apps.nf import IpsecNode
    node = IpsecNode(runtime)
    runtime.dispatch_table["data"] = "ipsec"
    return node


#: app kind (the keys of ``spec.APP_OPTIONS``) -> ``(runtime, name,
#: group, leader, options) -> node``, called once per placed server;
#: None places nothing
APP_NODES: Dict[str, Optional[Callable]] = {
    "rkv": _rkv_node, "dt": _dt_node, "rta": _rta_node,
    "firewall": _firewall_node, "ipsec": _ipsec_node, "none": None,
}


def _build_app(scenario: Scenario, app: AppSpec) -> BuiltApp:
    """Place one app.  Replica groups (and leaders) are always computed
    from the *spec's* full server list, but nodes are only instantiated
    for servers present in ``scenario.servers`` — a rack-sharded build
    passes a partial server set and peers address remote group members
    by name over the fabric, exactly as the serial build does."""
    all_servers = scenario.spec.server_names()
    built = BuiltApp(app, app.replica_groups(all_servers))
    make = APP_NODES[app.kind]
    if make is None:
        return built
    built.leaders = app.leaders(all_servers)
    for group, leader in zip(built.groups, built.leaders):
        for name in group:
            server = scenario.servers.get(name)
            if server is not None:
                built.nodes[name] = make(server.runtime, name, group,
                                         leader, app.options)
    return built


def _actor_names(scenario: Scenario) -> set:
    """Every registered ``(server, actor)`` name (tenant diffing)."""
    return {(name, actor.name) for name, server in scenario.servers.items()
            for actor in server.runtime.actors}


def _assign_tenant(scenario: Scenario, tenant: str, before: set) -> None:
    """Stamp the actors one app build just registered with its tenant.

    Registration ran before the app's tenant was known, so the DMO
    region tag is applied retroactively (moving any init-time
    allocations into the tenant's usage ledger)."""
    for name, server in scenario.servers.items():
        for actor in server.runtime.actors:
            if (name, actor.name) not in before:
                actor.tenant = tenant
                server.runtime.dmo.set_tenant(actor.name, tenant)


def _apply_tenancy(scenario: Scenario) -> None:
    """Push the spec's tenant budgets into every iPipe runtime
    (docs/TENANCY.md).

    Shares/budgets that are 0 stay unconfigured — a spec declaring
    tenants purely for accounting adds no events and keeps the schedule
    bit-identical to the untenanted build."""
    spec = scenario.spec
    nic_shares = {t.name: t.nic_core_share
                  for t in spec.tenants if t.nic_core_share > 0.0}
    accel_shares = {t.name: t.accelerator_share
                    for t in spec.tenants if t.accelerator_share > 0.0}
    budgets = {t.name: t.dmo_budget_bytes
               for t in spec.tenants if t.dmo_budget_bytes > 0}
    for _, runtime in scenario.ipipe_runtimes():
        runtime.set_tenancy(nic_shares=nic_shares or None,
                            accel_shares=accel_shares or None,
                            dmo_budgets=budgets or None)


# -- client fleets ------------------------------------------------------------

#: fleet workload kind -> (generator class, its seed for shard 0)
_WORKLOADS = {"kv": (KvWorkload, 11), "txn": (TxnWorkload, 13),
              "twitter": (TwitterWorkload, 17)}


def _make_workload(fleet: FleetSpec, shard: Optional[int] = None):
    """The fleet's request factory; sharded fleets get disjoint
    per-shard keyspaces so shard affinity holds by construction."""
    if fleet.workload == "none":
        return None
    cls, seed = _WORKLOADS[fleet.workload]
    wl = cls(packet_size=fleet.size, seed=seed + 97 * (shard or 0))
    if shard is None or fleet.workload != "kv":
        return wl.next_request

    def sharded(i, wl=wl, prefix=f"g{shard}:"):
        req = wl.next_request(i)
        req["key"] = prefix + req["key"]
        return req
    return sharded


def _build_fleet(scenario: Scenario, fleet: FleetSpec,
                 fleet_idx: int) -> None:
    port = scenario.clients[fleet.client]
    if fleet.dst.startswith("shard:"):
        app = scenario.app(fleet.dst.split(":", 1)[1])
        targets = [(idx, leader) for idx, leader in enumerate(app.leaders)]
    else:
        targets = [(None, fleet.dst)]
    for shard, dst in targets:
        factory = _make_workload(fleet, shard)
        seed = fleet.seed if shard is None else fleet.seed + 1000 * shard
        if fleet.mode == "closed":
            client = port.closed_loop(
                dst=dst, clients=fleet.clients, size=fleet.size,
                payload_factory=factory, rng=Rng(seed),
                think_time_us=fleet.think_time_us,
                service=fleet.service())
        else:
            client = port.open_loop(
                dst=dst, rate_mpps=fleet.rate_mpps / len(targets),
                size=fleet.size, payload_factory=factory,
                rng=Rng(seed), poisson=fleet.poisson)
        scenario.generators.append(client)
        scenario.gen_fleets.append(fleet_idx)


# -- the entry point ----------------------------------------------------------

def build(spec: ScenarioSpec, sim: Optional[Simulator] = None,
          network: Optional[Fabric] = None) -> Scenario:
    """Assemble the whole simulation a spec describes.

    Construction order is part of the contract (it fixes the event
    schedule): simulator → fabric → trace plane → fault plane → servers
    in rack order → apps in spec order → client ports → fleets → fault
    wiring.  Pass ``sim`` to build inside an existing simulator (e.g.
    one instrumented by a SanitizerSession).  Last, a checker with a
    ``watch_scenario`` method (a CheckPlane) registers the monitors the
    built planes call for; a checker with only the engine hooks is left
    as it is.

    Pass ``network`` (a fabric with its nodes placed) to build only the
    racks it holds, inside its simulator: the rack-sharded executor
    builds each rack this way.  Apps still compute their replica groups
    from the whole spec, so local nodes address remote peers by name.
    """
    spec.validate()
    if network is None:
        sim = sim or Simulator()
        network = make_fabric(sim, spec.fabric, spec.racks)
    else:
        sim = network.sim
    racks = [rack for rack in spec.racks if rack.name in network.switches]
    scenario = Scenario(spec=spec, sim=sim, network=network)

    if spec.observability.trace:
        from ..obs import TracePlane
        scenario.trace_plane = TracePlane(sim)

    if spec.faults:
        streams = spec.execution.resolved_fault_streams()
        plane = FaultPlane(sim, seed=spec.seed,
                           component_streams=streams == "per-component")
        for fault in spec.faults:
            plane.add(fault)
        scenario.fault_plane = plane

    delay = spec.observability.recovery_restart_delay_us
    if delay is not None:
        scenario.recovery = RecoveryPolicy(restart_delay_us=delay)

    for rack in racks:
        for sspec in rack.servers:
            scenario.servers[sspec.name] = make_server(
                sim, network, sspec.name, resolve_nic(sspec.nic),
                system=sspec.system, config=sspec.scheduler_config(),
                host_workers=sspec.host_workers,
                host_cores=sspec.host_cores, reliable=sspec.reliable,
                fault_plane=scenario.fault_plane,
                recovery=scenario.recovery)

    for app in spec.apps:
        before = _actor_names(scenario) if spec.tenants else set()
        scenario.apps.append(_build_app(scenario, app))
        if spec.tenants and app.tenant:
            _assign_tenant(scenario, app.tenant, before)

    if spec.tenants:
        _apply_tenancy(scenario)

    if spec.steering:
        _build_steering(scenario)

    for rack in racks:
        for cspec in rack.clients:
            port = ClientPort(sim, network, cspec.name)
            network.attach(cspec.name, port.receive, rack=rack.name)
            scenario.clients[cspec.name] = port

    for fleet_idx, fleet in enumerate(spec.fleets):
        if fleet.client in scenario.clients:
            _build_fleet(scenario, fleet, fleet_idx)

    if scenario.fault_plane is not None:
        scenario.fault_plane.wire_network(network)

    if spec.rebalance is not None and spec.steering:
        _build_rebalancer(scenario)

    if spec.observability.pulse is not None:
        _build_pulse(scenario)

    watch = getattr(sim.checker, "watch_scenario", None)
    if watch is not None:
        watch(scenario)
    return scenario


def _build_steering(scenario: Scenario) -> None:
    """Install the SteeringController on every fabric switch and hook
    the iPipe runtimes' delivery notes."""
    from ..net.steering import SteeringController
    spec = scenario.spec
    controller = SteeringController(scenario.sim)
    scenario.steering = controller
    for st in spec.steering:
        backends = list(st.backends)
        if not backends:
            backends = list(scenario.app(st.app).leaders)
        controller.add_service(st.service, backends,
                               table_size=st.table_size,
                               window_us=st.window_us)
    for tor in scenario.network.switches.values():
        controller.install(tor)
    spine = scenario.network.spine
    if spine is not None:
        controller.install(spine)
    for name, runtime in scenario.ipipe_runtimes():
        runtime.steer_note = (
            lambda pkt, _c=controller, _n=name: _c.note_delivery(_n, pkt))


def _build_rebalancer(scenario: Scenario) -> None:
    """Arm the rack-evacuation policy over the steered rkv backends."""
    from ..core.migration import CrossRackMigrator
    from ..net.steering import MovableBackend, Rebalancer
    spec = scenario.spec
    service_name = spec.rebalance.service or spec.steering[0].service
    st = next(s for s in spec.steering if s.service == service_name)
    app = scenario.app(st.app)
    backends: Dict[str, MovableBackend] = {}
    for leader in app.leaders:
        node = app.nodes[leader]
        backends[leader] = MovableBackend(
            actors=("consensus", "memtable", "sst_read", "compaction"),
            detach=node.detach, attach=node.attach)
    migrator = CrossRackMigrator(scenario.sim, steering=scenario.steering)
    scenario.rebalancer = Rebalancer(
        scenario.sim, controller=scenario.steering, migrator=migrator,
        policy=spec.rebalance, service=st.service, backends=backends,
        runtimes=dict(scenario.ipipe_runtimes()),
        rack_of=scenario.network.rack_of, window_us=st.window_us,
        fault_plane=scenario.fault_plane)


def _build_pulse(scenario: Scenario) -> None:
    """Install the PulsePlane: fleet probes, SLO evaluators, and — when
    the rebalance policy asks for it — the LoadFeed that turns sustained
    utilization skew into migrations.  Built last: probes read servers,
    steering and the rebalancer, and PulsePlane construction schedules
    nothing, so the event schedule is untouched."""
    from ..obs.pulse import LoadFeed, PulsePlane
    spec = scenario.spec
    ps = spec.observability.pulse
    pulse = PulsePlane(scenario.sim, period_us=ps.period_us,
                       retention=ps.retention)
    scenario.pulse_plane = pulse
    if ps.watch_servers:
        for name, runtime in scenario.ipipe_runtimes():
            pulse.watch_server(name, runtime)
    if ps.watch_steering and scenario.steering is not None:
        pulse.watch_steering(scenario.steering)
    for slo in spec.observability.slos:
        pulse.watch_service(slo.service, pct=slo.pct,
                            window_us=slo.window_us)
        _add_slo_evaluator(scenario, pulse, slo, slo.slo_name())
    if spec.tenants:
        _build_tenant_pulse(scenario, pulse)
    if scenario.rebalancer is not None and scenario.rebalancer.policy.on_load:
        LoadFeed(pulse, scenario.rebalancer)


def _build_tenant_pulse(scenario: Scenario, pulse) -> None:
    """Per-tenant telemetry (docs/TENANCY.md): ``tenant.util.<t>`` off
    the schedulers' busy ledgers, ``tenant.steer.<t>`` over the tenant's
    SLO services, ``tenant.svc.<t>.*`` quantiles, and one tenant-named
    SLO evaluator per :attr:`TenantSpec.slos` entry."""
    spec = scenario.spec
    schedulers = [runtime.nic_scheduler
                  for _, runtime in scenario.ipipe_runtimes()]
    watched = {(slo.service, slo.pct) for slo in spec.observability.slos}
    for tenant in spec.tenants:
        slos = [SLOSpec.from_text(raw) for raw in tenant.slos]
        services = tuple(sorted({slo.service for slo in slos}))
        # the SLO's window sizes the service histogram, so the fleet
        # view declares it before the tenant view shares it
        for slo in slos:
            if (slo.service, slo.pct) not in watched:
                watched.add((slo.service, slo.pct))
                pulse.watch_service(slo.service, pct=slo.pct,
                                    window_us=slo.window_us)
        pulse.watch_tenant(tenant.name, schedulers=schedulers,
                           services=services,
                           controller=scenario.steering)
        for slo in slos:
            _add_slo_evaluator(scenario, pulse, slo,
                               f"{tenant.name}.{slo.slo_name()}")


def _add_slo_evaluator(scenario: Scenario, pulse, slo: SLOSpec,
                       name: str) -> None:
    """Evaluate ``slo`` every pulse under ``name`` (one SloEvaluator per
    observability SLO and per tenant SLO)."""
    from ..obs.slo import SloEvaluator
    pulse.add_evaluator(SloEvaluator(
        pulse, name=name, service=slo.service,
        threshold_us=slo.threshold_us, pct=slo.pct,
        window_us=slo.window_us, slow_windows=slo.slow_windows,
        budget=slo.budget, burn_threshold=slo.burn_threshold))
