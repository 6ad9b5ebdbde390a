"""Declarative scenario specs: racks, servers, fabric, apps, workloads.

A :class:`ScenarioSpec` is a plain dataclass tree describing one whole
simulated deployment — the multi-rack fabric, per-server NIC models and
host resources, application placement (sharded/replicated across racks),
client fleets, fault schedules, and observability — with nothing
imperative in it.  Specs can be written in Python, loaded from JSON (or
TOML where the interpreter ships ``tomllib``), canonicalised for the
sweep result cache, and handed to :func:`repro.scenario.build` to
assemble the simulation.

The design goal (ROADMAP: "as many scenarios as you can imagine") is
that a new deployment — say, three racks of sharded RKV with cross-rack
Paxos and an open-loop fleet standing in for a million client
connections — is ~30 lines of data, not a new experiment module.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..nic import (
    BLUEFIELD_1M332A,
    LIQUIDIO_CN2350,
    LIQUIDIO_CN2360,
    NicSpec,
    STINGRAY_PS225,
)
from ..core.scheduler import SchedulerConfig
from ..net.packet import MIN_FRAME
from ..net.steering import RebalanceSpec
from ..sim.faults import FaultSpec

SPEC_VERSION = 1

#: Every simulated NIC model, addressable by model string or short alias.
NIC_CATALOG: Dict[str, NicSpec] = {}
for _spec in (LIQUIDIO_CN2350, LIQUIDIO_CN2360, BLUEFIELD_1M332A,
              STINGRAY_PS225):
    NIC_CATALOG[_spec.model] = _spec
NIC_CATALOG.update({
    "cn2350": LIQUIDIO_CN2350,
    "cn2360": LIQUIDIO_CN2360,
    "bluefield": BLUEFIELD_1M332A,
    "stingray": STINGRAY_PS225,
})

SYSTEMS = ("ipipe", "ipipe-hostonly", "dpdk", "floem")
#: fleet workload -> the app kind its requests feed; every server a
#: fleet reaches must host that app ("none" sends no requests)
WORKLOAD_APPS = {"kv": "rkv", "txn": "dt", "twitter": "rta"}
WORKLOAD_KINDS = tuple(WORKLOAD_APPS) + ("none",)
FLEET_MODES = ("closed", "open")


class ScenarioError(ValueError):
    """A spec failed validation; ``problems`` lists every finding."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _check_ranges(spec, positive=(), fractions=(), **bounds) -> None:
    """``__post_init__`` checks of single fields (None always passes):
    each field in ``positive`` must be > 0, each in ``fractions`` in
    [0, 1], and each in ``bounds`` one of its choices when the bound is
    a tuple, else >= it.  The first failure raises ScenarioError."""
    def fail(problem):
        raise ScenarioError([problem])

    for name in positive:
        value = getattr(spec, name)
        if value is not None and value <= 0:
            fail(f"{name} must be positive (got {value})")
    for name in fractions:
        value = getattr(spec, name)
        if value is not None and not 0.0 <= value <= 1.0:
            fail(f"{name} must be in [0, 1] (got {value})")
    for name, bound in bounds.items():
        value = getattr(spec, name)
        if value is None:
            continue
        if isinstance(bound, tuple):
            if value not in bound:
                fail(f"unknown {name} {value!r} (have {bound})")
        elif value < bound:
            fail(f"{name} must be >= {bound} (got {value})")


def resolve_nic(ref) -> NicSpec:
    """A NicSpec from a catalog name, alias, or an actual NicSpec."""
    if isinstance(ref, NicSpec):
        return ref
    try:
        return NIC_CATALOG[ref]
    except KeyError:
        raise ScenarioError(
            [f"unknown NIC {ref!r} (have {sorted(NIC_CATALOG)})"]) from None


# -- the spec tree ------------------------------------------------------------

@dataclass(frozen=True)
class ServerSpec:
    """One server box: NIC model, runtime system, host resources."""

    name: str
    nic: Union[str, NicSpec] = LIQUIDIO_CN2350.model   # catalog name/alias
    system: str = "ipipe"          # ipipe | ipipe-hostonly | dpdk | floem
    host_workers: Optional[int] = None
    host_cores: Optional[int] = None
    reliable: bool = False
    #: SchedulerConfig field overrides (e.g. {"migration_enabled": False})
    scheduler: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        _check_ranges(self, host_workers=0, host_cores=1, system=SYSTEMS)
        resolve_nic(self.nic)
        self.scheduler_config()

    def scheduler_config(self) -> Optional[SchedulerConfig]:
        """The overrides read by type into a fresh SchedulerConfig (the
        watchdog appends to its kill list), or None when there are none."""
        return (decode(SchedulerConfig, dict(self.scheduler),
                       path="scheduler") if self.scheduler else None)


@dataclass(frozen=True)
class ClientSpec:
    """A client box with a dumb NIC running workload generators."""

    name: str


@dataclass(frozen=True)
class RackSpec:
    """One rack: a ToR subnet of servers and client boxes."""

    name: str
    servers: Tuple[ServerSpec, ...] = ()
    clients: Tuple[ClientSpec, ...] = ()


@dataclass(frozen=True)
class FabricSpec:
    """The wiring: port speeds, switch latencies, inter-rack runs."""

    bandwidth_gbps: float = 10.0
    propagation_us: float = 0.3
    tor_latency_us: float = 0.45
    spine_latency_us: float = 0.60
    uplink_gbps: Optional[float] = None
    inter_rack_propagation_us: float = 1.2

    def __post_init__(self) -> None:
        _check_ranges(self, ("bandwidth_gbps", "uplink_gbps"),
                      propagation_us=0, tor_latency_us=0, spine_latency_us=0,
                      inter_rack_propagation_us=0)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: fair-share budgets for the NIC resources its apps use.

    A spec with no ``tenants`` runs exactly as before — one implicit
    tenant owns the whole NIC and no tenant machinery activates (the
    event schedule is bit-identical to the pre-tenancy code).  Declaring
    tenants turns on hierarchical DRR (per-tenant quantum pools scaled
    by ``nic_core_share``, then per-actor deficit within the pool),
    per-tenant accelerator admission, per-tenant DMO byte budgets, and
    the TenantMonitor invariants (docs/TENANCY.md).
    """

    name: str
    nic_core_share: float = 0.0        # fraction of the DRR quantum pool
    accelerator_share: float = 0.0     # fraction of accelerator time
    dmo_budget_bytes: int = 0          # total DMO region bytes (0 = unlimited)
    slos: Tuple[str, ...] = ()         # compact SLO grammar strings

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError(["name must not be empty"])
        # a share of 0 means "declared but unshared": ledgers and
        # monitors run, the scheduler serves the tenant flat
        _check_ranges(self, fractions=("nic_core_share",
                                       "accelerator_share"),
                      dmo_budget_bytes=0)


# -- app options: one class per app kind -------------------------------------

@dataclass(frozen=True)
class RkvOptions:
    """rkv: memtable flush size and warm-start prefill."""

    memtable_limit: Optional[int] = None   # bytes (default: RkvNode's)
    prefill_keys: int = 0                  # hot keys loaded before traffic
    prefill_value_bytes: int = 64

    def __post_init__(self) -> None:
        _check_ranges(self, ("memtable_limit",), prefill_keys=0,
                      prefill_value_bytes=0)


@dataclass(frozen=True)
class DtOptions:
    """dt: the coordinator's log segment size."""

    log_segment_bytes: Optional[int] = None  # default: DtCoordinatorNode's

    def __post_init__(self) -> None:
        _check_ranges(self, ("log_segment_bytes",))


@dataclass(frozen=True)
class RtaOptions:
    """rta: the server running the aggregated ranker."""

    aggregate: Optional[str] = None        # default: the group's leader


@dataclass(frozen=True)
class FirewallOptions:
    """firewall: the synthetic wildcard ruleset (§5.7)."""

    rule_count: int = 8192
    rule_seed: int = 31

    def __post_init__(self) -> None:
        _check_ranges(self, rule_count=0)


@dataclass(frozen=True)
class NoOptions:
    """ipsec and none take no options."""


#: app kind -> its options class (the keys are the app kinds)
APP_OPTIONS: Dict[str, type] = {
    "rkv": RkvOptions, "dt": DtOptions, "rta": RtaOptions,
    "firewall": FirewallOptions, "ipsec": NoOptions, "none": NoOptions}
APP_KINDS = tuple(APP_OPTIONS)
#: app kinds that take every raw ``"data"`` frame a server receives; a
#: frame of workload ``none`` has no payload, and neither can read it
DATA_APPS = ("firewall", "ipsec")
AppOptions = Union[RkvOptions, DtOptions, RtaOptions, FirewallOptions,
                   NoOptions]


@dataclass(frozen=True)
class AppSpec:
    """Application placement over the fabric's servers.

    ``servers`` lists runtime names in placement order; with
    ``shards > 1`` the list is dealt round-robin into ``shards`` replica
    groups (so listing servers rack-by-rack interleaves every shard
    across racks — cross-rack replication by construction).  Each
    group's leader is ``leader`` when the group holds it, else the
    group's first server: the initial Paxos leader of an RKV replica
    group, the ``dt`` coordinator, the default ``rta`` aggregator.

    ``options`` is the kind's options class (:data:`APP_OPTIONS`); left
    out, every option takes its default.

    ``tenant`` names the owning :class:`TenantSpec`; every actor the app
    registers inherits it.  Empty means the implicit single tenant.
    """

    kind: str                          # rkv | dt | rta | firewall | ipsec | none
    servers: Tuple[str, ...] = ()      # default: every server in the spec
    shards: int = 1
    leader: Optional[str] = None       # preferred leader of each group
    options: Optional[AppOptions] = None
    tenant: str = ""                   # owning tenant ("" = implicit)

    #: codec hook: ``options`` is read as the class ``APP_OPTIONS[kind]``
    KEYED_FIELDS = {"options": ("kind", APP_OPTIONS)}

    def __post_init__(self) -> None:
        _check_ranges(self, kind=APP_KINDS, shards=1)
        if self.options is None:
            object.__setattr__(self, "options", APP_OPTIONS[self.kind]())

    def replica_groups(self, all_servers: Sequence[str]
                       ) -> List[List[str]]:
        """Deal the placement into per-shard replica groups."""
        servers = list(self.servers) or list(all_servers)
        if self.shards <= 1:
            return [servers]
        return [servers[i::self.shards] for i in range(self.shards)]

    def leaders(self, all_servers: Sequence[str]) -> List[str]:
        """Each replica group's leader, in group order."""
        return [self.leader if self.leader in group else group[0]
                for group in self.replica_groups(all_servers)]


@dataclass(frozen=True)
class FleetSpec:
    """One client fleet: who sends what, to whom, and how hard.

    ``dst`` is a server name, ``"shard:<app-kind>"`` to split the
    fleet across every shard leader of that app (keys route by hash),
    or ``"svc:<service>"`` to address a steered service.  Every server
    the fleet reaches must host the app its workload feeds
    (:data:`WORKLOAD_APPS`).
    """

    client: str
    dst: str
    mode: str = "closed"               # closed | open
    clients: int = 16                  # closed-loop concurrency per shard
    rate_mpps: float = 0.0             # open-loop aggregate rate
    size: int = 512
    workload: str = "kv"               # kv | txn | twitter | none
    seed: int = 5
    think_time_us: float = 0.0
    poisson: bool = True
    tenant: str = ""                   # owning tenant ("" = implicit)

    def __post_init__(self) -> None:
        # size is a frame size: a smaller one would run as MIN_FRAME
        _check_ranges(self, size=MIN_FRAME, think_time_us=0,
                      mode=FLEET_MODES, workload=WORKLOAD_KINDS)
        if self.mode == "open" and self.rate_mpps <= 0:
            raise ScenarioError(["open-loop needs rate_mpps > 0"])
        if self.mode == "closed" and self.clients < 1:
            raise ScenarioError(["closed-loop needs clients >= 1"])

    def service(self) -> Optional[str]:
        """The SLO service its replies measure: the steered service it
        targets, otherwise the app its workload feeds (``none`` feeds
        none)."""
        if self.dst.startswith("svc:"):
            return self.dst.split(":", 1)[1]
        return WORKLOAD_APPS.get(self.workload)


@dataclass(frozen=True)
class SteeringSpec:
    """One steered service: a VIP consistently hashed over backends.

    Clients address ``svc:<service>``; the fabric switches resolve the
    VIP through an epoch-versioned Maglev table with per-connection
    affinity (see :mod:`repro.net.steering`).  ``backends`` defaults to
    the shard leaders of ``app``.
    """

    service: str
    app: Optional[str] = None          # app kind whose leaders back the VIP
    backends: Tuple[str, ...] = ()     # explicit backend servers
    table_size: int = 251
    window_us: float = 2_000.0         # forwarding window after a repoint

    def __post_init__(self) -> None:
        if not self.service:
            raise ScenarioError(["service must not be empty"])
        _check_ranges(self, table_size=2, window_us=0)


@dataclass(frozen=True)
class PulseSpec:
    """PulsePlane sampling: cadence, retention, default gauge sets."""

    period_us: float = 500.0           # sample lattice spacing
    retention: int = 4096              # ring-buffer points per series
    watch_servers: bool = True         # nic.util.* + nic.queue.* gauges
    watch_steering: bool = True        # steer.rate (when steering declared)

    def __post_init__(self) -> None:
        _check_ranges(self, ("period_us",), retention=1)


@dataclass(frozen=True)
class SLOSpec:
    """One latency SLO: ``<service> p<pct> < <threshold_us> over
    <window_us>``, evaluated per pulse with multi-window burn rates.

    ``service`` names the steered service (or app kind) whose
    ``svc.<service>.latency_us`` histogram the PulsePlane keeps and the
    clients feed.  In JSON/TOML an entry may also be the compact grammar
    string — ``"rkv p99 < 40us over 2ms"`` — parsed by
    :func:`repro.obs.slo.parse_slo`.
    """

    service: str
    threshold_us: float = 0.0          # objective bound (must be > 0)
    pct: float = 99.0                  # watched quantile
    window_us: float = 2_000.0         # fast evaluation window
    slow_windows: int = 4              # slow window, in fast windows
    budget: float = 0.1                # allowed over-threshold fraction
    burn_threshold: float = 1.0        # breach when both burns reach this
    name: str = ""                     # default: "<service>-p<pct>"

    def slo_name(self) -> str:
        return self.name or f"{self.service}-p{self.pct:g}"

    def problems(self, services, pulse: Optional[PulseSpec]) -> List[str]:
        """Everything wrong with this SLO, given the declared services
        (steering services and app kinds) and the pulse sampling."""
        label = f"slo {self.slo_name()}"
        out = []
        if self.service not in services:
            out.append(f"{label}: service {self.service!r} names no "
                       f"declared steering service or app")
        if self.threshold_us <= 0:
            out.append(f"{label}: threshold_us must be positive "
                       f"(got {self.threshold_us})")
        if self.window_us <= 0:
            out.append(f"{label}: window_us must be positive "
                       f"(got {self.window_us})")
        elif pulse is not None and pulse.period_us > 0 \
                and self.window_us < pulse.period_us:
            out.append(f"{label}: window_us {self.window_us} is shorter "
                       f"than the pulse period {pulse.period_us} "
                       f"(no sample fits)")
        if not 0.0 < self.pct <= 100.0:
            out.append(f"{label}: pct must be in (0, 100] (got {self.pct})")
        if not 0.0 < self.budget <= 1.0:
            out.append(f"{label}: budget must be in (0, 1] "
                       f"(got {self.budget})")
        if self.slow_windows < 1:
            out.append(f"{label}: slow_windows must be >= 1 "
                       f"(got {self.slow_windows})")
        if self.burn_threshold <= 0:
            out.append(f"{label}: burn_threshold must be positive "
                       f"(got {self.burn_threshold})")
        return out

    @classmethod
    def from_text(cls, text: str) -> "SLOSpec":
        from ..obs.slo import parse_slo
        try:
            return cls(**parse_slo(text))
        except ValueError as exc:
            raise ScenarioError([str(exc)]) from None


@dataclass(frozen=True)
class ObsSpec:
    """Observability riders: TracePlane, recovery policy, PulsePlane."""

    trace: bool = False
    recovery_restart_delay_us: Optional[float] = None
    pulse: Optional[PulseSpec] = None
    slos: Tuple[SLOSpec, ...] = ()


EXEC_SHARDS = ("none", "by-rack")
FAULT_STREAM_MODES = ("auto", "shared", "per-component")


@dataclass(frozen=True)
class ExecSpec:
    """How to execute the built scenario.

    Every spec runs on one :class:`~repro.sim.engine.Simulator`
    (docs/PERFORMANCE.md).  ``shards="by-rack"`` only makes
    ``fault_streams="auto"`` per-component, so a by-rack spec keeps the
    fingerprint the removed rack-sharded executor gave it.  ``shards``
    and ``processes`` (which must be 0) stay because
    ``hostbench/workloads.py`` sets both for its sharded workload.

    ``fault_streams`` picks how stochastic fault draws are keyed:
    ``"shared"`` is the classic one-stream-per-spec mode (pinned by
    golden schedules), ``"per-component"`` keys each draw by its
    component, ``"auto"`` resolves to per-component exactly for
    ``shards="by-rack"``, which may not ask for shared streams.
    """

    shards: str = "none"               # none | by-rack
    processes: int = 0                 # must be 0 (see above)
    fault_streams: str = "auto"        # auto | shared | per-component

    def __post_init__(self) -> None:
        _check_ranges(self, shards=EXEC_SHARDS,
                      fault_streams=FAULT_STREAM_MODES)
        if self.processes != 0:
            raise ScenarioError(["process-backed shards were removed; "
                                 "processes must be 0"])
        if self.shards == "by-rack" and self.fault_streams == "shared":
            raise ScenarioError(["execution: by-rack selects "
                                 "per-component fault streams; it cannot "
                                 "take fault_streams 'shared'"])

    def resolved_fault_streams(self) -> str:
        if self.fault_streams != "auto":
            return self.fault_streams
        return "per-component" if self.shards != "none" else "shared"


@dataclass(frozen=True)
class ScenarioSpec:
    """The whole deployment, as data."""

    name: str
    racks: Tuple[RackSpec, ...]
    fabric: FabricSpec = FabricSpec()
    apps: Tuple[AppSpec, ...] = ()
    fleets: Tuple[FleetSpec, ...] = ()
    tenants: Tuple[TenantSpec, ...] = ()
    faults: Tuple[FaultSpec, ...] = ()
    steering: Tuple[SteeringSpec, ...] = ()
    rebalance: Optional[RebalanceSpec] = None
    observability: ObsSpec = ObsSpec()
    execution: ExecSpec = ExecSpec()
    seed: int = 42
    duration_us: float = 20_000.0
    description: str = ""
    version: int = SPEC_VERSION

    def __post_init__(self) -> None:
        if not self.racks:
            raise ScenarioError(["no racks"])
        _check_ranges(self, ("duration_us",))

    # -- introspection --------------------------------------------------------
    def server_specs(self) -> List[ServerSpec]:
        return [s for rack in self.racks for s in rack.servers]

    def server_names(self) -> List[str]:
        return [s.name for s in self.server_specs()]

    def client_names(self) -> List[str]:
        return [c.name for rack in self.racks for c in rack.clients]

    def _leaders(self, kind: str) -> List[str]:
        """The group leaders of the first ``kind`` app, the servers
        ``shard:<kind>`` and an app-backed service address."""
        app = next(a for a in self.apps if a.kind == kind)
        return app.leaders(self.server_names())

    def tenant_names(self) -> List[str]:
        return [t.name for t in self.tenants]

    def tenant_of(self, name: str) -> Optional[TenantSpec]:
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        return None

    # -- validation -----------------------------------------------------------
    def validate(self) -> "ScenarioSpec":
        """Raise :class:`ScenarioError` listing every problem that
        relates two fields or two specs.  A rule on one field lives in
        its class's ``__post_init__``, so no spec object breaks one."""
        problems: List[str] = []
        names = self.server_names() + self.client_names()
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            problems.append(f"duplicate node names: {sorted(dupes)}")
        rack_names = [r.name for r in self.racks]
        if len(set(rack_names)) != len(rack_names):
            problems.append(f"duplicate rack names: {rack_names}")
        systems = {s.name: s.system for s in self.server_specs()}
        server_names = self.server_names()
        known = set(systems)
        clients = set(self.client_names())
        app_kinds = {a.kind for a in self.apps}
        hosted = set()                 # (server, app kind) placements
        for app in self.apps:
            if type(app.options) is not APP_OPTIONS[app.kind]:
                problems.append(
                    f"app {app.kind}: options must be "
                    f"{APP_OPTIONS[app.kind].__name__}, not "
                    f"{type(app.options).__name__}")
            elif app.kind == "rta" and app.options.aggregate is not None \
                    and app.options.aggregate not in known:
                problems.append(f"app rta: unknown aggregate server "
                                f"{app.options.aggregate!r}")
            for server in app.servers:
                if server not in known:
                    problems.append(f"app {app.kind}: unknown server "
                                    f"{server!r}")
            placed = len(app.servers or known)
            if placed < app.shards:
                problems.append(
                    f"app {app.kind}: {app.shards} shards need at least "
                    f"that many servers (got {placed})")
            elif app.kind == "dt":
                lone = [group[0] for group in
                        app.replica_groups(server_names) if len(group) == 1]
                if lone:
                    problems.append(
                        f"app dt: the replica groups of {lone} have no "
                        f"participant (a dt group needs two servers)")
            for server in app.servers or server_names:
                if (server, app.kind) in hosted:
                    problems.append(f"app {app.kind}: server {server!r} "
                                    f"hosts two {app.kind} apps")
                rivals = [kind for kind in DATA_APPS if kind != app.kind
                          and (server, kind) in hosted]
                if app.kind in DATA_APPS and rivals:
                    problems.append(
                        f"app {app.kind}: server {server!r} also hosts "
                        f"a {rivals[0]} app, and only one app can take "
                        f"its 'data' frames")
                hosted.add((server, app.kind))
            if app.leader is not None and app.leader not in known:
                problems.append(f"app {app.kind}: unknown leader "
                                f"{app.leader!r}")
        steering_names = [st.service for st in self.steering]
        for fleet in self.fleets:
            if fleet.client not in clients:
                problems.append(f"fleet: unknown client {fleet.client!r}")
            reached: List[str] = []    # the servers its requests reach
            if fleet.dst.startswith("shard:"):
                kind = fleet.dst.split(":", 1)[1]
                if kind not in app_kinds:
                    problems.append(f"fleet {fleet.client}: dst "
                                    f"{fleet.dst!r} names no declared app")
                else:
                    reached = self._leaders(kind)
            elif fleet.dst.startswith("svc:"):
                service = fleet.dst.split(":", 1)[1]
                if service not in steering_names:
                    problems.append(
                        f"fleet {fleet.client}: dst {fleet.dst!r} names no "
                        f"declared steering service")
                else:
                    st = next(s for s in self.steering
                              if s.service == service)
                    reached = list(st.backends)
                    if not reached and st.app in app_kinds:
                        reached = self._leaders(st.app)
            elif fleet.dst not in known:
                problems.append(f"fleet {fleet.client}: unknown dst "
                                f"{fleet.dst!r}")
            else:
                reached = [fleet.dst]
            serves = WORKLOAD_APPS.get(fleet.workload)
            missing = [server for server in reached
                       if server in known and (server, serves) not in hosted]
            if serves is not None and missing:
                problems.append(
                    f"fleet {fleet.client}: workload {fleet.workload!r} "
                    f"feeds app {serves!r}, but {missing} host no "
                    f"{serves} app")
            if serves is None:
                driven = [server for server in reached if any(
                    (server, kind) in hosted for kind in DATA_APPS)]
                # a request app answers only its workload's requests,
                # and a payload-less frame matches no dispatch entry
                asked = [server for server in reached
                         if server not in driven and any(
                             (server, kind) in hosted
                             for kind in WORKLOAD_APPS.values())]
                if driven:
                    problems.append(
                        f"fleet {fleet.client}: workload 'none' sends "
                        f"frames with no payload, which the firewall or "
                        f"ipsec app on {driven} cannot read")
                if asked:
                    problems.append(
                        f"fleet {fleet.client}: workload 'none' sends "
                        f"frames with no request, which the rkv, dt or "
                        f"rta app on {asked} cannot answer")
        if len(set(steering_names)) != len(steering_names):
            problems.append(f"duplicate steering services: {steering_names}")
        for st in self.steering:
            if st.app is None and not st.backends:
                problems.append(f"steering {st.service}: needs an app or "
                                f"explicit backends")
            if st.app is not None and st.app not in app_kinds:
                problems.append(f"steering {st.service}: app {st.app!r} not "
                                f"declared")
            for backend in st.backends:
                if backend not in known:
                    problems.append(f"steering {st.service}: unknown backend "
                                    f"{backend!r}")
        if self.rebalance is not None:
            if not steering_names:
                problems.append("rebalance: needs a steering service")
            else:
                service = self.rebalance.service or steering_names[0]
                if service not in steering_names:
                    problems.append(f"rebalance: unknown steering service "
                                    f"{service!r}")
                else:
                    st = next(s for s in self.steering
                              if s.service == service)
                    if st.app != "rkv":
                        problems.append(
                            f"rebalance: service {service!r} must be backed "
                            f"by app='rkv' (the only app with cross-rack "
                            f"state hooks)")
                    elif "rkv" in app_kinds:   # else reported above
                        app = next(a for a in self.apps if a.kind == "rkv")
                        groups = app.replica_groups(self.server_names())
                        if any(len(g) > 1 for g in groups):
                            problems.append(
                                "rebalance: rkv replica groups must be "
                                "single-server (peer Paxos names do not yet "
                                "follow a migrated node)")
                        if any(systems.get(s) == "dpdk"
                               for g in groups for s in g):
                            problems.append(
                                "rebalance: every rkv backend must run "
                                "iPipe (the rebalancer migrates actors "
                                "only between iPipe runtimes)")
            if self.rebalance.on_load and self.observability.pulse is None:
                problems.append(
                    "rebalance: on_load needs observability.pulse "
                    "(the LoadFeed samples utilization per pulse)")
        pulse = self.observability.pulse
        slo_names = [s.slo_name() for s in self.observability.slos]
        if len(set(slo_names)) != len(slo_names):
            problems.append(f"duplicate SLO names: {slo_names}")
        if self.observability.slos and pulse is None:
            problems.append(
                "observability: SLOs declared without pulse sampling "
                "(set observability.pulse)")
        services = set(steering_names) | app_kinds
        for slo in self.observability.slos:
            problems += slo.problems(services, pulse)
        tenant_names = [t.name for t in self.tenants]
        tenant_set = set(tenant_names)
        if len(tenant_set) != len(tenant_names):
            problems.append(f"duplicate tenant names: {tenant_names}")
        nic_total = 0.0
        acc_total = 0.0
        for tenant in self.tenants:
            label = f"tenant {tenant.name}"
            nic_total += tenant.nic_core_share
            acc_total += tenant.accelerator_share
            for text in tenant.slos:
                try:
                    slo = SLOSpec.from_text(text)
                except ScenarioError as exc:
                    problems.append(f"{label}: {exc.problems[0]}")
                    continue
                problems += [f"{label}: {problem}"
                             for problem in slo.problems(services, pulse)]
            if tenant.slos and pulse is None:
                problems.append(
                    f"{label}: SLOs declared without pulse sampling "
                    f"(set observability.pulse)")
        if nic_total > 1.0 + 1e-9:
            problems.append(
                f"tenants: nic_core_share total {nic_total:g} exceeds 1")
        if acc_total > 1.0 + 1e-9:
            problems.append(
                f"tenants: accelerator_share total {acc_total:g} exceeds 1")
        for app in self.apps:
            if app.tenant and app.tenant not in tenant_set:
                problems.append(
                    f"app {app.kind}: tenant {app.tenant!r} not declared")
            elif self.tenants and not app.tenant:
                problems.append(
                    f"app {app.kind}: no tenant (spec declares "
                    f"tenants {sorted(tenant_set)})")
        for fleet in self.fleets:
            if fleet.tenant and fleet.tenant not in tenant_set:
                problems.append(
                    f"fleet {fleet.client}: tenant {fleet.tenant!r} "
                    f"not declared")
        rack_name_set = set(rack_names)
        for fault in self.faults:
            if fault.node is not None and fault.node not in known:
                problems.append(f"fault {fault.kind}: unknown node "
                                f"{fault.node!r}")
            if fault.kind == "rack_down" and fault.target not in rack_name_set:
                problems.append(f"fault rack_down: unknown rack "
                                f"{fault.target!r}")
        if problems:
            raise ScenarioError(problems)
        return self


# -- serialisation: one codec for scenario specs -----------------------------

def to_dict(spec) -> Dict[str, Any]:
    """Plain-data form of a spec tree (JSON/TOML-ready; tuples become
    lists, infinity becomes ``"inf"``)."""
    def convert(obj):
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            out = {}
            for f in dataclasses.fields(obj):
                value = getattr(obj, f.name)
                if value == f.default and not isinstance(value, tuple):
                    # keep files terse: skip values at their default
                    # (tuple fields always serialise: their default
                    # sentinel is ())
                    if f.default is not dataclasses.MISSING:
                        continue
                out[f.name] = convert(value)
            return out
        if isinstance(obj, (list, tuple)):
            return [convert(v) for v in obj]
        if isinstance(obj, float) and obj == float("inf"):
            return "inf"
        return obj
    return convert(spec)


#: per dataclass: (field name, resolved type, required) rows
_FIELDS: Dict[type, List[Tuple[str, Any, bool]]] = {}

_PAIRS = Tuple[Tuple[str, Any], ...]

_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number",
               bool: "true or false"}


def _fields(cls) -> List[Tuple[str, Any, bool]]:
    rows = _FIELDS.get(cls)
    if rows is None:        # resolve the (postponed) annotations once
        hints = typing.get_type_hints(cls)
        rows = _FIELDS[cls] = [
            (f.name, hints[f.name],
             f.default is dataclasses.MISSING
             and f.default_factory is dataclasses.MISSING)
            for f in dataclasses.fields(cls)]
    return rows


def _describe(value) -> str:
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, (list, tuple)):
        return "a list"
    return "null" if value is None else repr(value)


def decode(cls, data, path: str = ""):
    """Build dataclass ``cls`` from :func:`to_dict`-style plain data.

    Each field is read by its declared type: nested dataclasses from
    objects (``true`` means every field at its default; a class with a
    ``from_text`` also takes its compact string form), ``Optional[X]``
    from null or X, ``Tuple[X, ...]`` and ``List[X]`` from lists (pairs
    also from an object, as its sorted items), ``Dict[str, X]`` from
    objects, floats from numbers or ``"inf"``.  A class's
    ``KEYED_FIELDS`` maps a field to ``(key field, {key: class})``: the
    field is read as the class its (earlier) key field picks, from an
    object or a list of ``[key, value]`` pairs.  Anything else — a type
    mismatch, an unknown or missing field, a constructor's
    ``ValueError`` — raises ``ScenarioError([problem])`` with the problem
    qualified by its path, e.g. ``fleets[0]: missing field 'dst'`` (a
    constructor problem that starts with one of its fields, such as
    ``scheduler.alpha: ...``, continues the path).
    """
    def fail(problem):
        raise ScenarioError([f"{path or cls.__name__}: {problem}"]) from None

    if dataclasses.is_dataclass(cls):
        if isinstance(data, str) and hasattr(cls, "from_text"):
            try:
                return cls.from_text(data)
            except ValueError as exc:
                fail(exc)
        if data is True:
            data = {}
        if not isinstance(data, dict):
            fail(f"must be an object, not {_describe(data)}")
        rows = _fields(cls)
        unknown = set(data) - {name for name, _, _ in rows}
        if unknown:
            fail(f"unknown field(s) {sorted(unknown)}")
        keyed = getattr(cls, "KEYED_FIELDS", {})
        kwargs = {}
        for name, ftype, required in rows:
            if name in data:
                value, where = data[name], f"{path}.{name}" if path else name
                if name in keyed:
                    key, classes = keyed[name]
                    ftype = classes.get(kwargs.get(key), Any)
                    if isinstance(value, list):     # the pairs spelling
                        value = dict(decode(_PAIRS, value, where))
                kwargs[name] = decode(ftype, value, where)
            elif required:
                fail(f"missing field {name!r}")
        try:
            return cls(**kwargs)
        except ValueError as exc:
            problem = str(exc)
            head = problem.split(":", 1)[0].split(".", 1)[0]
            if path and any(head == name for name, _, _ in rows):
                # already qualified by one of this class's fields
                raise ScenarioError([f"{path}.{problem}"]) from None
            fail(problem)
    args = typing.get_args(cls)
    origin = typing.get_origin(cls)
    if origin is typing.Union:
        if data is None and type(None) in args:
            return None
        # Optional[X], or str | dataclass: an object picks the dataclass
        options = [t for t in args if t is not type(None)]
        pick = next((t for t in options if dataclasses.is_dataclass(t)
                     == isinstance(data, dict)), options[0])
        return decode(pick, data, path)
    if origin is dict:      # Dict[str, X]: JSON object keys are strings
        if not isinstance(data, dict):
            fail(f"must be an object, not {_describe(data)}")
        return {k: decode(args[1], v, f"{path}.{k}")
                for k, v in data.items()}
    if origin is list:
        return list(decode(Tuple[args[0], ...], data, path))
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            pairs = typing.get_origin(args[0]) is tuple
            if pairs and isinstance(data, dict):
                data = sorted(data.items())    # {"key": value} → pairs
            if not isinstance(data, (list, tuple)):
                fail(f"must be {'an object or ' if pairs else ''}a list, "
                     f"not {_describe(data)}")
            args = (args[0],) * len(data)
        elif not isinstance(data, (list, tuple)) or len(data) != len(args):
            fail(f"must be a list of {len(args)}, not {_describe(data)}")
        return tuple(decode(t, v, f"{path}[{i}]")
                     for i, (t, v) in enumerate(zip(args, data)))
    if cls is Any:
        return data
    if cls is float and data == "inf":
        return float("inf")
    if isinstance(data, bool) and cls is not bool \
            or not isinstance(data, (int, float) if cls is float else cls):
        fail(f"must be {_TYPE_NAMES.get(cls, cls)}, not {_describe(data)}")
    return data


def from_dict(data: Dict[str, Any]) -> ScenarioSpec:
    """Rebuild a spec from :func:`to_dict` output (or hand-written
    JSON/TOML); unknown keys raise so typos do not silently no-op."""
    return decode(ScenarioSpec, data)


def to_json(spec: ScenarioSpec, indent: int = 2) -> str:
    return json.dumps(to_dict(spec), indent=indent, sort_keys=False) + "\n"


def from_json(text: str) -> ScenarioSpec:
    return from_dict(json.loads(text))


def from_toml(text: str) -> ScenarioSpec:
    """TOML specs need ``tomllib`` (Python >= 3.11); gated, not required."""
    try:
        import tomllib
    except ImportError:  # pragma: no cover - version-dependent
        raise ScenarioError(
            ["TOML specs need Python >= 3.11 (tomllib); "
             "use the JSON form instead"]) from None
    return from_dict(tomllib.loads(text))


def from_file(path: str) -> ScenarioSpec:
    """Load a spec from a ``.json`` or ``.toml`` file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if str(path).endswith(".toml"):
        return from_toml(text)
    return from_json(text)


# -- convenience constructors -------------------------------------------------

def single_rack(name: str, servers: Sequence[ServerSpec],
                clients: Sequence[str] = ("client",),
                fabric: Optional[FabricSpec] = None,
                **kwargs) -> ScenarioSpec:
    """The paper's topology: one ToR, N servers, client boxes."""
    rack = RackSpec(name="rack0", servers=tuple(servers),
                    clients=tuple(ClientSpec(c) for c in clients))
    return ScenarioSpec(name=name, racks=(rack,),
                        fabric=fabric or FabricSpec(), **kwargs)


def three_servers(nic: str = LIQUIDIO_CN2350.model, system: str = "ipipe",
                  host_workers: Optional[int] = None,
                  reliable: bool = False,
                  scheduler: Tuple[Tuple[str, Any], ...] = ()
                  ) -> Tuple[ServerSpec, ...]:
    """The s0/s1/s2 deployment every paper application runs on (§5.1)."""
    return tuple(ServerSpec(name=f"s{i}", nic=nic, system=system,
                            host_workers=host_workers, reliable=reliable,
                            scheduler=scheduler)
                 for i in range(3))
