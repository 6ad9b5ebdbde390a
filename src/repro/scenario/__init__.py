"""Declarative scenario layer: describe a deployment, build a simulation.

A :class:`ScenarioSpec` is a pure-data description of racks, servers
(with per-server NIC models and runtime systems), the switching fabric,
client fleets, application placement, workloads, fault schedules and
observability.  :func:`build` turns one into a wired, runnable
:class:`Scenario`; :func:`run_scenario` builds *and* drives it to the
spec's horizon and reports fleet/fabric counters.

Specs load from Python, JSON, or TOML (Python ≥ 3.11) and ship with the
package under ``scenario/specs/``.
"""

from .spec import (
    AppSpec,
    ClientSpec,
    DtOptions,
    FabricSpec,
    FirewallOptions,
    FleetSpec,
    NIC_CATALOG,
    ObsSpec,
    PulseSpec,
    RackSpec,
    RebalanceSpec,
    RkvOptions,
    RtaOptions,
    ScenarioError,
    ScenarioSpec,
    ServerSpec,
    SLOSpec,
    SteeringSpec,
    TenantSpec,
    from_dict,
    from_file,
    from_json,
    resolve_nic,
    single_rack,
    three_servers,
    to_dict,
    to_json,
)
from .build import (
    BuiltApp,
    ClientPort,
    Scenario,
    Server,
    build,
    make_fabric,
    make_server,
)
from .run import (
    ScenarioResult,
    load_shipped,
    run_scenario,
    shipped_specs,
)

__all__ = [
    "AppSpec",
    "BuiltApp",
    "ClientPort",
    "ClientSpec",
    "DtOptions",
    "FabricSpec",
    "FirewallOptions",
    "FleetSpec",
    "NIC_CATALOG",
    "ObsSpec",
    "PulseSpec",
    "RackSpec",
    "RebalanceSpec",
    "RkvOptions",
    "RtaOptions",
    "Scenario",
    "ScenarioError",
    "ScenarioResult",
    "ScenarioSpec",
    "Server",
    "ServerSpec",
    "SLOSpec",
    "SteeringSpec",
    "TenantSpec",
    "build",
    "from_dict",
    "from_file",
    "from_json",
    "load_shipped",
    "make_fabric",
    "make_server",
    "resolve_nic",
    "run_scenario",
    "shipped_specs",
    "single_rack",
    "three_servers",
    "to_dict",
    "to_json",
]
