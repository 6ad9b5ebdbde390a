"""Application experiments: Figures 13–15, 17 and §5.6/§5.7.

Deployments mirror §5.1: each application runs on three servers behind
one ToR switch — the RTA worker on each server, DT coordinator on one
server with participants on two, RKV leader plus two followers — with a
client box running the closed-loop workload generator.

Two systems share the identical application wiring classes:

* ``ipipe`` — SmartNIC servers running the full runtime;
* ``dpdk``  — host-only servers behind dumb NICs (the baseline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core import IPipeRuntime
from ..nic import LIQUIDIO_CN2350, NicSpec
from ..scenario import (
    AppSpec,
    ClientSpec,
    FabricSpec,
    FleetSpec,
    RackSpec,
    RkvOptions,
    ScenarioSpec,
    ServerSpec,
    build,
)
from ..scenario.spec import WORKLOAD_APPS
from ..workloads import value_bytes_for_packet

#: each paper application's request stream (§5.1)
APP_WORKLOADS = {app: workload for workload, app in WORKLOAD_APPS.items()}

APPS = ("rta", "dt", "rkv")
#: Figure 13's five measured roles → (app, server index).
ROLES = {
    "rta-worker": ("rta", 0),
    "dt-coordinator": ("dt", 0),
    "dt-participant": ("dt", 1),
    "rkv-leader": ("rkv", 0),
    "rkv-follower": ("rkv", 1),
}


@dataclass
class AppRunResult:
    """Measured outcome of one (system, app, size) deployment."""

    system: str
    app: str
    nic_model: str
    packet_size: int
    duration_us: float
    completed: int
    mean_latency_us: float
    p99_latency_us: float
    host_cores: Dict[str, float]        # per server
    nic_cores: Dict[str, float]

    @property
    def throughput_mops(self) -> float:
        return self.completed / self.duration_us

    def per_core_tput(self, server: str) -> float:
        cores = max(self.host_cores.get(server, 0.0), 0.05)
        return self.throughput_mops / cores


def deployment_spec(system: str, app: str, nic_spec: NicSpec,
                    packet_size: int, clients: int, duration_us: float,
                    seed: int, prefill_keys: int = 4000) -> ScenarioSpec:
    """The §5.1 deployment as data: three servers, one closed-loop fleet."""
    if app not in APP_WORKLOADS:
        raise ValueError(f"unknown app {app!r}")
    options = None
    if app == "rkv":
        # steady state: the hottest keys are memtable-resident (the
        # paper measures warmed-up systems)
        options = RkvOptions(
            prefill_keys=prefill_keys,
            prefill_value_bytes=value_bytes_for_packet(packet_size))
    return ScenarioSpec(
        name=f"{system}-{app}", seed=seed, duration_us=duration_us,
        racks=(RackSpec(
            name="rack0",
            servers=tuple(ServerSpec(name=f"s{i}", nic=nic_spec,
                                     system=system) for i in range(3)),
            clients=(ClientSpec("client"),)),),
        fabric=FabricSpec(bandwidth_gbps=nic_spec.bandwidth_gbps),
        apps=(AppSpec(kind=app, servers=("s0", "s1", "s2"), leader="s0",
                      options=options),),
        fleets=(FleetSpec(client="client", dst="s0", mode="closed",
                          clients=clients, size=packet_size,
                          workload=APP_WORKLOADS[app], seed=seed),))


def run_app(system: str, app: str, nic_spec: NicSpec = LIQUIDIO_CN2350,
            packet_size: int = 512, clients: int = 48,
            duration_us: float = 20_000.0, seed: int = 5,
            warmup_fraction: float = 0.25,
            prefill_keys: int = 4000) -> AppRunResult:
    """One deployment driven closed-loop at its natural max throughput."""
    scenario = build(deployment_spec(system, app, nic_spec, packet_size,
                                     clients, duration_us, seed,
                                     prefill_keys=prefill_keys))
    sim = scenario.sim
    runtimes = {n: s.runtime for n, s in scenario.servers.items()}
    gen = scenario.generators[0]

    warmup = duration_us * warmup_fraction
    sim.run(until=warmup)
    base_completed = gen.answered
    # reset utilization accounting at the measurement window start
    for runtime in runtimes.values():
        for tracker in runtime.host_util:
            tracker.busy_time = 0.0
        if isinstance(runtime, IPipeRuntime):
            for tracker in runtime.nic.core_util:
                tracker.busy_time = 0.0
    gen.latency.samples.clear()
    sim.run(until=duration_us)
    gen.stop()
    for runtime in runtimes.values():
        runtime.stop()

    window = duration_us - warmup
    host_cores = {n: rt.host_cores_used(window) for n, rt in runtimes.items()}
    nic_cores = {
        n: (rt.nic.cores_used(window)
            if isinstance(rt, IPipeRuntime) else 0.0)
        for n, rt in runtimes.items()
    }
    return AppRunResult(
        system=system, app=app, nic_model=nic_spec.model,
        packet_size=packet_size, duration_us=window,
        completed=gen.answered - base_completed,
        mean_latency_us=gen.latency.mean,
        p99_latency_us=gen.latency.p99,
        host_cores=host_cores, nic_cores=nic_cores)


# -- Figures 14/15: latency vs per-core throughput ---------------------------------------

def latency_throughput_curve(system: str, app: str,
                             nic_spec: NicSpec = LIQUIDIO_CN2350,
                             packet_size: int = 512,
                             client_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
                             executor=None,
                             **kwargs) -> List[Tuple[float, float]]:
    """[(per-core Mops, mean latency µs)] for the measured role's server.

    The points are the (system, app) row of
    ``exec.grids.GRID_DEFS["fig14"]``, run on ``executor``, a
    :class:`~repro.exec.sweep.ParallelSweep` (default: inline, serial);
    ``kwargs`` go to :func:`run_app`.
    """
    from ..exec import ParallelSweep
    from ..exec.grids import build_grid
    points = build_grid(
        "fig14", systems=(system,), apps=(app,), client_counts=client_counts,
        packet_size=packet_size,
        duration_us=kwargs.pop("duration_us", 20_000.0),  # run_app default
        run_kwargs=dict(kwargs, nic_spec=nic_spec))
    results = (executor or ParallelSweep()).run(points).results
    return latency_curves(points, results)[(system, app)]


def latency_curves(points, results) -> Dict[Tuple[str, str],
                                            List[Tuple[float, float]]]:
    """Fold fig14 grid results: (system, app) → [(per-core Mops, mean
    latency µs)], in grid order, measured on the RTA worker / DT
    coordinator / RKV leader (server s0)."""
    curves: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    for point in points:
        result = results[point.key]
        curves.setdefault((result.system, result.app), []).append(
            (result.per_core_tput("s0"), result.mean_latency_us))
    return curves


# -- Figure 17: iPipe host-only overhead --------------------------------------------------

def overhead_comparison(load_fractions: Sequence[float] = (0.15, 0.25, 0.35),
                        packet_size: int = 512,
                        duration_us: float = 20_000.0,
                        base_clients: int = 16,
                        executor=None) -> List[Tuple[float, float, float]]:
    """[(load, dpdk host µs/op, ipipe-host-only host µs/op)].

    Both deployments are host-only RKV (iPipe with every actor pinned to
    the host); loads are fractions of the closed-loop maximum, kept below
    saturation, and the metric is host CPU per completed operation — the
    "same throughput" normalization §5.5 uses.  The points are
    ``exec.grids.GRID_DEFS["fig17"]``, run on ``executor``, a
    :class:`~repro.exec.sweep.ParallelSweep` (default: inline, serial).
    """
    from ..exec import ParallelSweep
    from ..exec.grids import build_grid
    points = build_grid("fig17", load_fractions=load_fractions,
                        packet_size=packet_size, duration_us=duration_us,
                        base_clients=base_clients)
    results = (executor or ParallelSweep()).run(points).results
    return overhead_rows(points, results)


def overhead_rows(points, results) -> List[Tuple[float, float, float]]:
    """Fold fig17 grid results into [(load, dpdk host µs/op,
    ipipe-host-only host µs/op)], in grid order."""
    per_op: Dict[float, Dict[str, float]] = {}
    for point in points:
        _, system, frac = point.key
        result = results[point.key]
        per_op.setdefault(frac, {})[system] = (
            result.host_cores["s0"] / max(result.throughput_mops, 1e-9))
    return [(frac, cost["dpdk"], cost["ipipe-hostonly"])
            for frac, cost in per_op.items()]
