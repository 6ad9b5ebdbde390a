"""§5.6 and §5.7: Floem comparison and network functions on iPipe.

* **Floem vs iPipe (RTA)** — per-core throughput in Gbps/core, where
  cores counts every busy core (NIC + host) serving the pipeline.  iPipe
  wins the best case (~2.9 vs ~1.6 Gbps/core in the paper) because Floem's
  static placement pays a per-packet multiplexing queue; under 64B traffic
  iPipe wins by ~88% because it migrates the actors out of the NIC's way.
* **Firewall** — 8K wildcard rules; average processing latency rises from
  ~3.65µs to ~19.41µs as load grows (queueing on the NIC cores).
* **IPsec** — AES-256-CTR + SHA-1 via the crypto engines; goodput ~8.6
  Gbps on the 10GbE card (22.9 on 25GbE) for 1KB packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..nic import LIQUIDIO_CN2350, LIQUIDIO_CN2360, NicSpec
from ..scenario import (
    AppSpec,
    ClientSpec,
    FabricSpec,
    FirewallOptions,
    RackSpec,
    ScenarioSpec,
    ServerSpec,
    build,
)
from ..sim import Rng
from .applications import run_app


# -- §5.6 Floem comparison ---------------------------------------------------------

@dataclass
class FloemComparison:
    system: str
    packet_size: int
    throughput_gbps: float
    busy_cores: float

    @property
    def gbps_per_core(self) -> float:
        return self.throughput_gbps / max(self.busy_cores, 0.05)


def floem_vs_ipipe(packet_size: int = 1024, clients: int = 96,
                   duration_us: float = 15_000.0) -> Tuple[FloemComparison, FloemComparison]:
    """(floem, ipipe) per-core efficiency for the RTA workload."""
    out = []
    for system in ("floem", "ipipe"):
        result = run_app(system, "rta", nic_spec=LIQUIDIO_CN2350,
                         packet_size=packet_size, clients=clients,
                         duration_us=duration_us)
        gbps = result.throughput_mops * packet_size * 8 / 1000.0
        busy = sum(result.host_cores.values()) + sum(result.nic_cores.values())
        out.append(FloemComparison(system=system, packet_size=packet_size,
                                   throughput_gbps=gbps, busy_cores=busy))
    return out[0], out[1]


# -- §5.7 firewall ---------------------------------------------------------------------

def firewall_latency_vs_load(rule_count: int = 8192, packet_size: int = 1024,
                             loads: Tuple[float, ...] = (0.2, 0.5, 0.8, 0.95),
                             spec: NicSpec = LIQUIDIO_CN2350,
                             duration_us: float = 20_000.0,
                             seed: int = 31) -> List[Tuple[float, float]]:
    """[(load, mean processing latency µs)] for the 8K-rule firewall."""
    results = []
    for load in loads:
        bed = build(ScenarioSpec(
            name=f"firewall-{load}", seed=seed,
            racks=(RackSpec(
                name="rack0",
                servers=(ServerSpec(
                    name="fw", nic=spec, host_workers=4,
                    scheduler=(("migration_enabled", False),)),),
                clients=(ClientSpec("client"),)),),
            fabric=FabricSpec(bandwidth_gbps=spec.bandwidth_gbps),
            apps=(AppSpec(kind="firewall", servers=("fw",),
                          options=FirewallOptions(rule_count=rule_count,
                                                  rule_seed=seed)),)))
        server = bed.servers["fw"]
        rng = Rng(seed + 1)

        def payload(_i, rng=rng):
            return {"src_ip": rng.randint(0, (1 << 32) - 1),
                    "dst_ip": rng.randint(0, (1 << 32) - 1),
                    "src_port": rng.randint(0, 65535),
                    "dst_port": rng.randint(0, 65535),
                    "proto": 6}

        # networking load is relative to line rate for this packet size
        from ..net import line_rate_pps
        rate = load * line_rate_pps(spec.bandwidth_gbps, packet_size) / 1e6
        client = bed.clients["client"].open_loop(
            dst="fw", rate_mpps=rate, size=packet_size,
            payload_factory=payload, rng=Rng(seed + 2))
        bed.sim.run(until=duration_us)
        client.stop()
        server.runtime.stop()
        samples = client.latency.samples
        warm = samples[len(samples) // 5:]
        mean = sum(warm) / len(warm) if warm else 0.0
        # subtract the fixed wire round trip to isolate processing latency
        wire = 2 * (0.3 + 0.45 + 0.3) + packet_size * 8 / (spec.bandwidth_gbps * 1e3)
        results.append((load, max(mean - wire, 0.0)))
    return results


# -- §5.7 IPsec -------------------------------------------------------------------------

def ipsec_goodput_gbps(spec: NicSpec = LIQUIDIO_CN2350,
                       packet_size: int = 1024, clients: int = 128,
                       duration_us: float = 15_000.0,
                       seed: int = 41) -> float:
    """Achieved IPsec encapsulation goodput for 1KB packets."""
    bed = build(ScenarioSpec(
        name="ipsec-gw", seed=seed,
        racks=(RackSpec(
            name="rack0",
            servers=(ServerSpec(
                name="gw", nic=spec, host_workers=4,
                scheduler=(("migration_enabled", False),)),),
            clients=(ClientSpec("gwclient"),)),),
        fabric=FabricSpec(bandwidth_gbps=spec.bandwidth_gbps),
        apps=(AppSpec(kind="ipsec", servers=("gw",)),)))
    server = bed.servers["gw"]
    client = bed.clients["gwclient"]
    payload_data = bytes(packet_size - 64)
    gen = client.closed_loop(dst="gw", clients=clients, size=packet_size,
                             payload_factory=lambda i: {"data": payload_data},
                             rng=Rng(seed))
    runtime = server.runtime
    bed.sim.run(until=duration_us)
    gen.stop()
    runtime.stop()
    return gen.answered * packet_size * 8 / duration_us / 1000.0
