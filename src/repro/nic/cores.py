"""Compute cost model for NIC cores and host cores.

Table 3 characterizes offloaded workloads on the LiquidIOII CN2350 by
execution latency, measured IPC, and L2 MPKI.  From those three numbers we
back out an instruction count and a memory-stall decomposition:

    instructions = latency · IPC · freq
    memory_stall = (instructions/1000) · MPKI · DRAM_latency · overlap
    compute_time = latency − memory_stall

and re-time the workload on any other core by scaling the compute part with
frequency × microarchitecture gain and the stall part with the DRAM latency
ratio.  This reproduces implication I3: tasks with low IPC or high MPKI gain
little from a beefy host core and are the best offload candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from .specs import HostSpec, NicSpec, LIQUIDIO_CN2350

#: Fraction of miss latency that is *not* hidden by overlap on the in-order
#: cnMIPS cores (2-way, no OoO window to speak of).
MISS_OVERLAP = 0.7
#: Effective per-cycle advantage of the host's wide OoO core over the
#: 2-way in-order cnMIPS for compute-bound instruction streams.
HOST_ARCH_GAIN = 1.8
#: ARM Cortex-A72 (3-way OoO) advantage over cnMIPS at equal frequency.
A72_ARCH_GAIN = 1.35


@dataclass(frozen=True)
class WorkloadProfile:
    """A workload characterized on the reference NIC (CN2350, Table 3)."""

    name: str
    exec_us: float    # measured on LiquidIOII CN2350 @ 1.2GHz
    ipc: float        # measured IPC (ideal is 2 on the 2-way cnMIPS)
    mpki: float       # L2 misses per kilo-instruction
    request_bytes: int = 1024

    @property
    def instructions(self) -> float:
        freq_mhz = LIQUIDIO_CN2350.freq_ghz * 1e3  # instructions per µs per IPC
        return self.exec_us * self.ipc * freq_mhz

    def scaled(self, factor: float) -> "WorkloadProfile":
        """The same workload with its work scaled by ``factor``."""
        return replace(self, exec_us=self.exec_us * factor)


#: Table 3, left half: representative in-network offloaded workloads.
MICROBENCH_PROFILES: Dict[str, WorkloadProfile] = {
    "echo": WorkloadProfile("echo", 1.87, 1.4, 0.6),
    "flow_monitor": WorkloadProfile("flow_monitor", 3.2, 1.4, 0.8),
    "kv_cache": WorkloadProfile("kv_cache", 3.7, 1.2, 0.9),
    "top_ranker": WorkloadProfile("top_ranker", 34.0, 1.7, 0.1),
    "rate_limiter": WorkloadProfile("rate_limiter", 8.2, 0.7, 4.4),
    "firewall": WorkloadProfile("firewall", 3.7, 1.3, 1.6),
    "router": WorkloadProfile("router", 2.2, 1.3, 0.6),
    "load_balancer": WorkloadProfile("load_balancer", 2.0, 1.3, 1.3),
    "packet_scheduler": WorkloadProfile("packet_scheduler", 12.6, 0.5, 4.9),
    "flow_classifier": WorkloadProfile("flow_classifier", 71.0, 0.5, 15.2),
    "packet_replication": WorkloadProfile("packet_replication", 1.9, 1.4, 0.6),
}


def _decompose(profile: WorkloadProfile) -> tuple:
    """Split the reference execution time into (compute_us, stall_us)."""
    misses = profile.instructions / 1000.0 * profile.mpki
    stall_us = misses * (LIQUIDIO_CN2350.memory.dram_ns / 1000.0) * MISS_OVERLAP
    stall_us = min(stall_us, 0.8 * profile.exec_us)
    return profile.exec_us - stall_us, stall_us


def time_on_nic(profile: WorkloadProfile, spec: NicSpec) -> float:
    """Execution time of the workload on one core of ``spec`` (µs)."""
    compute_us, stall_us = _decompose(profile)
    freq_ratio = LIQUIDIO_CN2350.freq_ghz / spec.freq_ghz
    arch_gain = 1.0 if spec.processor.startswith("cnMIPS") else A72_ARCH_GAIN
    mem_ratio = spec.memory.dram_ns / LIQUIDIO_CN2350.memory.dram_ns
    return compute_us * freq_ratio / arch_gain + stall_us * mem_ratio


def time_on_host(profile: WorkloadProfile, host: HostSpec) -> float:
    """Execution time of the workload on one beefy host core (µs)."""
    compute_us, stall_us = _decompose(profile)
    freq_ratio = LIQUIDIO_CN2350.freq_ghz / host.freq_ghz
    mem_ratio = host.memory.dram_ns / LIQUIDIO_CN2350.memory.dram_ns
    return compute_us * freq_ratio / HOST_ARCH_GAIN + stall_us * mem_ratio


class TimeFactors(dict):
    """``(profile, on_nic) -> time per reference µs`` on one server.

    The value is :func:`time_on_nic` (or :func:`time_on_host`) over the
    profile's ``exec_us``, computed on first use; a runtime holds one
    for ``ExecutionContext.compute``.  ``nic`` may be None on a server
    whose actors all run on the host.
    """

    def __init__(self, nic: Optional[NicSpec], host: HostSpec):
        super().__init__()
        self.nic = nic
        self.host = host

    def __missing__(self, key: Tuple[WorkloadProfile, bool]) -> float:
        profile, on_nic = key
        if on_nic:
            cost = time_on_nic(profile, self.nic)
        else:
            cost = time_on_host(profile, self.host)
        factor = self[key] = cost / profile.exec_us
        return factor


def host_speedup(profile: WorkloadProfile, host: HostSpec) -> float:
    """How much faster the host runs this workload than the CN2350.

    Low-IPC / high-MPKI workloads approach ~2x (memory bound: the host only
    wins its DRAM-latency advantage); compute-bound code approaches
    freq_ratio × HOST_ARCH_GAIN ≈ 3.7x.
    """
    return profile.exec_us / time_on_host(profile, host)


def table3_workload_rows():
    """Printable reproduction of Table 3's workload half."""
    header = ("Application", "Exec. Lat.(us)", "IPC", "MPKI")
    rows = [header]
    for prof in MICROBENCH_PROFILES.values():
        rows.append((prof.name, f"{prof.exec_us:.2f}", f"{prof.ipc:.1f}",
                     f"{prof.mpki:.1f}"))
    return tuple(rows)


class CoreHealth:
    """Liveness / stall bookkeeping for a NIC's scheduling cores.

    The FaultPlane sets these flags; the scheduler consults them at every
    scheduling-loop boundary, so fault detection granularity is one
    cooperative scheduling iteration — the same granularity the DoS
    watchdog already has.  Failures are permanent (a wedged core never
    comes back without a device reset); stalls expire on their own.
    """

    def __init__(self, cores: int):
        self.cores = cores
        self._failed: set = set()
        self._stalled_until = [0.0] * cores

    def alive(self, core: int) -> bool:
        return core not in self._failed

    def fail(self, core: int) -> None:
        self._failed.add(core)

    def stall(self, core: int, now: float, duration_us: float) -> None:
        self._stalled_until[core] = max(self._stalled_until[core],
                                        now + duration_us)

    def stall_remaining(self, core: int, now: float) -> float:
        return max(self._stalled_until[core] - now, 0.0)

    @property
    def failed(self) -> frozenset:
        return frozenset(self._failed)

    def alive_count(self) -> int:
        return self.cores - len(self._failed)
