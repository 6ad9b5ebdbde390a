"""Section 2 characterization experiments (Figures 2–10, Tables 1–3).

Bandwidth/latency curves come from the calibrated hardware models; the
traffic-manager experiment (Figure 5) additionally runs a real DES with an
ECHO server on the simulated NIC to show the shared-queue scaling property
(latency barely rises from 6 to 12 cores).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..net import Packet, line_rate_pps
from ..nic import (
    ACCELERATORS,
    BLUEFIELD_1M332A,
    DmaEngine,
    HOST_XEON_E5_2680,
    LIQUIDIO_CN2350,
    MemoryHierarchy,
    MICROBENCH_PROFILES,
    RdmaEngine,
    STINGRAY_PS225,
    NicSpec,
    SmartNic,
    echo_cost_us,
    forward_cost_us,
)
from ..nic.calibration import (
    DMA_SIZES,
    FRAME_SIZES,
    MESSAGE_SIZES,
    dpdk_recv_us,
    dpdk_send_us,
    rdma_recv_us,
    rdma_send_us,
    smartnic_recv_us,
    smartnic_send_us,
)
from ..sim import LatencyRecorder, Rng, Simulator, Timeout, spawn


# -- Figures 2 & 3: bandwidth vs NIC core count -----------------------------------

def bandwidth_vs_cores(spec: NicSpec, frame_bytes: int, cores: int) -> float:
    """Achieved Gbps with ``cores`` NIC cores echoing ``frame_bytes`` frames."""
    if cores <= 0:
        return 0.0
    per_core_pps = 1e6 / echo_cost_us(spec, frame_bytes)
    achievable_pps = cores * per_core_pps
    line_pps = line_rate_pps(spec.bandwidth_gbps, frame_bytes)
    achieved = min(achievable_pps, line_pps)
    return achieved * frame_bytes * 8 / 1e9


def figure2_series(spec: NicSpec = LIQUIDIO_CN2350,
                   sizes: Sequence[int] = FRAME_SIZES
                   ) -> Dict[int, List[Tuple[int, float]]]:
    """size → [(cores, Gbps)] for every core count the NIC has."""
    return {
        size: [(cores, bandwidth_vs_cores(spec, size, cores))
               for cores in range(1, spec.cores + 1)]
        for size in sizes
    }


def cores_to_saturate(spec: NicSpec, frame_bytes: int) -> int:
    """Minimum cores achieving line rate; 0 if impossible."""
    for cores in range(1, spec.cores + 1):
        line_gbps = (line_rate_pps(spec.bandwidth_gbps, frame_bytes)
                     * frame_bytes * 8 / 1e9)
        if bandwidth_vs_cores(spec, frame_bytes, cores) >= line_gbps - 1e-9:
            return cores
    return 0


# -- Figure 4: computing headroom --------------------------------------------------

def bandwidth_with_processing(spec: NicSpec, frame_bytes: int,
                              added_latency_us: float) -> float:
    """Gbps when every packet additionally costs ``added_latency_us``."""
    per_pkt = forward_cost_us(spec, frame_bytes) + added_latency_us
    achievable_pps = spec.cores * 1e6 / per_pkt
    line_pps = line_rate_pps(spec.bandwidth_gbps, frame_bytes)
    return min(achievable_pps, line_pps) * frame_bytes * 8 / 1e9


def computing_headroom_us(spec: NicSpec, frame_bytes: int) -> float:
    """Maximum per-packet latency tolerable at line rate (Figure 4)."""
    line_pps = line_rate_pps(spec.bandwidth_gbps, frame_bytes)
    budget = spec.cores * 1e6 / line_pps
    return budget - forward_cost_us(spec, frame_bytes)


# -- Figure 5: traffic manager shared-queue scaling ----------------------------------

@dataclass
class Fig5Point:
    cores: int
    frame_bytes: int
    avg_us: float
    p99_us: float


def traffic_manager_experiment(frame_bytes: int, cores: int,
                               spec: NicSpec = LIQUIDIO_CN2350,
                               duration_us: float = 30_000.0,
                               load: float = 0.95,
                               seed: int = 3) -> Fig5Point:
    """DES: ``cores`` workers pulling an ECHO workload from the shared
    hardware queue near max throughput; reports avg/p99 sojourn."""
    sim = Simulator()
    nic = SmartNic(sim, spec)
    rng = Rng(seed)
    recorder = LatencyRecorder()
    cost = echo_cost_us(spec, frame_bytes)
    capacity_pps = min(cores * 1e6 / cost,
                       line_rate_pps(spec.bandwidth_gbps, frame_bytes))
    rate_per_us = load * capacity_pps / 1e6

    def worker(core_id: int):
        while True:
            # one resume per packet: the dequeue sync, then the echo cost
            pkt, _ = yield nic.traffic_manager.pop(lambda _: cost)
            recorder.record(sim.now - pkt.created_at)

    for core in range(cores):
        spawn(sim, worker(core))

    def generator():
        while True:
            yield Timeout(rng.poisson_interarrival(rate_per_us))
            nic.traffic_manager.push(
                Packet("gen", "nic", frame_bytes, created_at=sim.now))

    spawn(sim, generator())
    sim.run(until=duration_us)
    warm = recorder.samples[len(recorder.samples) // 5:]
    rec = LatencyRecorder()
    rec.samples = warm
    return Fig5Point(cores=cores, frame_bytes=frame_bytes,
                     avg_us=rec.mean, p99_us=rec.p99)


def figure5_panel(sizes: Sequence[int] = (64, 512, 1024, 1500),
                  cores: Sequence[int] = (6, 12),
                  duration_us: float = 25_000.0,
                  executor=None) -> Dict[Tuple[int, int], Fig5Point]:
    """The Figure-5 grid (``exec.grids.GRID_DEFS["fig5"]``) narrowed to
    ``sizes`` x ``cores``: (frame_bytes, cores) → :class:`Fig5Point`.

    The points run on ``executor``, a
    :class:`~repro.exec.sweep.ParallelSweep` (default: inline, serial).
    """
    from ..exec import ParallelSweep
    from ..exec.grids import build_grid
    points = build_grid("fig5", sizes=sizes, cores=cores,
                        duration_us=duration_us)
    results = (executor or ParallelSweep()).run(points).results
    return {point.key[1:]: results[point.key] for point in points}


# -- Figure 6: messaging latency -------------------------------------------------------

def figure6_series() -> Dict[str, List[Tuple[int, float]]]:
    fns = {
        "SmartNIC-send": smartnic_send_us,
        "SmartNIC-recv": smartnic_recv_us,
        "DPDK-send": dpdk_send_us,
        "DPDK-recv": dpdk_recv_us,
        "RDMA-send": rdma_send_us,
        "RDMA-recv": rdma_recv_us,
    }
    return {name: [(s, fn(s)) for s in MESSAGE_SIZES]
            for name, fn in fns.items()}


# -- Figures 7-10: DMA and RDMA curves ---------------------------------------------------

def figure7_series() -> Dict[str, List[Tuple[int, float]]]:
    dma = DmaEngine(Simulator())
    return {
        "DMA blocking read": [(s, dma.read_latency_us(s)) for s in DMA_SIZES],
        "DMA non-blocking read": [(s, dma.read_latency_us(s, blocking=False))
                                  for s in DMA_SIZES],
        "DMA blocking write": [(s, dma.write_latency_us(s)) for s in DMA_SIZES],
        "DMA non-blocking write": [(s, dma.write_latency_us(s, blocking=False))
                                   for s in DMA_SIZES],
    }


def figure8_series() -> Dict[str, List[Tuple[int, float]]]:
    dma = DmaEngine(Simulator())
    return {
        "DMA blocking read": [(s, dma.read_throughput_mops(s)) for s in DMA_SIZES],
        "DMA non-blocking read": [(s, dma.read_throughput_mops(s, blocking=False))
                                  for s in DMA_SIZES],
        "DMA blocking write": [(s, dma.write_throughput_mops(s)) for s in DMA_SIZES],
        "DMA non-blocking write": [(s, dma.write_throughput_mops(s, blocking=False))
                                   for s in DMA_SIZES],
    }


def figure9_series() -> Dict[str, List[Tuple[int, float]]]:
    rdma = RdmaEngine(Simulator())
    return {
        "RDMA one-sided read": [(s, rdma.read_latency_us(s)) for s in DMA_SIZES],
        "RDMA one-sided write": [(s, rdma.write_latency_us(s)) for s in DMA_SIZES],
    }


def figure10_series() -> Dict[str, List[Tuple[int, float]]]:
    rdma = RdmaEngine(Simulator())
    return {
        "RDMA one-sided read": [(s, rdma.read_throughput_mops(s)) for s in DMA_SIZES],
        "RDMA one-sided write": [(s, rdma.write_throughput_mops(s)) for s in DMA_SIZES],
    }


# -- Table 2: pointer chasing ---------------------------------------------------------------

def table2_rows() -> List[Tuple[str, str, str, str, str]]:
    rows = [("Device", "L1 (ns)", "L2 (ns)", "L3 (ns)", "DRAM (ns)")]
    devices = [
        ("LiquidIOII CNXX", MemoryHierarchy.for_nic(LIQUIDIO_CN2350)),
        ("BlueField 1M332A", MemoryHierarchy.for_nic(BLUEFIELD_1M332A)),
        ("Stingray PS225", MemoryHierarchy.for_nic(STINGRAY_PS225)),
        ("Host Intel server", MemoryHierarchy.for_host(HOST_XEON_E5_2680)),
    ]
    for name, mem in devices:
        # pointer-chase at footprints that land in each level
        l1 = mem.chase_latency_ns(mem.l1_bytes // 2)
        l2 = mem.chase_latency_ns(mem.l1_bytes + (mem.l2_bytes - mem.l1_bytes) // 2)
        l3 = (mem.chase_latency_ns((mem.l2_bytes + mem.l3_bytes) // 2)
              if mem.l3_bytes else None)
        dram_probe = max(mem.l3_bytes, mem.l2_bytes) * 8
        dram = mem.chase_latency_ns(dram_probe)
        rows.append((name, f"{l1:.1f}", f"{l2:.1f}",
                     "N/A" if l3 is None else f"{l3:.1f}", f"{dram:.1f}"))
    return rows


# -- Table 3: microbenchmark suite -------------------------------------------------------------

def table3_rows() -> List[Tuple[str, ...]]:
    rows = [("Application", "Exec. Lat.(us)", "IPC", "MPKI",
             "Host Lat.(us)", "Host speedup")]
    from ..nic import host_speedup, time_on_host
    for prof in MICROBENCH_PROFILES.values():
        rows.append((
            prof.name,
            f"{prof.exec_us:.2f}",
            f"{prof.ipc:.1f}",
            f"{prof.mpki:.1f}",
            f"{time_on_host(prof, HOST_XEON_E5_2680):.2f}",
            f"{host_speedup(prof, HOST_XEON_E5_2680):.1f}x",
        ))
    return rows


def table3_accel_rows() -> List[Tuple[str, ...]]:
    rows = [("Accelerator", "IPC", "MPKI", "bsz=1", "bsz=8", "bsz=32")]
    for prof in ACCELERATORS.values():
        rows.append((
            prof.name.upper(), f"{prof.ipc:.1f}", f"{prof.mpki:.1f}",
            f"{prof.lat_us_b1:.1f}",
            "N/A" if prof.lat_us_b8 is None else f"{prof.lat_us_b8:.1f}",
            "N/A" if prof.lat_us_b32 is None else f"{prof.lat_us_b32:.1f}",
        ))
    return rows
