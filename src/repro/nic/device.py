"""SmartNIC device composition.

Glues the component models into one device: traffic control feeding NIC
cores, accelerators, on-board memory, and the host-communication engine
(native DMA for LiquidIO-style firmware cards, RDMA verbs for
BlueField/Stingray-style full-OS cards).

The device is passive: core *logic* (the iPipe runtime, or a bare echo
app) spawns processes that pull work items from :attr:`traffic_manager`
and call :meth:`transmit` — exactly how firmware work-queue entries flow
on real hardware.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..net import Fabric, Packet
from ..sim import Simulator, UtilizationTracker
from .accelerators import AcceleratorBank
from .calibration import echo_cost_us, forward_cost_us
from .dma import DmaEngine
from .memory import MemoryHierarchy, NicDram, PacketBuffer, Scratchpad
from .rdma import RdmaEngine
from .specs import NicSpec
from .traffic import NicSwitch, TrafficManager, traffic_manager_for


class SmartNic:
    """A simulated Multicore SoC SmartNIC plugged into one server."""

    def __init__(self, sim: Simulator, spec: NicSpec, name: str = "nic"):
        self.sim = sim
        self.spec = spec
        self.name = name
        self.traffic_manager: TrafficManager = traffic_manager_for(sim, spec)
        self.accelerators = AcceleratorBank(sim)
        self.packet_buffer = PacketBuffer.for_nic(spec)
        self.memory = MemoryHierarchy.for_nic(spec)
        self.dram = NicDram(spec.dram_gb * (1 << 30))
        self.scratchpads = [
            Scratchpad(spec.scratchpad_lines, spec.memory.cache_line)
            for _ in range(spec.cores)
        ]
        if spec.host_interface == "dma":
            self.host_channel = DmaEngine(sim)
        else:
            self.host_channel = RdmaEngine(sim)
        self.core_util: List[UtilizationTracker] = [
            UtilizationTracker() for _ in range(spec.cores)
        ]
        self.nic_switch: Optional[NicSwitch] = None
        self._uplink = None
        self._host_receiver: Optional[Callable[[Packet], None]] = None
        #: When set (by the iPipe runtime), arriving frames are handed to
        #: this callback instead of being enqueued raw — the runtime wraps
        #: them into scheduler work items first.
        self.packet_handler: Optional[Callable[[Packet], None]] = None
        self.rx_packets = 0
        self.tx_packets = 0

    # -- wiring ------------------------------------------------------------
    def attach_network(self, network: Fabric, node_name: str) -> None:
        """Connect the NIC's ports to the fabric under ``node_name``."""
        self._uplink = network.attach(node_name, self.receive,
                                      bandwidth_gbps=self.spec.bandwidth_gbps)

    def set_host_receiver(self, fn: Callable[[Packet], None]) -> None:
        """Register the host-side delivery path (driver ring / RDMA QP).

        For off-path NICs this also instantiates the NIC switch so flows
        can bypass NIC cores entirely.
        """
        self._host_receiver = fn
        if not self.spec.is_on_path:
            self.nic_switch = NicSwitch(
                self.sim,
                to_nic=self.traffic_manager.push,
                to_host=fn,
            )

    # -- datapath ------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Frame arrival from the wire."""
        self.rx_packets += 1
        if self.packet_handler is not None:
            self.packet_handler(packet)
        elif self.spec.is_on_path or self.nic_switch is None:
            self.traffic_manager.push(packet)
        else:
            self.nic_switch.ingest(packet)

    def transmit(self, packet: Packet) -> None:
        """Send a frame out the TX port."""
        if self._uplink is None:
            raise RuntimeError(f"{self.name}: not attached to a network")
        self.tx_packets += 1
        self._uplink.transmit(packet)

    def deliver_to_host(self, packet: Packet) -> None:
        """Hand a packet up to the host (via DMA'd descriptor rings)."""
        if self._host_receiver is None:
            raise RuntimeError(f"{self.name}: no host receiver registered")
        self._host_receiver(packet)

    # -- calibrated per-packet costs ------------------------------------------
    def echo_cost(self, frame_bytes: int) -> float:
        """CPU µs one core spends fully echoing a frame (Figures 2/3)."""
        return echo_cost_us(self.spec, frame_bytes)

    def forward_cost(self, frame_bytes: int) -> float:
        """CPU µs for raw forwarding without app work (Figure 4)."""
        return forward_cost_us(self.spec, frame_bytes)

    # -- accounting ------------------------------------------------------------
    def charge_core(self, core_id: int, busy_us: float) -> None:
        self.core_util[core_id].add_busy(busy_us)

    def cores_used(self, elapsed_us: float) -> float:
        """Equivalent fully-busy core count over the elapsed window."""
        return sum(u.utilization(elapsed_us) for u in self.core_util)
