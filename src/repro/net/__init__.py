"""Network substrate: packets, links, ToR switch, traffic generators."""

from .packet import (
    FCS_BYTES,
    IFG_BYTES,
    MIN_FRAME,
    MTU_FRAME,
    PREAMBLE_BYTES,
    WIRE_OVERHEAD_BYTES,
    Packet,
    line_rate_pp_us,
    line_rate_pps,
    serialization_delay_us,
    wire_bits,
)
from .link import DuplexPort, Link
from .switch import SpineSwitch, ToRSwitch
from .fabric import Fabric
from .pktgen import Client
from .steering import (
    MaglevTable,
    MovableBackend,
    RebalanceSpec,
    Rebalancer,
    SteeringController,
)

__all__ = [
    "FCS_BYTES",
    "IFG_BYTES",
    "MIN_FRAME",
    "MTU_FRAME",
    "PREAMBLE_BYTES",
    "WIRE_OVERHEAD_BYTES",
    "Packet",
    "line_rate_pp_us",
    "line_rate_pps",
    "serialization_delay_us",
    "wire_bits",
    "DuplexPort",
    "Fabric",
    "Link",
    "SpineSwitch",
    "ToRSwitch",
    "Client",
    "MaglevTable",
    "MovableBackend",
    "RebalanceSpec",
    "Rebalancer",
    "SteeringController",
]
