"""Network traffic substrate.

The paper's evaluations are driven by network traffic: worst-case 64-byte
Ethernet packets (Sections 4-5) and per-flow queued traffic over up to
32 K flows (Section 6).  This package provides the packet abstraction
and the Ethernet line-rate arithmetic the models price traffic with.
"""

from repro.net.packet import Packet, SEGMENT_BYTES
from repro.net.ethernet import (
    ETHERNET_IFG_BYTES,
    ETHERNET_MIN_FRAME_BYTES,
    ETHERNET_PREAMBLE_BYTES,
    line_rate_pps,
    packet_service_time_ps,
    pps_to_gbps,
    wire_time_ps,
)

__all__ = [
    "Packet",
    "SEGMENT_BYTES",
    "ETHERNET_MIN_FRAME_BYTES",
    "ETHERNET_PREAMBLE_BYTES",
    "ETHERNET_IFG_BYTES",
    "wire_time_ps",
    "packet_service_time_ps",
    "line_rate_pps",
    "pps_to_gbps",
]
