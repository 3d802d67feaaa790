"""QoS egress scheduling over MMS flow queues (extension).

The paper motivates per-flow queuing with "advanced Quality of Service"
but leaves the egress scheduling policy to the system around the MMS.
This module supplies the two standard policies such a system would bolt
onto the Out port:

* :class:`StrictPriorityScheduler` -- classes served in fixed order
  (802.1p-style class scheduling),
* :class:`DeficitRoundRobin` -- byte-fair weighted sharing across flows,
  charging each flow the actual bytes its dequeued segments carried.

Both are pure *selection* policies over the functional queue manager
(:class:`~repro.queueing.PacketQueueManager`, the state the MMS
commands act on): they pick a flow and dequeue its head packet segment
by segment, in zero simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.queueing.packet_queues import PacketQueueManager, SegmentInfo


@dataclass
class DequeuedPacket:
    """One packet pulled by a scheduler."""

    flow: int
    segments: List[SegmentInfo]

    @property
    def length_bytes(self) -> int:
        return sum(s.length for s in self.segments)


def _dequeue_packet(pqm: PacketQueueManager, flow: int) -> DequeuedPacket:
    """Dequeue one whole packet from ``flow``."""
    segments: List[SegmentInfo] = []
    while True:
        info, _trace = pqm.dequeue_segment(flow)
        segments.append(info)
        if info.eop:
            return DequeuedPacket(flow=flow, segments=segments)


class StrictPriorityScheduler:
    """Serve the highest-priority non-empty flow, always.

    ``flows`` are given from highest to lowest priority.
    """

    def __init__(self, pqm: PacketQueueManager, flows: Sequence[int]) -> None:
        if not flows:
            raise ValueError("flows must be non-empty")
        if len(set(flows)) != len(flows):
            raise ValueError("flows must be distinct")
        self.pqm = pqm
        self.flows = list(flows)
        self.served: Dict[int, int] = {f: 0 for f in flows}

    def next_packet(self) -> Optional[DequeuedPacket]:
        for flow in self.flows:
            if self.pqm.queued_packets(flow) > 0:
                pkt = _dequeue_packet(self.pqm, flow)
                self.served[flow] += 1
                return pkt
        return None


class DeficitRoundRobin:
    """Byte-accurate DRR (Shreedhar & Varghese) over MMS flow queues.

    Each round a flow's deficit grows by ``quantum * weight``; it may
    dequeue head packets while its deficit covers their byte size.
    Unused deficit carries over only while the flow stays backlogged.
    """

    def __init__(self, pqm: PacketQueueManager, flows: Sequence[int],
                 weights: Optional[Sequence[float]] = None,
                 quantum_bytes: int = 512) -> None:
        if not flows:
            raise ValueError("flows must be non-empty")
        if len(set(flows)) != len(flows):
            raise ValueError("flows must be distinct")
        if quantum_bytes < 64:
            raise ValueError("quantum_bytes must be >= one segment (64)")
        weights = list(weights) if weights is not None else [1.0] * len(flows)
        if len(weights) != len(flows):
            raise ValueError("weights must match flows")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        self.pqm = pqm
        self.flows = list(flows)
        self.weights = dict(zip(self.flows, weights))
        self.quantum_bytes = quantum_bytes
        self._deficit: Dict[int, float] = {f: 0.0 for f in flows}
        self._cursor = 0
        #: True when the cursor has just arrived at the current flow and
        #: its per-round quantum has not been granted yet.  Classic DRR
        #: grants the quantum once per round-robin *arrival*, not once
        #: per serve -- otherwise a flow could be refilled while parked.
        self._fresh_arrival = True
        self.bytes_served: Dict[int, int] = {f: 0 for f in flows}

    # -------------------------------------------------------------- serve

    def next_packet(self) -> Optional[DequeuedPacket]:
        """Dequeue the next packet per DRR; None when all queues empty."""
        n = len(self.flows)
        # a flow needing k quanta is served after k arrivals; bound the
        # scan generously (largest packet / smallest per-round credit)
        min_credit = self.quantum_bytes * min(self.weights.values())
        max_packet = self.pqm.num_segments * 64
        max_scans = n * (int(max_packet / min_credit) + 2)
        for _ in range(max_scans):
            flow = self.flows[self._cursor]
            if self.pqm.queued_packets(flow) == 0:
                self._deficit[flow] = 0.0  # no carryover while idle
                self._advance()
                if not any(self.pqm.queued_packets(f) for f in self.flows):
                    return None
                continue
            if self._fresh_arrival:
                self._deficit[flow] += self.quantum_bytes * self.weights[flow]
                self._fresh_arrival = False
            head_bytes = self._head_packet_bytes(flow)
            if self._deficit[flow] >= head_bytes:
                pkt = _dequeue_packet(self.pqm, flow)
                self._deficit[flow] -= pkt.length_bytes
                self.bytes_served[flow] += pkt.length_bytes
                if self.pqm.queued_packets(flow) == 0:
                    self._deficit[flow] = 0.0
                    self._advance()
                return pkt
            # head does not fit this round: deficit carries over
            self._advance()
        return None

    def drain_fair_shares(self, packets: int) -> Dict[int, int]:
        """Serve ``packets`` packets and report bytes per flow."""
        start = dict(self.bytes_served)
        for _ in range(packets):
            if self.next_packet() is None:
                break
        return {f: self.bytes_served[f] - start[f] for f in self.flows}

    # --------------------------------------------------------- internals

    def _head_packet_bytes(self, flow: int) -> int:
        """Byte size of the flow's head packet (hardware keeps this in
        the packet descriptor; the model reads the segment chain)."""
        packets = self.pqm.walk_packets(flow)
        return sum(self.pqm.segment_info(s).length for s in packets[0])

    def _advance(self) -> None:
        self._cursor = (self._cursor + 1) % len(self.flows)
        self._fresh_arrival = True
