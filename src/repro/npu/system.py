"""End-to-end DES model of the Figure 1 reference NPU.

Packet path: the Ethernet MAC writes arriving frames into the dual-port
BRAM (its own WishBone port -- no PLB cycles); the PowerPC queue manager
enqueues each frame into its flow queue (pointer ops on the ZBT through
the PLB EMC + segment copy into DDR), dequeues frames back into the BRAM
and the MAC transmits them.  CPU costs come from
:class:`repro.npu.microprograms.QueueSwModel` -- i.e. from Table 3 -- so
the sustainable end-to-end rate of this simulation *is* the Section 5.3
throughput claim, now with queues, drops and duplex interleaving instead
of a closed-form bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.net import Packet, TimedPacket
from repro.net.ethernet import packet_service_time_ps
from repro.npu.microprograms import CopyStrategy, QueueSwModel
from repro.npu.params import NpuParams
from repro.queueing import OutOfBuffersError, SegmentQueueManager
from repro.queueing.segment_queues import SegmentMeta
from repro.sim import Clock, Fifo, Simulator
from repro.sim.clock import SEC


@dataclass
class NpuRunResult:
    """Outcome of an end-to-end run."""

    offered_gbps: float
    strategy: CopyStrategy
    received: int
    forwarded: int
    dropped: int
    duration_ps: int

    @property
    def forwarded_gbps(self) -> float:
        if self.duration_ps == 0:
            return 0.0
        return self.forwarded * 512.0 * 1000 / self.duration_ps

    @property
    def drop_rate(self) -> float:
        if self.received == 0:
            return 0.0
        return self.dropped / self.received

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NpuRunResult(offered={self.offered_gbps} Gbps, "
            f"forwarded={self.forwarded_gbps:.3f} Gbps, "
            f"drops={self.drop_rate:.1%})"
        )


class ReferenceNpu:
    """The Figure 1 platform, runnable against a packet stream.

    Parameters
    ----------
    strategy:
        Segment copy strategy (Section 5.3 progression).
    num_queues / num_buffer_segments:
        Queue-manager configuration (DDR packet buffer capacity).
    bram_segments:
        Dual-port BRAM staging capacity per direction ("4 Kbytes Dual
        Port internal Block RAM" = 32 x 64 B each way).
    """

    def __init__(self, strategy: CopyStrategy = CopyStrategy.WORD,
                 num_queues: int = 16, num_buffer_segments: int = 1024,
                 bram_segments: int = 32,
                 params: NpuParams = NpuParams()) -> None:
        self.params = params
        self.strategy = strategy
        self.sim = Simulator()
        self.clock = Clock(params.cpu_clock_mhz)
        self.sw = QueueSwModel(params)
        self.queues = SegmentQueueManager(num_queues=num_queues,
                                          num_slots=num_buffer_segments)
        self.rx_bram = Fifo(self.sim, capacity=bram_segments, name="rx-bram")
        self.tx_bram = Fifo(self.sim, capacity=bram_segments, name="tx-bram")
        self.num_queues = num_queues
        self.received = 0
        self.dropped = 0
        self.forwarded = 0
        self._backlog = 0  # packets resident in DDR queues
        self._last_activity_ps = 0

    # -------------------------------------------------------------- parts

    def _rx_mac(self, stream: Iterator[TimedPacket], limit: int):
        """MAC receive: frames land in the RX BRAM or are dropped."""
        count = 0
        for tp in stream:
            if tp.arrival_ps > self.sim.now:
                yield tp.arrival_ps - self.sim.now
            self.received += 1
            if self.rx_bram.is_full:
                self.dropped += 1
            else:
                self.rx_bram.try_put(tp.packet)
            count += 1
            if count >= limit:
                return

    def _cpu(self):
        """PowerPC queue-manager loop: alternate ingress and egress."""
        cyc = self.clock.cycles_to_ps
        while True:
            worked = False
            if not self.rx_bram.is_empty:
                pkt: Packet = self.rx_bram.try_get()
                queue = pkt.flow_id % self.num_queues
                try:
                    head = None
                    for i, seg_len in enumerate(pkt.segment_lengths()):
                        eop = i == pkt.num_segments - 1
                        yield cyc(self.sw.enqueue_cycles(
                            self.strategy, first_segment=(i == 0)))
                        slot, _ = self.queues.enqueue(
                            queue,
                            SegmentMeta(eop=eop, length=seg_len, pid=pkt.pid,
                                        index=i),
                            packet_head_slot=head)
                        if head is None:
                            head = slot
                    self._backlog += 1
                except OutOfBuffersError:
                    self.dropped += 1
                worked = True
            if self._backlog and not self.tx_bram.is_full:
                queue = self._next_nonempty_queue()
                if queue is not None:
                    segs = []
                    while True:
                        yield cyc(self.sw.dequeue_cycles(self.strategy))
                        _slot, meta, _t = self.queues.dequeue(queue)
                        segs.append(meta)
                        if meta.eop:
                            break
                    self._backlog -= 1
                    self.tx_bram.try_put(segs[0].pid)
                    worked = True
            if not worked:
                yield cyc(8)  # idle poll of the MAC status registers

    def _next_nonempty_queue(self) -> Optional[int]:
        for q in range(self.num_queues):
            if not self.queues.is_empty(q):
                return q
        return None

    def _tx_mac(self, rate_gbps: float):
        """MAC transmit: drain the TX BRAM at line rate."""
        while True:
            _pid = yield from self.tx_bram.get()
            yield packet_service_time_ps(64, rate_gbps)
            self.forwarded += 1
            self._last_activity_ps = self.sim.now

    # ---------------------------------------------------------------- run

    def run(self, stream: Iterator[TimedPacket], offered_gbps: float,
            num_packets: int = 2000) -> NpuRunResult:
        """Feed ``num_packets`` from ``stream`` through the platform."""
        rx = self.sim.spawn(self._rx_mac(stream, num_packets), name="rx")
        self.sim.spawn(self._cpu(), name="cpu")
        self.sim.spawn(self._tx_mac(max(offered_gbps, 1.0)), name="tx")

        def watchdog():
            yield rx
            # give the pipeline time to drain
            while self._backlog or len(self.rx_bram) or len(self.tx_bram):
                yield 50_000_000  # 50 us

        w = self.sim.spawn(watchdog(), name="drain")
        limit = self.sim.now + 60 * SEC
        while not w.done and self.sim.now < limit:
            self.sim.run(until_ps=self.sim.now + SEC // 10, max_events=2_000_000)
        return NpuRunResult(
            offered_gbps=offered_gbps,
            strategy=self.strategy,
            received=self.received,
            forwarded=self.forwarded,
            dropped=self.dropped,
            duration_ps=self._last_activity_ps,
        )


def figure1_diagram() -> str:
    """ASCII rendering of Figure 1 (the reference NPU architecture)."""
    return """\
                 Figure 1: NPU core architecture (Virtex-II Pro)

      +-----------+          +----------------------+
      |  PowerPC  |--OCM-----| Instr/Data Mem 16KB  |
      |   405     |          +----------------------+
      +-----+-----+
            |
  ==========+=============== PLB 64-bit @ 100 MHz ==================
     |              |                |                   |
 +---+----+   +-----+------+   +-----+------+   +--------+-------+
 | PLB    |   | PLB DDR    |   | PLB EMC    |   | PLB-WB Bridge  |
 | BRAM   |   | Controller |   | (ZBT ctrl) |   +--------+-------+
 | Ctrl   |   +-----+------+   +-----+------+            | WB (control)
 +---+----+         |                |             +-----+------+
     |         +----+-----+    +-----+-----+       | MAC (MII)  |
 +---+-----+   |   DDR    |    | ZBT SRAM  |       +-----+------+
 | DP-BRAM |   |  SDRAM   |    | (pointers)|             | WB (data)
 | 4KB     |===| (packets)|    +-----------+       +-----+------+
 +---------+   +----------+                        |  DP-BRAM   |
                                                   +------------+
"""
