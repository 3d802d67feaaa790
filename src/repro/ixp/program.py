"""The per-packet queue-management program of the IXP1200 port.

Per 64-byte packet the microengine must: do RX/TX bookkeeping, pick a
non-empty queue (scheduler bitmap scan), enqueue the arriving packet
(free-list pop + queue link) and dequeue one for transmit (queue unlink +
free-list push).  The number of pointer-memory accesses is *derived* from
the real Section 5.2 structure (:class:`repro.queueing.SegmentQueueManager`),
not hard-coded: 3 (pop) + 4 (link) + 3 (unlink) + 4 (push) = 14 accesses
for single-segment packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.ixp.params import (
    BITMAP_QUEUES_PER_WORD,
    IxpParams,
    QueueRegime,
    regime_for_queues,
)
from repro.queueing import SegmentQueueManager
from repro.queueing.segment_queues import SegmentMeta
from repro.sim.clock import Clock

#: Default run length, in unloaded packet times per engine (enough for a
#: stable steady-state mean).
DEFAULT_PACKETS_PER_ENGINE = 400


@dataclass(frozen=True)
class PacketProgram:
    """Cost summary of processing one packet on one microengine."""

    num_queues: int
    regime: QueueRegime
    alu_cycles: int          # fixed instruction work incl. regime extra
    scan_words: int          # scheduler bitmap words tested
    memory_accesses: int     # pointer accesses to the regime's unit

    def unloaded_cycles(self, params: IxpParams) -> int:
        """Single-engine, zero-contention cycles per packet.

        This is the quantity behind the 1-microengine column of Table 2
        (rate = clock / unloaded_cycles when nothing else contends).
        """
        costs = params.costs_for(self.regime.unit)
        return (
            self.alu_cycles
            + self.scan_words * params.bitmap_word_cycles
            + self.memory_accesses * costs.blocking_cycles
        )


def derive_queue_op_access_count() -> int:
    """Pointer accesses of one enqueue + one dequeue of a single-segment
    packet, measured on the real data structure."""
    m = SegmentQueueManager(num_queues=2, num_slots=4)
    # steady state: the queue stays non-empty across the dequeue (the
    # drain-to-empty variant costs one extra tail write; Table 2 is
    # measured at saturation where queues are backlogged)
    m.enqueue(0, SegmentMeta(eop=True))
    slot, t_alloc = m.alloc()
    t_link = m.link_segment(0, slot, SegmentMeta(eop=True))
    slot2, _meta, t_unlink = m.unlink_segment(0)
    t_release = m.release(slot2)
    return len(t_alloc) + len(t_link) + len(t_unlink) + len(t_release)


def build_queue_program(num_queues: int,
                        params: IxpParams = IxpParams()) -> PacketProgram:
    """Assemble the per-packet program for a queue-count configuration."""
    regime = regime_for_queues(num_queues)
    accesses = derive_queue_op_access_count()
    scan_words = -(-num_queues // BITMAP_QUEUES_PER_WORD)
    return PacketProgram(
        num_queues=num_queues,
        regime=regime,
        alu_cycles=params.base_alu_cycles + regime.extra_alu_cycles,
        scan_words=scan_words,
        memory_accesses=accesses,
    )


class IxpTiming(NamedTuple):
    """One configuration's picosecond costs, shared by both IXP engines
    (:class:`~repro.ixp.machine.IxpMachine` and the kernel
    :class:`~repro.ixp.system.IxpSystem`) so the two cannot drift apart."""

    program: PacketProgram
    period_ps: int
    #: ALU + bitmap-scan work per packet
    work_ps: int
    #: controller occupancy of one access
    service_ps: int
    #: engine-side cost of one access after the controller is released
    overhead_ps: int
    #: context switch back onto the engine (multithreaded mode)
    ctx_ps: int
    #: blocking accesses per packet
    accesses: int
    #: ``run()`` length when no duration is given
    default_duration_ps: int


def ixp_timing(num_queues: int, num_engines: int,
               params: IxpParams) -> IxpTiming:
    """Validate ``num_engines`` and derive the configuration's costs."""
    if not 1 <= num_engines <= params.num_microengines:
        raise ValueError(
            f"num_engines must be in [1, {params.num_microengines}], "
            f"got {num_engines}"
        )
    program = build_queue_program(num_queues, params)
    clock = Clock(params.clock_mhz)
    costs = params.costs_for(program.regime.unit)
    return IxpTiming(
        program=program,
        period_ps=clock.period_ps,
        work_ps=clock.cycles_to_ps(
            program.alu_cycles
            + program.scan_words * params.bitmap_word_cycles),
        service_ps=clock.cycles_to_ps(costs.service_cycles),
        overhead_ps=clock.cycles_to_ps(costs.engine_overhead_cycles),
        ctx_ps=clock.cycles_to_ps(params.context_switch_cycles),
        accesses=program.memory_accesses,
        default_duration_ps=(clock.cycles_to_ps(program.unloaded_cycles(params))
                             * DEFAULT_PACKETS_PER_ENGINE),
    )
