"""IXP1200 network-processor model (paper Section 4, Table 2).

The paper ports queue management onto the Intel IXP1200's six RISC
microengines (200 MHz) and measures the sustainable packet rate as a
function of the number of queues: with few queues all state fits in the
on-chip scratchpad and registers; more queues force external SRAM and
eventually SDRAM accesses, and the shared memory controllers saturate
when all six engines hammer them.

The model here is a *cost-model simulator*: each packet executes a
queue-management program whose memory accesses are derived from the real
Section 5.2 data structures (:mod:`repro.queueing`) and priced by where
the queue state lives.  Contention on the shared controllers is simulated
as a closed loop -- the 6-engine columns of Table 2 come out of queueing
for the controllers, not out of a fitted constant.  :class:`IxpSystem`
writes that loop as DES-kernel processes (the reference);
:class:`IxpMachine` replays it without a kernel (the default fast
path).  See DESIGN.md "Calibration notes" for which constants are
calibrated and to which published cell.
"""

from repro.ixp.params import IxpParams, MemoryCosts, QueueRegime, regime_for_queues
from repro.ixp.memory_units import SharedMemoryUnit
from repro.ixp.program import PacketProgram, build_queue_program
from repro.ixp.machine import IxpMachine, IxpSimResult
from repro.ixp.system import IxpSystem, simulate_ixp

__all__ = [
    "IxpParams",
    "MemoryCosts",
    "QueueRegime",
    "regime_for_queues",
    "SharedMemoryUnit",
    "PacketProgram",
    "build_queue_program",
    "IxpMachine",
    "IxpSystem",
    "IxpSimResult",
    "simulate_ixp",
]
