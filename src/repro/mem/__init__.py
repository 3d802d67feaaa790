"""Memory subsystem models (paper Section 3).

The paper's DRAM analysis rests on four timing facts (its footnotes 1-2):

* a new 64-byte read/write access can be inserted every *access cycle* of
  40 ns (4 cycles of the 100 MHz DDR command clock),
* a bank that has been accessed is busy for 160 ns (4 access cycles),
* read data returns after 60 ns, writes complete after 40 ns,
* a write issued immediately after a read must be delayed one extra
  access cycle (data-bus turnaround).

:mod:`repro.mem.ddr` implements exactly that state machine;
:mod:`repro.mem.sched` implements the two front-end schedulers compared
in Table 1 (round-robin serializing vs reordering with per-port FIFOs and
last-3-access history); :mod:`repro.mem.patterns` generates the random
bank access patterns of the evaluation (the ZBT SRAM pointer memory is
:mod:`repro.queueing.pointer_memory`); :mod:`repro.mem.controller`
wraps the raw models behind the DES kernel for use inside the platform
models;
:mod:`repro.mem.fastpath` is the batched bank-state engine behind
``simulate_throughput_loss(engine="fast")`` -- bit-identical to the
reference drivers, an order of magnitude fewer Python operations.
"""

from repro.mem.timing import DDR_64B_ACCESS_BYTES, DdrTiming, ZbtTiming
from repro.mem.ddr import Access, DdrModel, MemOp
from repro.mem.patterns import (
    AccessPattern,
    hotspot_pattern,
    sequential_pattern,
    uniform_random_pattern,
)
from repro.mem.sched import (
    PortSpec,
    ScheduleResult,
    simulate_throughput_loss,
    run_reordering,
    run_serializing,
)
from repro.mem.fastpath import (
    fast_reordering,
    fast_serializing,
    fast_throughput_loss,
)
from repro.mem.controller import DdrController, MemRequest, SramController

__all__ = [
    "DdrTiming",
    "ZbtTiming",
    "DDR_64B_ACCESS_BYTES",
    "MemOp",
    "Access",
    "DdrModel",
    "AccessPattern",
    "uniform_random_pattern",
    "sequential_pattern",
    "hotspot_pattern",
    "PortSpec",
    "ScheduleResult",
    "run_serializing",
    "run_reordering",
    "simulate_throughput_loss",
    "fast_serializing",
    "fast_reordering",
    "fast_throughput_loss",
    "DdrController",
    "SramController",
    "MemRequest",
]
