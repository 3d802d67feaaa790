"""Reference NPU platform model (paper Section 5, Figure 1, Table 3).

The paper's authors built a "typical reference NPU" on a Xilinx
Virtex-II Pro: a PowerPC 405 (100 MHz) on a 64-bit PLB bus with OCM
instruction/data memories, an external DDR DRAM for packet data (PLB DDR
controller), an external ZBT SRAM for pointers (PLB EMC), and an Ethernet
MAC staging packets through a dual-port BRAM.  Queue management runs in
software on the PowerPC; Table 3 prices each sub-operation in cycles.

This package prices queue management on that platform:

* :mod:`repro.npu.params` -- PLB/DMA timing parameters,
* :mod:`repro.npu.microprograms` -- the queue-manager microprograms,
  priced from the real :mod:`repro.queueing` access traces plus
  documented instruction overheads (Table 3, and the Section 5.3
  line-transaction and DMA improvements),
* :mod:`repro.npu.system` -- the Figure 1 architecture drawing.
"""

from repro.npu.params import DmaTiming, NpuParams, PlbTiming
from repro.npu.microprograms import (
    CopyStrategy,
    OpCost,
    QueueSwModel,
    Table3Row,
)
from repro.npu.system import figure1_diagram

__all__ = [
    "PlbTiming",
    "DmaTiming",
    "NpuParams",
    "OpCost",
    "CopyStrategy",
    "QueueSwModel",
    "Table3Row",
    "figure1_diagram",
]
