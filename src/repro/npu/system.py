"""Figure 1: the reference NPU platform the software queue manager runs on.

The platform's throughput is priced in closed form from Table 3 by
:class:`repro.npu.microprograms.QueueSwModel` (the Section 5.3 claims);
this module keeps the architecture drawing.
"""

from __future__ import annotations


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
