"""repro: behavioral reproduction of "Queue Management in Network
Processors" (Papaefstathiou et al., DATE 2005).

Subpackages
-----------
``repro.sim``
    Discrete-event simulation kernel (picosecond events, processes,
    clock domains, FIFOs, resources, statistics).
``repro.mem``
    Memory substrate: DDR bank-timing model, ZBT SRAM, the Table 1
    access schedulers, DES-integrated controllers.
``repro.net``
    Packets and Ethernet line-rate arithmetic.
``repro.queueing``
    The paper's queue data structures over traced pointer memory.
``repro.ixp``
    IXP1200 software-queue-management model (Table 2).
``repro.npu``
    The Figure 1 reference NPU drawing and its Table 3 cost model.
``repro.core``
    The contribution: the MMS hardware queue manager (Figure 2,
    Tables 4 and 5), with QoS egress schedulers over its flow queues.
``repro.analysis``
    Experiment drivers regenerating every published table and figure.

Quick start::

    from repro.core import MMS, MmsConfig, Command, CommandType
    mms = MMS(MmsConfig(num_flows=64, num_segments=1024,
                        num_descriptors=512))
    mms.apply(Command(type=CommandType.ENQUEUE, flow=3, eop=True))
    info = mms.apply(Command(type=CommandType.DEQUEUE, flow=3))
"""

__version__ = "1.0.0"

__all__ = [
    "sim",
    "mem",
    "net",
    "queueing",
    "ixp",
    "npu",
    "core",
    "analysis",
]
