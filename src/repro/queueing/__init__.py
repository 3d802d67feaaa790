"""Queue data structures shared by every system in the paper.

Section 5.2 describes the structure both software platforms implement:
single-linked lists of 64-byte segments, a free list of buffer slots and
a queue table holding the head/tail of every queue.  The MMS additionally
needs O(1) *packet* operations (move a packet to a new queue in 11
cycles), which requires a two-level structure: queues link packet
descriptors, descriptors link segment chains.  Hence two managers:

* :class:`~repro.queueing.segment_queues.SegmentQueueManager` -- the flat
  Section 5.2 structure (used by the IXP1200 and PowerPC models),
* :class:`~repro.queueing.packet_queues.PacketQueueManager` -- the
  two-level structure executed by the MMS Data Queue Manager.

Both run on a :class:`~repro.queueing.pointer_memory.PointerMemory`,
which counts and (optionally) traces every pointer-SRAM access.  Platform
models turn those traces into cycles: the PowerPC pays a PLB transaction
per access, the MMS pays one pipelined SRAM cycle.

The packet manager optionally carries a buffer-management policy
(:mod:`repro.policies`): its ``admit_enqueue`` entry point turns
enqueue-on-full into an accept / drop / push-out decision (returning a
:class:`~repro.policies.DroppedSegment` marker on drops) instead of an
uncaught :class:`OutOfBuffersError`.  The flat segment manager carries
none: it models the Section 5.2 sub-operations that Tables 2-3 price.
"""

from repro.policies.base import DroppedSegment
from repro.queueing.pointer_memory import AccessRecord, PointerMemory, Region
from repro.queueing.freelist import FreeList, OutOfBuffersError
from repro.queueing.segment_queues import SegmentQueueManager
from repro.queueing.packet_queues import PacketQueueManager, QueueEmptyError

__all__ = [
    "PointerMemory",
    "Region",
    "AccessRecord",
    "DroppedSegment",
    "FreeList",
    "OutOfBuffersError",
    "SegmentQueueManager",
    "PacketQueueManager",
    "QueueEmptyError",
]
