"""The Section 5.2 software queue structure: segment-linked lists.

"We implemented queues of packets as single-linked lists.  The incoming
data items are partitioned into fixed size segments of 64 bytes each ...
A free-list keeps the free parts of the memory, at any given time, and a
queue-table contains the header of all the employed queues."

"Each segment function is analyzed into separate segment and free list
sub-operations" -- Table 3 prices those sub-operations individually, so
this manager exposes them individually too:

* :meth:`alloc` / :meth:`release` -- the free-list sub-operations
  ("Dequeue Free List" / "Enqueue Free List"),
* :meth:`link_segment` / :meth:`unlink_segment` -- the queue-list
  sub-operations ("Enqueue Segment" / "Dequeue Segment"),

with :meth:`enqueue` / :meth:`dequeue` composing them.  Each
sub-operation returns its ordered pointer-access trace; the platform
models price one PLB transaction per access (Section 5.3).

Pointer-word layout (one ZBT SRAM):

* ``next``   -- per segment slot: link + packed metadata (eop, length),
* ``qhead`` / ``qtail`` -- per queue; the tail word also carries the tail
  segment's metadata so that linking a new segment behind the tail is a
  single full-word write (no read-modify-write),
* ``globals`` -- free-list anchors.

The Table 3 footnote "*46 for the first segment of the packet, 68 for the
rest" is reproduced structurally: non-first segments additionally
accumulate the packet length into the packet's head-segment word (one
read-modify-write), which is how a dequeuing scheduler learns the packet
size without walking the chain.  Only the access is modelled, not the
accumulated value.

The manager carries no buffer-management policy: Section 5.2 prices
the structure one sub-operation at a time, and admission, drop and
push-out run on the MMS's two-level
:class:`~repro.queueing.packet_queues.PacketQueueManager`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.queueing.errors import QueueEmptyError
from repro.queueing.freelist import NIL, FreeList
from repro.queueing.pointer_memory import AccessRecord, PointerMemory

#: Bits of the ``next`` word used for the link; metadata sits above.
LINK_BITS = 24
LINK_MASK = (1 << LINK_BITS) - 1
EOP_BIT = 1 << LINK_BITS
LEN_SHIFT = LINK_BITS + 1


@dataclass(frozen=True)
class SegmentMeta:
    """Metadata carried in a segment's pointer word."""

    eop: bool = False
    length: int = 64

    def __post_init__(self) -> None:
        if not 1 <= self.length <= 64:
            raise ValueError(f"segment length must be in [1, 64], got {self.length}")


class SegmentQueueManager:
    """Flat single-linked segment queues with a shared free list."""

    def __init__(self, num_queues: int, num_slots: int) -> None:
        if num_queues < 1:
            raise ValueError(f"num_queues must be >= 1, got {num_queues}")
        if num_slots < 1:
            raise ValueError(f"num_slots must be >= 1, got {num_slots}")
        self.num_queues = num_queues
        self.num_slots = num_slots
        self.mem = PointerMemory()
        self.mem.add_region("next", num_slots)
        self.mem.add_region("qhead", num_queues)
        self.mem.add_region("qtail", num_queues)
        self.mem.add_region("globals", 2)
        self.mem.freeze()
        self.free = FreeList(self.mem, num_slots,
                             next_region="next", globals_region="globals")
        self.free.initialize()
        self.mem.reset_counters()  # initialization traffic is boot-time

    # ----------------------------------------------- free-list sub-ops

    def alloc(self) -> Tuple[int, List[AccessRecord]]:
        """'Dequeue Free List': allocate a slot for an incoming segment."""
        self.mem.start_trace()
        try:
            slot = self.free.pop()
        finally:
            trace = self.mem.end_trace()
        return slot, trace

    def release(self, slot: int) -> List[AccessRecord]:
        """'Enqueue Free List': return a slot after its data has left."""
        self.mem.start_trace()
        try:
            self.free.push(slot)
        finally:
            trace = self.mem.end_trace()
        return trace

    # ----------------------------------------------- queue-list sub-ops

    def link_segment(self, queue: int, slot: int, meta: SegmentMeta,
                     packet_head_slot: Optional[int] = None
                     ) -> List[AccessRecord]:
        """'Enqueue Segment': link an allocated slot at the queue tail.

        ``packet_head_slot`` must be given for every segment after the
        first of a packet: the packet's accumulated length is folded into
        the head segment's word (the extra read-modify-write behind the
        68- vs 46-cycle footnote of Table 3).
        """
        self._check_queue(queue)
        self._check_slot(slot)
        self.mem.start_trace()
        try:
            self.mem.write("next", slot, self._pack(NIL, meta))
            tail_word = self.mem.read("qtail", queue)
            if tail_word == NIL:
                self.mem.write("qhead", queue, self._enc(slot))
            else:
                tail_slot = self._dec(tail_word)
                tail_meta_bits = tail_word & ~LINK_MASK
                self.mem.write("next", tail_slot,
                               tail_meta_bits | self._enc(slot))
            self.mem.write("qtail", queue,
                           self._enc(slot) | self._meta_bits(meta))
            if packet_head_slot is not None:
                self._check_slot(packet_head_slot)
                # the head-word read-modify-write of the Table 3
                # footnote (see module docstring)
                head_word = self.mem.read("next", packet_head_slot)
                self.mem.write("next", packet_head_slot, head_word)
        finally:
            trace = self.mem.end_trace()
        return trace

    def unlink_segment(self, queue: int) -> Tuple[int, SegmentMeta, List[AccessRecord]]:
        """'Dequeue Segment': unlink the queue's head segment; its
        metadata is decoded from the pointer word."""
        self._check_queue(queue)
        self.mem.start_trace()
        try:
            head = self.mem.read("qhead", queue)
            if head == NIL:
                raise QueueEmptyError(f"queue {queue} is empty")
            slot = self._dec(head)
            word = self.mem.read("next", slot)
            nxt = word & LINK_MASK
            self.mem.write("qhead", queue, nxt)
            if nxt == NIL:
                self.mem.write("qtail", queue, NIL)
        finally:
            trace = self.mem.end_trace()
        meta = SegmentMeta(eop=bool(word & EOP_BIT),
                           length=(word >> LEN_SHIFT) + 1)
        return slot, meta, trace

    # ------------------------------------------------- composed segment ops

    def enqueue(self, queue: int, meta: SegmentMeta = SegmentMeta(),
                packet_head_slot: Optional[int] = None
                ) -> Tuple[int, List[AccessRecord]]:
        """Full enqueue: free-list pop, then queue linking.

        Returns ``(slot, combined_access_trace)``.
        """
        slot, t1 = self.alloc()
        t2 = self.link_segment(queue, slot, meta, packet_head_slot)
        return slot, t1 + t2

    def dequeue(self, queue: int) -> Tuple[int, SegmentMeta, List[AccessRecord]]:
        """Full dequeue: queue unlinking, then free-list push."""
        slot, meta, t1 = self.unlink_segment(queue)
        t2 = self.release(slot)
        return slot, meta, t1 + t2

    # --------------------------------------------------------- internals

    @staticmethod
    def _enc(slot: int) -> int:
        return slot + 1

    @staticmethod
    def _dec(word: int) -> int:
        return (word & LINK_MASK) - 1

    @staticmethod
    def _meta_bits(meta: SegmentMeta) -> int:
        bits = (meta.length - 1) << LEN_SHIFT
        if meta.eop:
            bits |= EOP_BIT
        return bits

    @classmethod
    def _pack(cls, link: int, meta: SegmentMeta) -> int:
        return (link & LINK_MASK) | cls._meta_bits(meta)

    def _check_queue(self, queue: int) -> None:
        if not 0 <= queue < self.num_queues:
            raise ValueError(f"queue {queue} out of range [0, {self.num_queues})")

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.num_slots:
            raise ValueError(f"slot {slot} out of range [0, {self.num_slots})")
