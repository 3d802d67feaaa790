"""The MMS queue structure: per-flow queues of packets over segment chains.

The MMS command set (Section 6) includes O(1) *packet* operations --
"Move a packet to a new queue" runs in 11 cycles on 32 K flows -- which a
flat segment list cannot provide.  The ZBT stores "segment and packet
pointers": a two-level structure.

Pointer-word layout (one ZBT SRAM, wide words):

* ``seg_next`` -- per segment slot: link to the next segment of the same
  packet (or free-list link), with end-of-packet and length packed above
  the link field,
* ``desc``     -- per packet descriptor: ``(first_seg, last_seg,
  next_packet)`` in one wide word; freed descriptors thread the
  descriptor free list through this same region,
* ``queue_a``  -- per flow: ``(head_packet, tail_packet)``,
* ``queue_b``  -- per flow: descriptor of the packet currently being
  assembled (the *open* packet, filled segment-by-segment by the
  Segmentation block and published to the queue on end-of-packet).

Invariants the structure maintains (tested property-style):

* only the last segment of a packet may be shorter than 64 bytes,
* a packet is visible to dequeue/move/delete only after its EOP segment
  arrived,
* free counts + queued counts + open counts == total slots,
* per-flow packet order is FIFO; segment order within a packet is
  arrival order.

Every operation returns its ordered pointer-access trace.  The MMS prices
one pipelined SRAM cycle per access (see :mod:`repro.core.microcode`,
which cross-checks its schedules against these traces).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple, Union

from repro.policies.base import BufferPolicy, DroppedSegment
from repro.queueing.errors import QueueEmptyError
from repro.queueing.freelist import NIL, FreeList
from repro.queueing.pointer_memory import AccessRecord, PointerMemory

#: Field width used for every link in packed words.
LINK_BITS = 24
LINK_MASK = (1 << LINK_BITS) - 1
EOP_BIT = 1 << LINK_BITS
LEN_SHIFT = LINK_BITS + 1
SEGMENT_BYTES = 64
#: Packed length/EOP bits of a full non-EOP segment (hot-path constant).
_FULL_MID_SEG = (SEGMENT_BYTES - 1) << LEN_SHIFT
#: Mask of a descriptor word's (first, last) fields.
_DESC_LOW2 = (1 << (2 * LINK_BITS)) - 1


class SegmentInfo(NamedTuple):
    """Decoded segment word + shadow identity.

    A ``NamedTuple`` rather than a frozen dataclass: one is built per
    enqueue (shadow) and per head lookup, so construction cost is on
    the per-command hot path of every engine.
    """

    slot: int
    eop: bool
    length: int
    pid: int = -1
    index: int = 0


class PacketQueueManager:
    """Two-level (packet / segment) per-flow queues -- the MMS structure."""

    def __init__(self, num_flows: int, num_segments: int,
                 num_descriptors: Optional[int] = None,
                 policy: Optional[BufferPolicy] = None) -> None:
        if num_flows < 1:
            raise ValueError(f"num_flows must be >= 1, got {num_flows}")
        if num_segments < 1:
            raise ValueError(f"num_segments must be >= 1, got {num_segments}")
        self.num_flows = num_flows
        self.num_segments = num_segments
        self.num_descriptors = num_descriptors or num_segments
        self.mem = PointerMemory()
        self.mem.add_region("seg_next", num_segments)
        self.mem.add_region("desc", self.num_descriptors)
        self.mem.add_region("queue_a", num_flows)
        self.mem.add_region("queue_b", num_flows)
        self.mem.freeze()
        # Hardware keeps the free-list anchors in registers: consulting
        # them costs no SRAM access.
        self.seg_free = FreeList(self.mem, num_segments,
                                 anchors_in_memory=False,
                                 next_region="seg_next",
                                 link_mask=LINK_MASK)
        self.desc_free = FreeList(self.mem, self.num_descriptors,
                                  anchors_in_memory=False,
                                  next_region="desc",
                                  link_mask=LINK_MASK)
        self.seg_free.initialize()
        self.desc_free.initialize()
        #: Optional buffer-management policy; when set, arrivals go
        #: through :meth:`admit_enqueue` and overload becomes a
        #: drop/push-out decision instead of an OutOfBuffersError.
        self.policy = policy
        # Shadow state for verification only (no SRAM accesses).
        self._seg_shadow: Dict[int, SegmentInfo] = {}
        self._open_segments: Dict[int, int] = {}   # flow -> count in open pkt
        self._queued_packets = [0] * num_flows
        self._queued_segments = [0] * num_flows
        self.mem.reset_counters()

    # ================================================== segment commands

    def enqueue_segment(self, flow: int, eop: bool, length: int = SEGMENT_BYTES,
                        pid: int = -1, index: int = 0
                        ) -> Tuple[int, List[AccessRecord]]:
        """MMS *Enqueue one segment* into ``flow``'s open packet.

        Non-EOP segments must be full (only the last segment of a packet
        may be short).  On EOP the packet is published to the flow queue.
        Returns ``(slot, trace)``.
        """
        self._check_flow(flow)
        if not 1 <= length <= SEGMENT_BYTES:
            raise ValueError(f"length must be in [1, {SEGMENT_BYTES}], got {length}")
        if not eop and length != SEGMENT_BYTES:
            raise ValueError("only the EOP segment may be shorter than 64 bytes")
        # The pack/unpack helpers are inlined below (this is the
        # hottest data-structure operation in the repository); the field
        # layout is exactly _pack_seg/_pack_desc's.
        mem = self.mem
        mem.start_trace()
        try:
            slot = self.seg_free.pop()
            seg_word = (length - 1) << LEN_SHIFT
            if eop:
                seg_word |= EOP_BIT
            open_word = mem.read("queue_b", flow)
            if open_word == NIL:
                d = self.desc_free.pop()
                mem.write("desc", d, (slot + 1) | ((slot + 1) << LINK_BITS))
                mem.write("seg_next", slot, seg_word)
                if not eop:
                    mem.write("queue_b", flow, d + 1)
                else:
                    self._publish(flow, d)
            else:
                d = open_word - 1
                dword = mem.read("desc", d)
                last = ((dword >> LINK_BITS) & LINK_MASK) - 1
                # the old last segment is mid-packet: full 64B, non-EOP --
                # its word is fully known, so the link is one plain write
                mem.write("seg_next", last, (slot + 1) | _FULL_MID_SEG)
                mem.write("seg_next", slot, seg_word)
                mem.write("desc", d,
                          (dword & LINK_MASK)
                          | ((slot + 1) << LINK_BITS)
                          | (dword & ~_DESC_LOW2))
                if eop:
                    self._publish(flow, d)
                    mem.write("queue_b", flow, NIL)
        finally:
            trace = mem.end_trace()
        self._seg_shadow[slot] = SegmentInfo(slot, eop, length, pid, index)
        if eop:
            self._queued_segments[flow] += self._open_segments.pop(flow, 0) + 1
            self._queued_packets[flow] += 1
        else:
            self._open_segments[flow] = self._open_segments.get(flow, 0) + 1
        if self.policy is not None:
            self.policy.note_enqueue(flow, length)
        return slot, trace

    def admit_enqueue(self, flow: int, eop: bool, length: int = SEGMENT_BYTES,
                      pid: int = -1, index: int = 0
                      ) -> Tuple[Union[int, DroppedSegment], List[AccessRecord]]:
        """Policy-governed *Enqueue one segment*.

        With no policy installed this is :meth:`enqueue_segment` (which
        raises :class:`OutOfBuffersError` on exhaustion).  With a policy,
        the arrival is offered to it first: ``accept`` enqueues,
        ``drop`` returns a :class:`DroppedSegment` marker (no pointer
        traffic -- the segment never entered the structure), and
        ``pushout`` evicts the victim queue's tail packet via
        :meth:`drop_tail_packet` before re-consulting the policy.
        """
        if self.policy is None:
            return self.enqueue_segment(flow, eop, length, pid, index)
        self._check_flow(flow)
        reason = self._admit(flow, length, needs_desc_check=True)
        if reason is not None:
            self.policy.record_drop(flow, length, reason)
            return DroppedSegment(flow, length, reason), []
        slot, trace = self.enqueue_segment(flow, eop, length, pid, index)
        self.policy.record_accept(flow, length)
        return slot, trace

    def _admit(self, flow: int, length: int, needs_desc_check: bool,
               protect: Tuple[int, ...] = ()) -> Optional[str]:
        """Run the policy admission loop for one arriving buffer.

        Performs any push-outs the policy asks for; returns None on
        accept or the drop reason.  ``protect`` names flows that must
        not be pushed out (an append's target packet would otherwise be
        evicted from under the operation).
        """
        # Uncongested fast path: when no descriptor shortage is possible
        # the policy may accept from its occupancy books alone, skipping
        # the open-packet probe, the exclusion-set build and the full
        # decide() call (RED always declines -- its filter and RNG must
        # advance per offered segment).
        if (not needs_desc_check or self.desc_free.free_count > 0) \
                and self.policy.admit_fast(flow, length):
            return None
        excluded: Set[int] = set(protect)
        while True:
            # a segment starting a new packet also needs a descriptor;
            # descriptor exhaustion is a buffer-full situation the
            # policy must resolve (push-out frees one) or reject
            needs_desc = (needs_desc_check
                          and self.mem.peek("queue_b", flow) == NIL)
            desc_blocked = needs_desc and self.desc_free.free_count == 0
            decision = self.policy.admit(flow, length,
                                         exclude=frozenset(excluded),
                                         blocked=desc_blocked)
            if decision.action == "accept":
                return None
            if decision.action == "drop":
                return decision.reason
            victim = decision.victim
            if self._queued_packets[victim] == 0:
                # nothing published to evict (only open/in-assembly
                # segments) -- tell the policy to look elsewhere
                excluded.add(victim)
                continue
            nsegs, nbytes, _trace = self.drop_tail_packet(victim)
            self.policy.record_pushout(victim, nsegs, nbytes,
                                       decision.reason)

    def dequeue_segment(self, flow: int) -> Tuple[SegmentInfo, List[AccessRecord]]:
        """MMS *Dequeue*: remove and free the head segment of the head
        packet; unlinks the packet descriptor on its last segment."""
        self._check_flow(flow)
        self.mem.start_trace()
        try:
            info, _slot = self._take_head_segment(flow, free_slot=True)
        finally:
            trace = self.mem.end_trace()
        return info, trace

    def delete_segment(self, flow: int) -> Tuple[SegmentInfo, List[AccessRecord]]:
        """MMS *Delete one segment*: same unlinking as dequeue, but no
        data-memory access is ever generated for it."""
        self._check_flow(flow)
        self.mem.start_trace()
        try:
            info, _slot = self._take_head_segment(flow, free_slot=True)
        finally:
            trace = self.mem.end_trace()
        return info, trace

    def read_segment(self, flow: int) -> Tuple[SegmentInfo, List[AccessRecord]]:
        """MMS *Read*: resolve the head segment (for the data address)
        without modifying the queue."""
        self._check_flow(flow)
        self.mem.start_trace()
        try:
            d = self._head_desc(flow)
            first, _last, _nxt = self._unpack_desc(self.mem.read("desc", d))
            word = self.mem.read("seg_next", first)
        finally:
            trace = self.mem.end_trace()
        return self._decode_seg(first, word), trace

    def overwrite_segment(self, flow: int) -> Tuple[SegmentInfo, List[AccessRecord]]:
        """MMS *Overwrite a segment*: resolve the head segment's slot so
        the DMC can overwrite its data in place (pointer side is
        read-only -- metadata unchanged)."""
        return self.read_segment(flow)

    def overwrite_segment_length(self, flow: int, new_length: int
                                 ) -> Tuple[SegmentInfo, List[AccessRecord]]:
        """MMS *Overwrite_Segment_length*: rewrite the head segment's
        length field (header shrink/grow after modification)."""
        self._check_flow(flow)
        if not 1 <= new_length <= SEGMENT_BYTES:
            raise ValueError(
                f"new_length must be in [1, {SEGMENT_BYTES}], got {new_length}"
            )
        self.mem.start_trace()
        try:
            d = self._head_desc(flow)
            first, _last, _nxt = self._unpack_desc(self.mem.read("desc", d))
            word = self.mem.read("seg_next", first)
            info = self._decode_seg(first, word)
            if not info.eop and new_length != SEGMENT_BYTES:
                raise ValueError("only the EOP segment may be shorter than 64 bytes")
            self.mem.write("seg_next", first,
                           self._pack_seg(word & LINK_MASK, info.eop, new_length))
        finally:
            trace = self.mem.end_trace()
        new_info = SegmentInfo(first, info.eop, new_length, info.pid, info.index)
        self._seg_shadow[first] = new_info
        if self.policy is not None:
            # in-place resize: byte occupancy delta, no segment change
            self.policy.note_release(flow, info.length - new_length, 0)
        return new_info, trace

    # ==================================================== packet commands

    def move_packet(self, src_flow: int, dst_flow: int) -> List[AccessRecord]:
        """MMS *Move a packet to a new queue*: relink the head packet of
        ``src_flow`` to the tail of ``dst_flow`` in O(1)."""
        self._check_flow(src_flow)
        self._check_flow(dst_flow)
        if src_flow == dst_flow:
            raise ValueError("move_packet requires distinct queues")
        self.mem.start_trace()
        try:
            d = self._unlink_head_packet(src_flow)
            self._append_packet(dst_flow, d)
        finally:
            trace = self.mem.end_trace()
        nsegs, nbytes = self._packet_segments_and_bytes(d)
        self._queued_packets[src_flow] -= 1
        self._queued_packets[dst_flow] += 1
        self._queued_segments[src_flow] -= nsegs
        self._queued_segments[dst_flow] += nsegs
        if self.policy is not None:
            self.policy.note_move(src_flow, dst_flow, nbytes, nsegs)
        return trace

    def delete_packet(self, flow: int) -> List[AccessRecord]:
        """MMS *Delete a full packet*: unlink the head packet and splice
        its whole segment chain onto the free list in O(1)."""
        self._check_flow(flow)
        nsegs = nbytes = None
        self.mem.start_trace()
        try:
            qa = self.mem.read("queue_a", flow)
            head_d, tail_d = self._unpack_qa(qa)
            if head_d == NIL:
                raise QueueEmptyError(f"flow {flow} has no queued packet")
            d = self._dec(head_d)
            first, last, nxt = self._unpack_desc(self.mem.read("desc", d))
            new_head = nxt
            new_tail = tail_d if nxt != NIL else NIL
            self.mem.write("queue_a", flow, self._pack_qa_raw(new_head, new_tail))
            nsegs, nbytes = self._packet_segments_and_bytes(d)
            self.seg_free.push_chain(first, last, nsegs)
            self._free_desc(d)
        finally:
            trace = self.mem.end_trace()
        self._queued_packets[flow] -= 1
        self._queued_segments[flow] -= nsegs
        if self.policy is not None:
            self.policy.note_release(flow, nbytes, nsegs)
        return trace

    def drop_tail_packet(self, flow: int
                         ) -> Tuple[int, int, List[AccessRecord]]:
        """Push out ``flow``'s *tail* packet (the LQD eviction unit).

        Unlinks the most recently published packet and splices its
        segment chain onto the free list.  The head -- the packet about
        to be serviced -- survives whenever the victim holds more than
        one packet; with a single published packet tail == head and
        that packet is the only thing there is to evict.  The
        descriptor chain is
        forward-linked only, so finding the tail's predecessor walks the
        queue (shadow ``peek``s; the counted traffic is the unlink
        itself).  Returns ``(segments, bytes, trace)`` freed.

        Occupancy bookkeeping is the *caller's* duty (the admit path
        records it via :meth:`BufferPolicy.record_pushout`).
        """
        self._check_flow(flow)
        self.mem.start_trace()
        try:
            qa = self.mem.read("queue_a", flow)
            head_d, tail_d = self._unpack_qa(qa)
            if head_d == NIL:
                raise QueueEmptyError(f"flow {flow} has no queued packet")
            t = self._dec(tail_d)
            if head_d == tail_d:
                self.mem.write("queue_a", flow, self._pack_qa_raw(NIL, NIL))
            else:
                pred = self._dec(head_d)
                while True:
                    pf, pl, pn = self._unpack_desc(self.mem.peek("desc", pred))
                    if pn == tail_d:
                        break
                    pred = self._dec(pn)
                self.mem.write("desc", pred, self._pack_desc(pf, pl, NIL))
                self.mem.write("queue_a", flow,
                               self._pack_qa_raw(head_d, self._enc(pred)))
            first, last, _nxt = self._unpack_desc(self.mem.read("desc", t))
            nsegs, nbytes = self._packet_segments_and_bytes(t)
            self.seg_free.push_chain(first, last, nsegs)
            self._free_desc(t)
        finally:
            trace = self.mem.end_trace()
        self._drop_segment_shadows(first, last)
        self._queued_packets[flow] -= 1
        self._queued_segments[flow] -= nsegs
        return nsegs, nbytes, trace

    # ============================================== combination commands

    def overwrite_length_and_move(self, src_flow: int, dst_flow: int,
                                  new_length: int) -> List[AccessRecord]:
        """MMS *Overwrite_Segment_length&Move* -- one command, one pass."""
        self._check_flow(src_flow)
        self._check_flow(dst_flow)
        if src_flow == dst_flow:
            raise ValueError("move requires distinct queues")
        if not 1 <= new_length <= SEGMENT_BYTES:
            raise ValueError(
                f"new_length must be in [1, {SEGMENT_BYTES}], got {new_length}"
            )
        self.mem.start_trace()
        try:
            d = self._unlink_head_packet(src_flow)
            first, _last, _nxt = self._unpack_desc(self.mem.peek("desc", d))
            word = self.mem.read("seg_next", first)
            info = self._decode_seg(first, word)
            if not info.eop and new_length != SEGMENT_BYTES:
                raise ValueError("only the EOP segment may be shorter than 64 bytes")
            self.mem.write("seg_next", first,
                           self._pack_seg(word & LINK_MASK, info.eop, new_length))
            self._append_packet(dst_flow, d)
        finally:
            trace = self.mem.end_trace()
        old_length = info.length
        self._seg_shadow[first] = SegmentInfo(first, info.eop, new_length,
                                              info.pid, info.index)
        nsegs, nbytes = self._packet_segments_and_bytes(d)
        self._queued_packets[src_flow] -= 1
        self._queued_packets[dst_flow] += 1
        self._queued_segments[src_flow] -= nsegs
        self._queued_segments[dst_flow] += nsegs
        if self.policy is not None:
            # the byte total left src with the *old* head-segment length
            self.policy.note_move(src_flow, dst_flow,
                                  nbytes - new_length + old_length, nsegs)
            self.policy.note_release(dst_flow, old_length - new_length, 0)
        return trace

    def overwrite_and_move(self, src_flow: int, dst_flow: int
                           ) -> Tuple[SegmentInfo, List[AccessRecord]]:
        """MMS *Overwrite_Segment&Move*: resolve the head segment's data
        address (for the DMC overwrite) and move the packet, one pass."""
        self._check_flow(src_flow)
        self._check_flow(dst_flow)
        if src_flow == dst_flow:
            raise ValueError("move requires distinct queues")
        self.mem.start_trace()
        try:
            d = self._unlink_head_packet(src_flow)
            first, _last, _nxt = self._unpack_desc(self.mem.peek("desc", d))
            word = self.mem.read("seg_next", first)
            self._append_packet(dst_flow, d)
        finally:
            trace = self.mem.end_trace()
        nsegs, nbytes = self._packet_segments_and_bytes(d)
        self._queued_packets[src_flow] -= 1
        self._queued_packets[dst_flow] += 1
        self._queued_segments[src_flow] -= nsegs
        self._queued_segments[dst_flow] += nsegs
        if self.policy is not None:
            self.policy.note_move(src_flow, dst_flow, nbytes, nsegs)
        return self._decode_seg(first, word), trace

    # ======================================================= append ops

    def append_head(self, flow: int, pid: int = -1
                    ) -> Tuple[Union[int, DroppedSegment], List[AccessRecord]]:
        """MMS *Append a segment at the head of a packet* (prepend a
        header segment to the head packet, e.g. encapsulation).

        The prepended segment is always a full 64 bytes: it becomes a
        non-last segment, and only the last segment of a packet may be
        short (real encapsulation headers are padded into the segment).
        With a policy installed the new buffer goes through admission
        like any arrival (``flow`` itself is protected from push-out --
        the target packet must survive the operation); a rejected
        append returns a :class:`DroppedSegment` marker.
        """
        self._check_flow(flow)
        if self.policy is not None:
            # preconditions first: admission has side effects (push-outs,
            # stats) that must not happen for an operation that raises
            if self._unpack_qa(self.mem.peek("queue_a", flow))[0] == NIL:
                raise QueueEmptyError(f"flow {flow} has no queued packet")
            reason = self._admit(flow, SEGMENT_BYTES, needs_desc_check=False,
                                 protect=(flow,))
            if reason is not None:
                self.policy.record_drop(flow, SEGMENT_BYTES, reason)
                return DroppedSegment(flow, SEGMENT_BYTES, reason), []
        self.mem.start_trace()
        try:
            slot = self.seg_free.pop()
            d = self._head_desc(flow)
            first, last, nxt = self._unpack_desc(self.mem.read("desc", d))
            self.mem.write("seg_next", slot,
                           self._pack_seg(self._enc(first), False, SEGMENT_BYTES))
            self.mem.write("desc", d, self._pack_desc(slot, last, nxt))
        finally:
            trace = self.mem.end_trace()
        self._seg_shadow[slot] = SegmentInfo(slot, False, SEGMENT_BYTES, pid, -1)
        self._queued_segments[flow] += 1
        if self.policy is not None:
            self.policy.note_enqueue(flow, SEGMENT_BYTES)
            self.policy.record_accept(flow, SEGMENT_BYTES)
        return slot, trace

    def append_tail(self, flow: int, length: int = SEGMENT_BYTES, pid: int = -1
                    ) -> Tuple[Union[int, DroppedSegment], List[AccessRecord]]:
        """MMS *Append a segment at the tail of a packet* (trailer).

        Policy-governed like :meth:`append_head`."""
        self._check_flow(flow)
        if not 1 <= length <= SEGMENT_BYTES:
            raise ValueError(f"length must be in [1, {SEGMENT_BYTES}], got {length}")
        if self.policy is not None:
            # preconditions first (see append_head): a raising append
            # must not have pushed out an innocent packet or touched
            # the stats
            head_enc = self._unpack_qa(self.mem.peek("queue_a", flow))[0]
            if head_enc == NIL:
                raise QueueEmptyError(f"flow {flow} has no queued packet")
            _f, last_slot, _n = self._unpack_desc(
                self.mem.peek("desc", self._dec(head_enc)))
            last_len = (self.mem.peek("seg_next", last_slot) >> LEN_SHIFT) + 1
            if last_len != SEGMENT_BYTES:
                raise ValueError(
                    "cannot append behind a short last segment "
                    f"(length {last_len})"
                )
            reason = self._admit(flow, length, needs_desc_check=False,
                                 protect=(flow,))
            if reason is not None:
                self.policy.record_drop(flow, length, reason)
                return DroppedSegment(flow, length, reason), []
        self.mem.start_trace()
        try:
            slot = self.seg_free.pop()
            d = self._head_desc(flow)
            first, last, nxt = self._unpack_desc(self.mem.read("desc", d))
            old_word = self.mem.read("seg_next", last)
            old = self._decode_seg(last, old_word)
            if old.length != SEGMENT_BYTES:
                # a short mid-packet segment would break the structure
                # invariant; callers must overwrite-length to 64 first
                raise ValueError(
                    "cannot append behind a short last segment "
                    f"(length {old.length})"
                )
            # the old last segment loses EOP
            self.mem.write("seg_next", last,
                           self._pack_seg(self._enc(slot), False, old.length))
            self.mem.write("seg_next", slot, self._pack_seg(NIL, True, length))
            self.mem.write("desc", d, self._pack_desc(first, slot, nxt))
        finally:
            trace = self.mem.end_trace()
        self._seg_shadow[last] = SegmentInfo(last, False, SEGMENT_BYTES,
                                             old.pid, old.index)
        self._seg_shadow[slot] = SegmentInfo(slot, True, length, pid, -1)
        self._queued_segments[flow] += 1
        if self.policy is not None:
            self.policy.note_enqueue(flow, length)
            self.policy.record_accept(flow, length)
        return slot, trace

    # ======================================================== bulk ops

    def bulk_prefill(self, flows: Iterable[int], packets_per_flow: int,
                     segments_per_packet: int = 1) -> int:
        """Bulk analog of the MMS prefill loop (state- and
        counter-identical to repeated :meth:`enqueue_segment` calls with
        ``pid=-2``, the steady-state backlog setup of the load
        experiments).

        The closed form covers the prefill pattern itself --
        single-segment packets into fresh flow queues -- allocating all
        buffers with one :meth:`FreeList.reserve` walk and writing the
        final pointer words through the bulk memory path; anything else
        falls back to the per-segment loop.  Identity against the loop
        is asserted by ``tests/queueing/test_bulk_prefill.py``.
        """
        flow_list = list(flows)
        ppf = packets_per_flow
        if (segments_per_packet != 1 or ppf < 1
                or len(set(flow_list)) != len(flow_list)
                or any(not 0 <= f < self.num_flows for f in flow_list)
                or any(self._queued_packets[f] or self._open_segments.get(f)
                       for f in flow_list)):
            count = 0
            for flow in flow_list:
                for _p in range(ppf if ppf > 0 else 0):
                    for s in range(segments_per_packet):
                        self.enqueue_segment(
                            flow, eop=(s == segments_per_packet - 1),
                            pid=-2, index=s)
                        count += 1
            return count
        n = len(flow_list) * ppf
        if n == 0:
            return 0
        slots = self.seg_free.reserve(n)
        descs = self.desc_free.reserve(n)
        seg_word = self._pack_seg(NIL, True, SEGMENT_BYTES)
        desc_pairs = []
        qa_pairs = []
        for k, flow in enumerate(flow_list):
            base = k * ppf
            for j in range(ppf):
                d = descs[base + j]
                nxt = NIL if j == ppf - 1 else self._enc(descs[base + j + 1])
                desc_pairs.append(
                    (d, self._pack_desc(slots[base + j], slots[base + j],
                                        nxt)))
            qa_pairs.append(
                (flow, self._pack_qa_raw(self._enc(descs[base]),
                                         self._enc(descs[base + ppf - 1]))))
            self._queued_packets[flow] += ppf
            self._queued_segments[flow] += ppf
            if self.policy is not None:
                self.policy.note_enqueue(flow, SEGMENT_BYTES * ppf,
                                         segments=ppf)
        mem = self.mem
        mem.bulk_update("seg_next", [(s, seg_word) for s in slots])
        mem.bulk_update("queue_b", (), extra_reads=n)
        mem.bulk_update("desc", desc_pairs,
                        extra_reads=n - len(flow_list),
                        extra_writes=n - len(flow_list))
        mem.bulk_update("queue_a", qa_pairs,
                        extra_reads=n,
                        extra_writes=n - len(flow_list))
        shadow = self._seg_shadow
        for s in slots:
            shadow[s] = SegmentInfo(s, True, SEGMENT_BYTES, -2, 0)
        return n

    # ========================================================== queries

    def queued_packets(self, flow: int) -> int:
        self._check_flow(flow)
        return self._queued_packets[flow]

    def queued_segments(self, flow: int) -> int:
        self._check_flow(flow)
        return self._queued_segments[flow]

    def open_segments(self, flow: int) -> int:
        """Segments of the packet currently being assembled on ``flow``."""
        self._check_flow(flow)
        return self._open_segments.get(flow, 0)

    @property
    def free_segments(self) -> int:
        return self.seg_free.free_count

    @property
    def free_descriptors(self) -> int:
        return self.desc_free.free_count

    def segment_info(self, slot: int) -> SegmentInfo:
        return self._seg_shadow[slot]

    def walk_packets(self, flow: int) -> List[List[int]]:
        """Debug: queued packets as lists of segment slots (uncounted)."""
        self._check_flow(flow)
        packets: List[List[int]] = []
        head_d, _tail_d = self._unpack_qa(self.mem.peek("queue_a", flow))
        cur_d = head_d
        while cur_d != NIL:
            d = self._dec(cur_d)
            first, last, nxt_d = self._unpack_desc(self.mem.peek("desc", d))
            segs = []
            cur_s = self._enc(first)
            while cur_s != NIL:
                s = self._dec(cur_s)
                segs.append(s)
                if s == last:
                    break
                cur_s = self.mem.peek("seg_next", s) & LINK_MASK
            packets.append(segs)
            cur_d = nxt_d  # already encoded
        return packets

    # ========================================================= internals

    def _publish(self, flow: int, d: int) -> None:
        """Link a completed packet descriptor into the flow queue
        (packing inlined -- per-command hot path)."""
        mem = self.mem
        qa = mem.read("queue_a", flow)
        tail_d = (qa >> LINK_BITS) & LINK_MASK
        d_enc = d + 1
        if tail_d == NIL:
            mem.write("queue_a", flow, d_enc | (d_enc << LINK_BITS))
        else:
            t = tail_d - 1
            tword = mem.read("desc", t)
            mem.write("desc", t,
                      (tword & _DESC_LOW2) | (d_enc << (2 * LINK_BITS)))
            mem.write("queue_a", flow,
                      (qa & LINK_MASK) | (d_enc << LINK_BITS))

    def _head_desc(self, flow: int) -> int:
        qa = self.mem.read("queue_a", flow)
        head_d, _tail_d = self._unpack_qa(qa)
        if head_d == NIL:
            raise QueueEmptyError(f"flow {flow} has no queued packet")
        return self._dec(head_d)

    def _unlink_head_packet(self, flow: int) -> int:
        """Detach the head descriptor from ``flow`` (clearing its next)."""
        qa = self.mem.read("queue_a", flow)
        head_d, tail_d = self._unpack_qa(qa)
        if head_d == NIL:
            raise QueueEmptyError(f"flow {flow} has no queued packet")
        d = self._dec(head_d)
        first, last, nxt = self._unpack_desc(self.mem.read("desc", d))
        new_tail = tail_d if nxt != NIL else NIL
        self.mem.write("queue_a", flow, self._pack_qa_raw(nxt, new_tail))
        self.mem.write("desc", d, self._pack_desc(first, last, NIL))
        return d

    def _append_packet(self, flow: int, d: int) -> None:
        """Attach descriptor ``d`` at the tail of ``flow``."""
        qa = self.mem.read("queue_a", flow)
        head_d, tail_d = self._unpack_qa(qa)
        if tail_d == NIL:
            self.mem.write("queue_a", flow,
                           self._pack_qa_raw(self._enc(d), self._enc(d)))
        else:
            t = self._dec(tail_d)
            tf, tl, _tn = self._unpack_desc(self.mem.read("desc", t))
            self.mem.write("desc", t, self._pack_desc(tf, tl, self._enc(d)))
            self.mem.write("queue_a", flow,
                           self._pack_qa_raw(head_d, self._enc(d)))

    def _take_head_segment(self, flow: int, free_slot: bool
                           ) -> Tuple[SegmentInfo, int]:
        # packing/decoding inlined -- per-command hot path (dequeue,
        # delete); layout is exactly _pack_desc/_pack_qa_raw/_decode_seg
        mem = self.mem
        qa = mem.read("queue_a", flow)
        head_d = qa & LINK_MASK
        if head_d == NIL:
            raise QueueEmptyError(f"flow {flow} has no queued packet")
        d = head_d - 1
        dword = mem.read("desc", d)
        first = (dword & LINK_MASK) - 1
        last = ((dword >> LINK_BITS) & LINK_MASK) - 1
        nxt_d = (dword >> (2 * LINK_BITS)) & LINK_MASK
        word = mem.read("seg_next", first)
        shadow = self._seg_shadow.get(first)
        info = SegmentInfo(first, (word & EOP_BIT) != 0,
                           (word >> LEN_SHIFT) + 1,
                           shadow.pid if shadow else -1,
                           shadow.index if shadow else 0)
        if first != last:
            nxt_s = word & LINK_MASK
            mem.write("desc", d,
                      nxt_s | ((last + 1) << LINK_BITS)
                      | (nxt_d << (2 * LINK_BITS)))
        else:
            # last segment of the packet: retire the descriptor
            new_tail = ((qa >> LINK_BITS) & LINK_MASK) if nxt_d != NIL \
                else NIL
            mem.write("queue_a", flow, nxt_d | (new_tail << LINK_BITS))
            self.desc_free.push(d)
            self._queued_packets[flow] -= 1
        if free_slot:
            self.seg_free.push(first)
        self._seg_shadow.pop(first, None)
        self._queued_segments[flow] -= 1
        if self.policy is not None:
            self.policy.note_release(flow, info.length)
        return info, first

    def _free_desc(self, d: int) -> None:
        self.desc_free.push(d)

    def _packet_segments_and_bytes(self, d: int) -> Tuple[int, int]:
        """Shadow walk (uncounted): segment count and byte total of the
        packet behind descriptor ``d``."""
        first, last, _nxt = self._unpack_desc(self.mem.peek("desc", d))
        count, nbytes = 0, 0
        cur = first
        while True:
            count += 1
            shadow = self._seg_shadow.get(cur)
            nbytes += shadow.length if shadow else SEGMENT_BYTES
            if cur == last:
                return count, nbytes
            cur = (self.mem.peek("seg_next", cur) & LINK_MASK) - 1

    def _drop_segment_shadows(self, first: int, last: int) -> None:
        """Forget shadow state of a freed chain (uncounted walk)."""
        cur = first
        while True:
            nxt = (self.mem.peek("seg_next", cur) & LINK_MASK) - 1
            self._seg_shadow.pop(cur, None)
            if cur == last:
                return
            cur = nxt

    # encodings ---------------------------------------------------------

    @staticmethod
    def _enc(x: int) -> int:
        return x + 1

    @staticmethod
    def _dec(word: int) -> int:
        return word - 1

    @staticmethod
    def _pack_seg(link: int, eop: bool, length: int) -> int:
        word = link & LINK_MASK
        if eop:
            word |= EOP_BIT
        word |= (length - 1) << LEN_SHIFT
        return word

    def _decode_seg(self, slot: int, word: int) -> SegmentInfo:
        eop = bool(word & EOP_BIT)
        length = (word >> LEN_SHIFT) + 1
        shadow = self._seg_shadow.get(slot)
        pid = shadow.pid if shadow else -1
        index = shadow.index if shadow else 0
        return SegmentInfo(slot, eop, length, pid, index)

    @staticmethod
    def _pack_desc(first: int, last: int, next_enc: int) -> int:
        """first/last are slot numbers; next_enc is already encoded."""
        return (
            (first + 1)
            | ((last + 1) << LINK_BITS)
            | ((next_enc & LINK_MASK) << (2 * LINK_BITS))
        )

    @staticmethod
    def _unpack_desc(word: int) -> Tuple[int, int, int]:
        first = (word & LINK_MASK) - 1
        last = ((word >> LINK_BITS) & LINK_MASK) - 1
        nxt = (word >> (2 * LINK_BITS)) & LINK_MASK
        return first, last, nxt

    @staticmethod
    def _pack_qa_raw(head_enc: int, tail_enc: int) -> int:
        return (head_enc & LINK_MASK) | ((tail_enc & LINK_MASK) << LINK_BITS)

    @staticmethod
    def _unpack_qa(word: int) -> Tuple[int, int]:
        return word & LINK_MASK, (word >> LINK_BITS) & LINK_MASK

    def _check_flow(self, flow: int) -> None:
        if not 0 <= flow < self.num_flows:
            raise ValueError(f"flow {flow} out of range [0, {self.num_flows})")
