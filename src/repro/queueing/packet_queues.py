"""The MMS queue structure: per-flow queues of packets over segment chains.

The MMS command set (Section 6) includes O(1) *packet* operations --
"Move a packet to a new queue" runs in 11 cycles on 32 K flows -- which a
flat segment list cannot provide.  The ZBT stores "segment and packet
pointers": a two-level structure.

Pointer-word layout (one ZBT SRAM, wide words; each region is one
preallocated word list of the :class:`PointerMemory`):

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

Links are 24 bits wide and store ``slot + 1`` (0 is NIL), so at most
``2**24 - 1`` segments and descriptors can be addressed.  Both free
lists keep their anchors in registers
(:class:`~repro.queueing.freelist.RegisterFreeList`).  Beside the SRAM
the manager keeps uncounted shadow state for the models around it: a
packet id and segment index per slot (the word already holds length
and EOP), and per-flow packet, segment and open-segment counts.

Invariants the structure maintains (tested property-style):

* only the last segment of a packet may be shorter than 64 bytes,
* a packet is visible to dequeue/move/delete only after its EOP segment
  arrived,
* free counts + queued counts + open counts == total slots,
* per-flow packet order is FIFO; segment order within a packet is
  arrival order.

Every operation returns its ordered pointer-access trace.  The MMS prices
one pipelined SRAM cycle per access (see :mod:`repro.core.microcode`,
which cross-checks its schedules against these traces).  The per-command
hot path -- :meth:`~PacketQueueManager.enqueue_segment`, the head-segment
removal behind dequeue and delete, publishing a packet, and the
free-list pops and pushes they make -- indexes the region word lists
directly, counting each access on its region and recording it only
while a recording trace is open; the rarer commands go through
:meth:`PointerMemory.read <repro.queueing.pointer_memory.PointerMemory.read>`
and ``write``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple, Union

from repro.policies.base import BufferPolicy, DroppedSegment
from repro.queueing.errors import QueueEmptyError
from repro.queueing.freelist import NIL, RegisterFreeList
from repro.queueing.pointer_memory import AccessRecord, PointerMemory

#: Field width used for every link in packed words.
LINK_BITS = 24
LINK_MASK = (1 << LINK_BITS) - 1
EOP_BIT = 1 << LINK_BITS
LEN_SHIFT = LINK_BITS + 1
SEGMENT_BYTES = 64
#: Largest segment or descriptor count a link can address (slot + 1
#: must fit the link field without becoming NIL).
MAX_SLOTS = LINK_MASK
#: Packed length/EOP bits of a full non-EOP segment (hot-path constant).
_FULL_MID_SEG = (SEGMENT_BYTES - 1) << LEN_SHIFT
#: Mask of a descriptor word's (first, last) fields.
_DESC_LOW2 = (1 << (2 * LINK_BITS)) - 1

_SN, _DS, _QA, _QB = "seg_next", "desc", "queue_a", "queue_b"


class SegmentInfo(NamedTuple):
    """Decoded segment word + shadow identity.

    A ``NamedTuple`` rather than a frozen dataclass: one is built per
    dequeue and per head lookup, so construction cost is on the
    per-command hot path of every engine.
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
        if num_descriptors is None:
            num_descriptors = num_segments
        if num_flows < 1:
            raise ValueError(f"num_flows must be >= 1, got {num_flows}")
        for name, value in (("num_segments", num_segments),
                            ("num_descriptors", num_descriptors)):
            if not 1 <= value <= MAX_SLOTS:
                raise ValueError(
                    f"{name} must be in [1, {MAX_SLOTS}] (a {LINK_BITS}-bit "
                    f"link stores slot + 1), got {value}")
        self.num_flows = num_flows
        self.num_segments = num_segments
        self.num_descriptors = num_descriptors
        self.mem = mem = PointerMemory()
        self._sn = mem.add_region(_SN, num_segments)
        self._ds = mem.add_region(_DS, num_descriptors)
        self._qa = mem.add_region(_QA, num_flows)
        self._qb = mem.add_region(_QB, num_flows)
        mem.freeze()
        # Hardware keeps the free-list anchors in registers: consulting
        # them costs no SRAM access.
        self._segs = RegisterFreeList(self._sn, LINK_MASK)
        self._descs = RegisterFreeList(self._ds, LINK_MASK)
        #: Optional buffer-management policy; when set, arrivals go
        #: through :meth:`admit_enqueue` and overload becomes a
        #: drop/push-out decision instead of an OutOfBuffersError.
        self.policy = policy
        # Shadow state (no SRAM accesses): per-slot packet id and
        # segment index, written on every allocation.
        self._pid = [-1] * num_segments
        self._index = [0] * num_segments
        self._open_segments = [0] * num_flows
        self._queued_packets = [0] * num_flows
        self._queued_segments = [0] * num_flows

    # ================================================== segment commands

    def enqueue_segment(self, flow: int, eop: bool, length: int = SEGMENT_BYTES,
                        pid: int = -1, index: int = 0
                        ) -> Tuple[int, List[AccessRecord]]:
        """MMS *Enqueue one segment* into ``flow``'s open packet.

        Non-EOP segments must be full (only the last segment of a packet
        may be short).  On EOP the packet is published to the flow queue.
        Returns ``(slot, trace)``.
        """
        if not 0 <= flow < self.num_flows:
            self._check_flow(flow)
        if not 1 <= length <= SEGMENT_BYTES:
            raise ValueError(f"length must be in [1, {SEGMENT_BYTES}], got {length}")
        if not eop and length != SEGMENT_BYTES:
            raise ValueError("only the EOP segment may be shorter than 64 bytes")
        # The hottest data-structure operation in the repository: words
        # are indexed directly and the pack helpers inlined (the field
        # layout is exactly _pack_seg/_pack_desc's).
        mem = self.mem
        rec = mem.start_trace()
        slot = self._segs.pop(rec)
        seg_word = (length - 1) << LEN_SHIFT
        if eop:
            seg_word |= EOP_BIT
        sn, ds, qb = self._sn, self._ds, self._qb
        open_word = qb.words[flow]
        qb.reads += 1
        if rec is not None:
            rec.append(AccessRecord("R", _QB, flow))
        if open_word == NIL:
            d = self._descs.pop(rec)
            ds.words[d] = (slot + 1) | ((slot + 1) << LINK_BITS)
            sn.words[slot] = seg_word
            ds.writes += 1
            sn.writes += 1
            if rec is not None:
                rec += (AccessRecord("W", _DS, d),
                        AccessRecord("W", _SN, slot))
            if eop:
                n = 5 + self._publish(flow, d, rec)
            else:
                qb.words[flow] = d + 1
                qb.writes += 1
                if rec is not None:
                    rec.append(AccessRecord("W", _QB, flow))
                n = 6
        else:
            d = open_word - 1
            dwords = ds.words
            dword = dwords[d]
            last = ((dword >> LINK_BITS) & LINK_MASK) - 1
            # the old last segment is mid-packet: full 64B, non-EOP --
            # its word is fully known, so the link is one plain write
            swords = sn.words
            swords[last] = (slot + 1) | _FULL_MID_SEG
            swords[slot] = seg_word
            dwords[d] = ((dword & LINK_MASK) | ((slot + 1) << LINK_BITS)
                         | (dword & ~_DESC_LOW2))
            ds.reads += 1
            sn.writes += 2
            ds.writes += 1
            if rec is not None:
                rec += (AccessRecord("R", _DS, d),
                        AccessRecord("W", _SN, last),
                        AccessRecord("W", _SN, slot),
                        AccessRecord("W", _DS, d))
            n = 6
            if eop:
                n += self._publish(flow, d, rec) + 1
                qb.words[flow] = NIL
                qb.writes += 1
                if rec is not None:
                    rec.append(AccessRecord("W", _QB, flow))
        trace = mem.end_trace(n)
        self._pid[slot] = pid
        self._index[slot] = index
        if eop:
            self._queued_segments[flow] += self._open_segments[flow] + 1
            self._open_segments[flow] = 0
            self._queued_packets[flow] += 1
        else:
            self._open_segments[flow] += 1
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
        if (not needs_desc_check or self._descs.free > 0) \
                and self.policy.admit_fast(flow, length):
            return None
        excluded: Set[int] = set(protect)
        while True:
            # a segment starting a new packet also needs a descriptor;
            # descriptor exhaustion is a buffer-full situation the
            # policy must resolve (push-out frees one) or reject
            needs_desc = needs_desc_check and self._qb.words[flow] == NIL
            desc_blocked = needs_desc and self._descs.free == 0
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
        if not 0 <= flow < self.num_flows:
            self._check_flow(flow)
        rec = self.mem.start_trace()
        info, n = self._take_head_segment(flow, rec)
        return info, self.mem.end_trace(n)

    def delete_segment(self, flow: int) -> Tuple[SegmentInfo, List[AccessRecord]]:
        """MMS *Delete one segment*: same unlinking as dequeue, but no
        data-memory access is ever generated for it."""
        return self.dequeue_segment(flow)

    def read_segment(self, flow: int) -> Tuple[SegmentInfo, List[AccessRecord]]:
        """MMS *Read*: resolve the head segment (for the data address)
        without modifying the queue."""
        self._check_flow(flow)
        self.mem.start_trace()
        try:
            d = self._head_desc(flow)
            first, _last, _nxt = self._unpack_desc(self.mem.read(_DS, d))
            word = self.mem.read(_SN, first)
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
            first, _last, _nxt = self._unpack_desc(self.mem.read(_DS, d))
            word = self.mem.read(_SN, first)
            info = self._decode_seg(first, word)
            if not info.eop and new_length != SEGMENT_BYTES:
                raise ValueError("only the EOP segment may be shorter than 64 bytes")
            self.mem.write(_SN, first,
                           self._pack_seg(word & LINK_MASK, info.eop, new_length))
        finally:
            trace = self.mem.end_trace()
        if self.policy is not None:
            # in-place resize: byte occupancy delta, no segment change
            self.policy.note_release(flow, info.length - new_length, 0)
        return info._replace(length=new_length), trace

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
        self._note_moved(src_flow, dst_flow, nsegs)
        if self.policy is not None:
            self.policy.note_move(src_flow, dst_flow, nbytes, nsegs)
        return trace

    def delete_packet(self, flow: int) -> List[AccessRecord]:
        """MMS *Delete a full packet*: unlink the head packet and splice
        its whole segment chain onto the free list in O(1)."""
        self._check_flow(flow)
        mem = self.mem
        rec = mem.start_trace()
        qa = mem.read(_QA, flow)
        head_d, tail_d = self._unpack_qa(qa)
        if head_d == NIL:
            mem.end_trace()
            raise QueueEmptyError(f"flow {flow} has no queued packet")
        d = head_d - 1
        first, last, nxt = self._unpack_desc(mem.read(_DS, d))
        new_tail = tail_d if nxt != NIL else NIL
        mem.write(_QA, flow, self._pack_qa_raw(nxt, new_tail))
        nsegs, nbytes = self._packet_segments_and_bytes(d)
        n = self._segs.push(first, last, nsegs, rec)
        n += self._descs.push(d, d, 1, rec)
        trace = mem.end_trace(n)
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
        mem = self.mem
        rec = mem.start_trace()
        qa = mem.read(_QA, flow)
        head_d, tail_d = self._unpack_qa(qa)
        if head_d == NIL:
            mem.end_trace()
            raise QueueEmptyError(f"flow {flow} has no queued packet")
        t = tail_d - 1
        if head_d == tail_d:
            mem.write(_QA, flow, self._pack_qa_raw(NIL, NIL))
        else:
            dwords = self._ds.words
            pred = head_d - 1
            while True:
                pf, pl, pn = self._unpack_desc(dwords[pred])
                if pn == tail_d:
                    break
                pred = pn - 1
            mem.write(_DS, pred, self._pack_desc(pf, pl, NIL))
            mem.write(_QA, flow, self._pack_qa_raw(head_d, pred + 1))
        first, last, _nxt = self._unpack_desc(mem.read(_DS, t))
        nsegs, nbytes = self._packet_segments_and_bytes(t)
        n = self._segs.push(first, last, nsegs, rec)
        n += self._descs.push(t, t, 1, rec)
        trace = mem.end_trace(n)
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
            first = (self._ds.words[d] & LINK_MASK) - 1
            word = self.mem.read(_SN, first)
            info = self._decode_seg(first, word)
            if not info.eop and new_length != SEGMENT_BYTES:
                raise ValueError("only the EOP segment may be shorter than 64 bytes")
            self.mem.write(_SN, first,
                           self._pack_seg(word & LINK_MASK, info.eop, new_length))
            self._append_packet(dst_flow, d)
        finally:
            trace = self.mem.end_trace()
        old_length = info.length
        nsegs, nbytes = self._packet_segments_and_bytes(d)
        self._note_moved(src_flow, dst_flow, nsegs)
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
            first = (self._ds.words[d] & LINK_MASK) - 1
            word = self.mem.read(_SN, first)
            self._append_packet(dst_flow, d)
        finally:
            trace = self.mem.end_trace()
        nsegs, nbytes = self._packet_segments_and_bytes(d)
        self._note_moved(src_flow, dst_flow, nsegs)
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
        # preconditions first: admission (push-outs, stats) and the
        # free-list pop must not happen for an operation that raises
        if self._qa.words[flow] & LINK_MASK == NIL:
            raise QueueEmptyError(f"flow {flow} has no queued packet")
        if self.policy is not None:
            reason = self._admit(flow, SEGMENT_BYTES, needs_desc_check=False,
                                 protect=(flow,))
            if reason is not None:
                self.policy.record_drop(flow, SEGMENT_BYTES, reason)
                return DroppedSegment(flow, SEGMENT_BYTES, reason), []
        mem = self.mem
        rec = mem.start_trace()
        try:
            slot = self._segs.pop(rec)
            d = self._head_desc(flow)
            first, last, nxt = self._unpack_desc(mem.read(_DS, d))
            mem.write(_SN, slot, self._pack_seg(first + 1, False, SEGMENT_BYTES))
            mem.write(_DS, d, self._pack_desc(slot, last, nxt))
        finally:
            trace = mem.end_trace(1)
        self._pid[slot] = pid
        self._index[slot] = -1
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
        # preconditions first (see append_head); a short mid-packet
        # segment would break the structure invariant, so callers must
        # overwrite-length to 64 first
        head_enc = self._qa.words[flow] & LINK_MASK
        if head_enc == NIL:
            raise QueueEmptyError(f"flow {flow} has no queued packet")
        _f, last_slot, _n = self._unpack_desc(self._ds.words[head_enc - 1])
        last_len = (self._sn.words[last_slot] >> LEN_SHIFT) + 1
        if last_len != SEGMENT_BYTES:
            raise ValueError(
                "cannot append behind a short last segment "
                f"(length {last_len})"
            )
        if self.policy is not None:
            reason = self._admit(flow, length, needs_desc_check=False,
                                 protect=(flow,))
            if reason is not None:
                self.policy.record_drop(flow, length, reason)
                return DroppedSegment(flow, length, reason), []
        mem = self.mem
        rec = mem.start_trace()
        try:
            slot = self._segs.pop(rec)
            d = self._head_desc(flow)
            first, last, nxt = self._unpack_desc(mem.read(_DS, d))
            mem.read(_SN, last)  # the MMS reads it; length checked above
            # the old last segment loses EOP
            mem.write(_SN, last, self._pack_seg(slot + 1, False, SEGMENT_BYTES))
            mem.write(_SN, slot, self._pack_seg(NIL, True, length))
            mem.write(_DS, d, self._pack_desc(first, slot, nxt))
        finally:
            trace = mem.end_trace(1)
        self._pid[slot] = pid
        self._index[slot] = -1
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
        buffers with one :meth:`RegisterFreeList.reserve` walk and
        writing the final pointer words straight into the regions;
        anything else falls back to the per-segment loop.  Identity
        against the loop is asserted by ``tests/queueing/test_bulk_ops.py``.
        """
        flow_list = list(flows)
        ppf = packets_per_flow
        if (segments_per_packet != 1 or ppf < 1
                or len(set(flow_list)) != len(flow_list)
                or any(not 0 <= f < self.num_flows for f in flow_list)
                or any(self._queued_packets[f] or self._open_segments[f]
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
        nflows = len(flow_list)
        slots = self._segs.reserve(n)
        descs = self._descs.reserve(n)
        sn, ds, qa, qb = self._sn, self._ds, self._qa, self._qb
        seg_word = self._pack_seg(NIL, True, SEGMENT_BYTES)
        for s in slots:
            sn.words[s] = seg_word
            self._pid[s] = -2
            self._index[s] = 0
        for k, flow in enumerate(flow_list):
            base = k * ppf
            for j in range(ppf):
                nxt = NIL if j == ppf - 1 else descs[base + j + 1] + 1
                ds.words[descs[base + j]] = self._pack_desc(
                    slots[base + j], slots[base + j], nxt)
            qa.words[flow] = self._pack_qa_raw(descs[base] + 1,
                                               descs[base + ppf - 1] + 1)
            self._queued_packets[flow] += ppf
            self._queued_segments[flow] += ppf
            if self.policy is not None:
                self.policy.note_enqueue(flow, SEGMENT_BYTES * ppf,
                                         segments=ppf)
        # the accesses the enqueue loop would have made (the reserves
        # counted the free-list pops): per segment W seg_next, R queue_b,
        # W desc and R/W queue_a; per packet behind a flow's first, the
        # tail descriptor's R/W
        sn.writes += n
        qb.reads += n
        ds.reads += n - nflows
        ds.writes += n + n - nflows
        qa.reads += n
        qa.writes += n
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
        return self._open_segments[flow]

    @property
    def free_segments(self) -> int:
        return self._segs.free

    @property
    def free_descriptors(self) -> int:
        return self._descs.free

    def segment_info(self, slot: int) -> SegmentInfo:
        """Decoded word and shadow identity of a queued segment."""
        if not 0 <= slot < self.num_segments:
            raise ValueError(f"slot {slot} out of range [0, {self.num_segments})")
        return self._decode_seg(slot, self._sn.words[slot])

    def walk_packets(self, flow: int) -> List[List[int]]:
        """Debug: queued packets as lists of segment slots (uncounted)."""
        self._check_flow(flow)
        swords, dwords = self._sn.words, self._ds.words
        packets: List[List[int]] = []
        cur_d = self._qa.words[flow] & LINK_MASK
        while cur_d != NIL:
            first, last, nxt_d = self._unpack_desc(dwords[cur_d - 1])
            segs = [first]
            while segs[-1] != last:
                segs.append((swords[segs[-1]] & LINK_MASK) - 1)
            packets.append(segs)
            cur_d = nxt_d  # already encoded
        return packets

    # ============================================================ state

    def state_dict(self) -> Dict[str, Any]:
        """The complete functional state, JSON-ready (copies): every
        region's words and counters, both free lists' registers, the
        per-slot shadow columns and the per-flow counts."""
        return {
            "regions": self.mem.state_dict(),
            "seg_free": self._segs.state_dict(),
            "desc_free": self._descs.state_dict(),
            "pid": list(self._pid),
            "index": list(self._index),
            "open_segments": list(self._open_segments),
            "queued_packets": list(self._queued_packets),
            "queued_segments": list(self._queued_segments),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output into a manager of the same
        dimensions (raises ValueError when they differ)."""
        columns = (("pid", self._pid), ("index", self._index),
                   ("open_segments", self._open_segments),
                   ("queued_packets", self._queued_packets),
                   ("queued_segments", self._queued_segments))
        for name, column in columns:
            if len(state[name]) != len(column):
                raise ValueError(f"{name}: state has {len(state[name])} "
                                 f"entries, manager has {len(column)}")
        self.mem.load_state(state["regions"])
        self._segs.load_state(state["seg_free"])
        self._descs.load_state(state["desc_free"])
        for name, column in columns:
            column[:] = state[name]

    # ========================================================= internals

    def _publish(self, flow: int, d: int,
                 rec: Optional[List[AccessRecord]]) -> int:
        """Link a completed packet descriptor into the flow queue
        (direct words, packing inlined -- per-command hot path).
        Returns the access count."""
        qa = self._qa
        qwords = qa.words
        word = qwords[flow]
        tail_d = (word >> LINK_BITS) & LINK_MASK
        d_enc = d + 1
        qa.reads += 1
        qa.writes += 1
        if tail_d == NIL:
            qwords[flow] = d_enc | (d_enc << LINK_BITS)
            if rec is not None:
                rec += (AccessRecord("R", _QA, flow),
                        AccessRecord("W", _QA, flow))
            return 2
        ds = self._ds
        t = tail_d - 1
        ds.words[t] = (ds.words[t] & _DESC_LOW2) | (d_enc << (2 * LINK_BITS))
        qwords[flow] = (word & LINK_MASK) | (d_enc << LINK_BITS)
        ds.reads += 1
        ds.writes += 1
        if rec is not None:
            rec += (AccessRecord("R", _QA, flow), AccessRecord("R", _DS, t),
                    AccessRecord("W", _DS, t), AccessRecord("W", _QA, flow))
        return 4

    def _take_head_segment(self, flow: int,
                           rec: Optional[List[AccessRecord]]
                           ) -> Tuple[SegmentInfo, int]:
        """Unlink and free the head segment (dequeue, delete): direct
        words, decoding inlined -- per-command hot path; the layout is
        exactly _pack_desc/_pack_qa_raw/_decode_seg's.  Returns the
        segment and the access count."""
        qa, ds, sn = self._qa, self._ds, self._sn
        qwords = qa.words
        word = qwords[flow]
        qa.reads += 1
        head_d = word & LINK_MASK
        if head_d == NIL:
            raise QueueEmptyError(f"flow {flow} has no queued packet")
        d = head_d - 1
        dwords = ds.words
        dword = dwords[d]
        first = (dword & LINK_MASK) - 1
        last = ((dword >> LINK_BITS) & LINK_MASK) - 1
        nxt_d = (dword >> (2 * LINK_BITS)) & LINK_MASK
        seg = sn.words[first]
        ds.reads += 1
        sn.reads += 1
        if rec is not None:
            rec += (AccessRecord("R", _QA, flow), AccessRecord("R", _DS, d),
                    AccessRecord("R", _SN, first))
        length = (seg >> LEN_SHIFT) + 1
        info = SegmentInfo(first, (seg & EOP_BIT) != 0, length,
                           self._pid[first], self._index[first])
        if first != last:
            dwords[d] = ((seg & LINK_MASK) | ((last + 1) << LINK_BITS)
                         | (nxt_d << (2 * LINK_BITS)))
            ds.writes += 1
            if rec is not None:
                rec.append(AccessRecord("W", _DS, d))
            n = 4
        else:
            # last segment of the packet: retire the descriptor
            new_tail = ((word >> LINK_BITS) & LINK_MASK) if nxt_d != NIL \
                else NIL
            qwords[flow] = nxt_d | (new_tail << LINK_BITS)
            qa.writes += 1
            if rec is not None:
                rec.append(AccessRecord("W", _QA, flow))
            n = 4 + self._descs.push(d, d, 1, rec)
            self._queued_packets[flow] -= 1
        n += self._segs.push(first, first, 1, rec)
        self._queued_segments[flow] -= 1
        if self.policy is not None:
            self.policy.note_release(flow, length)
        return info, n

    def _note_moved(self, src_flow: int, dst_flow: int, nsegs: int) -> None:
        self._queued_packets[src_flow] -= 1
        self._queued_packets[dst_flow] += 1
        self._queued_segments[src_flow] -= nsegs
        self._queued_segments[dst_flow] += nsegs

    def _head_desc(self, flow: int) -> int:
        qa = self.mem.read(_QA, flow)
        head_d = qa & LINK_MASK
        if head_d == NIL:
            raise QueueEmptyError(f"flow {flow} has no queued packet")
        return head_d - 1

    def _unlink_head_packet(self, flow: int) -> int:
        """Detach the head descriptor from ``flow`` (clearing its next)."""
        qa = self.mem.read(_QA, flow)
        head_d, tail_d = self._unpack_qa(qa)
        if head_d == NIL:
            raise QueueEmptyError(f"flow {flow} has no queued packet")
        d = head_d - 1
        first, last, nxt = self._unpack_desc(self.mem.read(_DS, d))
        new_tail = tail_d if nxt != NIL else NIL
        self.mem.write(_QA, flow, self._pack_qa_raw(nxt, new_tail))
        self.mem.write(_DS, d, self._pack_desc(first, last, NIL))
        return d

    def _append_packet(self, flow: int, d: int) -> None:
        """Attach descriptor ``d`` at the tail of ``flow``."""
        qa = self.mem.read(_QA, flow)
        head_d, tail_d = self._unpack_qa(qa)
        if tail_d == NIL:
            self.mem.write(_QA, flow, self._pack_qa_raw(d + 1, d + 1))
        else:
            t = tail_d - 1
            tf, tl, _tn = self._unpack_desc(self.mem.read(_DS, t))
            self.mem.write(_DS, t, self._pack_desc(tf, tl, d + 1))
            self.mem.write(_QA, flow, self._pack_qa_raw(head_d, d + 1))

    def _packet_segments_and_bytes(self, d: int) -> Tuple[int, int]:
        """Uncounted walk: segment count and byte total of the packet
        behind descriptor ``d`` (lengths come from the segment words)."""
        swords = self._sn.words
        first, last, _nxt = self._unpack_desc(self._ds.words[d])
        count, nbytes = 0, 0
        cur = first
        while True:
            word = swords[cur]
            count += 1
            nbytes += (word >> LEN_SHIFT) + 1
            if cur == last:
                return count, nbytes
            cur = (word & LINK_MASK) - 1

    # encodings ---------------------------------------------------------

    @staticmethod
    def _pack_seg(link: int, eop: bool, length: int) -> int:
        word = link & LINK_MASK
        if eop:
            word |= EOP_BIT
        word |= (length - 1) << LEN_SHIFT
        return word

    def _decode_seg(self, slot: int, word: int) -> SegmentInfo:
        return SegmentInfo(slot, bool(word & EOP_BIT),
                           (word >> LEN_SHIFT) + 1,
                           self._pid[slot], self._index[slot])

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
