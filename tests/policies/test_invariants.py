"""Policy invariants exercised through the real queue managers.

These are the satellite guarantees of the subsystem: LQD never evicts
the longest queue's head, DynamicThreshold obeys the alpha bound at
every accept, occupancy accounting matches the free list exactly, and
push-out keeps the pointer structure walkable.
"""

import random

import pytest

from repro.policies import (
    DroppedSegment,
    DynamicThreshold,
    LongestQueueDrop,
    PolicySpec,
    make_policy,
)
from repro.queueing import PacketQueueManager, QueueEmptyError, SegmentQueueManager
from repro.queueing.segment_queues import SegmentMeta


def make_pqm(policy, flows=8, segments=16):
    return PacketQueueManager(num_flows=flows, num_segments=segments,
                              num_descriptors=segments, policy=policy)


# ------------------------------------------------------------ LQD + PQM

def test_lqd_never_drops_longest_queue_head():
    """The victim's head packet (about to be serviced) must survive
    every push-out; LQD evicts from the tail."""
    pol = LongestQueueDrop(capacity=12)
    pqm = make_pqm(pol, segments=12)
    # queue 0: 8 packets with distinct pids; queue 1: 4
    for pid in range(8):
        pqm.admit_enqueue(0, eop=True, pid=pid)
    for pid in range(100, 104):
        pqm.admit_enqueue(1, eop=True, pid=pid)
    head_before = pqm.walk_packets(0)[0]
    # overload: arrivals on queue 2 force repeated push-outs of queue 0
    for pid in range(200, 204):
        result, _ = pqm.admit_enqueue(2, eop=True, pid=pid)
        assert not isinstance(result, DroppedSegment)
        assert pqm.walk_packets(0)[0] == head_before  # head untouched
    assert pol.stats.pushed_out_segments == 4
    # evictions came off the tail: the queue shrank back-to-front
    assert pqm.queued_packets(0) == 4


def test_lqd_pushout_keeps_structure_walkable_and_books_balanced():
    rng = random.Random(11)
    pol = LongestQueueDrop(capacity=10)
    pqm = make_pqm(pol, flows=4, segments=10)
    for i in range(200):
        flow = rng.randrange(4)
        if rng.random() < 0.7:
            pqm.admit_enqueue(flow, eop=True, pid=i)
        elif pqm.queued_packets(flow) > 0:
            pqm.dequeue_segment(flow)
        # books: policy occupancy == structure occupancy == free-list use
        structure = sum(pqm.queued_segments(f) + pqm.open_segments(f)
                        for f in range(4))
        assert pol.total_segments == structure
        assert pol.free_segments == pqm.free_segments
        for f in range(4):
            assert len(sum(pqm.walk_packets(f), [])) == pqm.queued_segments(f)


def test_lqd_single_packet_victim_may_lose_its_only_packet():
    """With one packet, tail == head: eviction is still legal LQD (the
    'never the head' guarantee is about multi-packet queues)."""
    pol = LongestQueueDrop(capacity=3)
    pqm = make_pqm(pol, segments=3)
    pqm.admit_enqueue(0, eop=False)
    pqm.admit_enqueue(0, eop=False)  # 2-segment open packet, never published
    pqm.admit_enqueue(1, eop=True)
    # buffer full; queue 0 is longest but has nothing published -> the
    # policy must fall back to the next viable victim (queue 1)
    result, _ = pqm.admit_enqueue(2, eop=True)
    assert not isinstance(result, DroppedSegment)
    assert pqm.queued_packets(1) == 0
    assert pol.stats.pushed_out_segments == 1


# ----------------------------------------------------- DynamicThreshold

def test_dynamic_threshold_alpha_bound_through_manager():
    """At every accepted arrival, len(q) < alpha * free held at
    decision time."""
    alpha = 0.75
    pol = DynamicThreshold(capacity=24, alpha=alpha)
    pqm = make_pqm(pol, flows=6, segments=24)
    rng = random.Random(5)
    accepts = drops = 0
    for i in range(300):
        flow = rng.randrange(6)
        if rng.random() < 0.25 and pqm.queued_packets(flow) > 0:
            pqm.dequeue_segment(flow)
            continue
        qlen_before = pol.queue_length(flow)
        free_before = pol.free_segments
        result, _ = pqm.admit_enqueue(flow, eop=True, pid=i)
        if isinstance(result, DroppedSegment):
            assert qlen_before >= alpha * free_before or free_before == 0
            drops += 1
        else:
            assert qlen_before < alpha * free_before
            accepts += 1
    assert accepts > 0 and drops > 0  # the workload actually overloaded


# --------------------------------------------------- SQM tail push-out

def test_sqm_lqd_pushout_evicts_tail_segment_not_head():
    pol = LongestQueueDrop(capacity=6)
    sqm = SegmentQueueManager(num_queues=3, num_slots=6, policy=pol)
    slots = [sqm.offer(0, SegmentMeta(pid=i))[0] for i in range(4)]
    sqm.offer(1, SegmentMeta(pid=90))
    sqm.offer(1, SegmentMeta(pid=91))
    # full: arrival on queue 2 evicts queue 0's *tail* (last slot)
    result, _ = sqm.offer(2, SegmentMeta(pid=99))
    assert not isinstance(result, DroppedSegment)
    assert sqm.walk_queue(0) == slots[:3]
    assert pol.stats.pushed_out_segments == 1


def test_sqm_drop_tail_segment_on_empty_queue_raises():
    sqm = SegmentQueueManager(num_queues=2, num_slots=4)
    with pytest.raises(QueueEmptyError):
        sqm.drop_tail_segment(0)


def test_sqm_drop_tail_single_segment_empties_queue():
    sqm = SegmentQueueManager(num_queues=2, num_slots=4)
    slot, _ = sqm.enqueue(0, SegmentMeta())
    got, _meta, _trace = sqm.drop_tail_segment(0)
    assert got == slot
    assert sqm.is_empty(0)
    assert sqm.free_slots == 4


# -------------------------------------------------------- PQM mechanics

def test_pqm_drop_tail_packet_multi_segment_frees_whole_chain():
    pqm = PacketQueueManager(num_flows=2, num_segments=8, num_descriptors=8)
    pqm.enqueue_segment(0, eop=False)
    pqm.enqueue_segment(0, eop=False)
    pqm.enqueue_segment(0, eop=True, length=10)   # 3-seg packet, 138 B
    pqm.enqueue_segment(0, eop=True)              # 1-seg packet (the tail)
    nsegs, nbytes, _trace = pqm.drop_tail_packet(0)
    assert (nsegs, nbytes) == (1, 64)
    nsegs, nbytes, _trace = pqm.drop_tail_packet(0)
    assert (nsegs, nbytes) == (3, 138)
    assert pqm.free_segments == 8 and pqm.free_descriptors == 8
    with pytest.raises(QueueEmptyError):
        pqm.drop_tail_packet(0)


def test_admit_enqueue_without_policy_matches_legacy_path():
    pqm = PacketQueueManager(num_flows=2, num_segments=2, num_descriptors=2)
    slot, trace = pqm.admit_enqueue(0, eop=True)
    assert isinstance(slot, int) and trace
    pqm.admit_enqueue(0, eop=True)
    from repro.queueing import OutOfBuffersError
    with pytest.raises(OutOfBuffersError):
        pqm.admit_enqueue(0, eop=True)


def test_mms_policy_occupancy_counts_prefill():
    """Buffers consumed before the experiment (prefill) are occupancy
    the policy must see."""
    from repro.core import MMS, MmsConfig
    mms = MMS(MmsConfig(num_flows=4, num_segments=16, num_descriptors=16,
                        policy=PolicySpec(name="taildrop")))
    mms.prefill(range(4), packets_per_flow=2)
    assert mms.policy.total_segments == 8
    assert mms.policy.free_segments == mms.pqm.free_segments


def test_make_policy_sizes_from_mms_config():
    from repro.core import MMS, MmsConfig
    mms = MMS(MmsConfig(num_flows=4, num_segments=32, num_descriptors=32,
                        policy=PolicySpec(name="lqd")))
    assert mms.policy.capacity == 32
    assert mms.pqm.policy is mms.policy


# ------------------------------------------- descriptor exhaustion

def test_descriptor_exhaustion_is_a_drop_not_a_crash():
    """Descriptors can run out before segments (fewer descriptors than
    segments, single-segment packets): still a policy decision."""
    pol = make_policy(PolicySpec(name="taildrop"), capacity=8)
    pqm = PacketQueueManager(num_flows=4, num_segments=8, num_descriptors=2,
                             policy=pol)
    pqm.admit_enqueue(0, eop=True)
    pqm.admit_enqueue(1, eop=True)
    result, trace = pqm.admit_enqueue(2, eop=True)  # would need a 3rd desc
    assert isinstance(result, DroppedSegment)
    assert "descriptor" in result.reason
    assert trace == []
    assert pol.stats.dropped_segments == 1
    # a segment starting any new packet needs a descriptor: also dropped
    result, _ = pqm.admit_enqueue(3, eop=False)
    assert isinstance(result, DroppedSegment)
    assert pol.stats.dropped_segments == 2


def test_lqd_pushes_out_to_free_a_descriptor():
    """LQD treats descriptor exhaustion like buffer-full: evicting the
    longest queue's tail packet frees its descriptor too."""
    pol = make_policy(PolicySpec(name="lqd"), capacity=8)
    pqm = PacketQueueManager(num_flows=4, num_segments=8, num_descriptors=2,
                             policy=pol)
    pqm.admit_enqueue(0, eop=True)
    pqm.admit_enqueue(0, eop=True)   # queue 0: 2 packets, both descriptors
    result, _ = pqm.admit_enqueue(1, eop=True)
    assert not isinstance(result, DroppedSegment)
    assert pol.stats.pushed_out_segments == 1
    assert pqm.queued_packets(0) == 1 and pqm.queued_packets(1) == 1


# ---------------------------------------------- policy-aware appends

def test_append_under_full_buffer_is_a_drop_not_a_crash():
    """Header prepend / trailer append during overload must go through
    admission like any arrival (the review repro: encapsulation on a
    pinned-full buffer used to raise OutOfBuffersError)."""
    pol = make_policy(PolicySpec(name="taildrop"), capacity=4)
    pqm = make_pqm(pol, flows=2, segments=4)
    for pid in range(4):
        slot, _ = pqm.admit_enqueue(0, eop=True, pid=pid)
        assert not isinstance(slot, DroppedSegment)
    # buffer full: the header and trailer buffers are dropped, not raised
    head, trace = pqm.append_head(0, pid=0)
    assert isinstance(head, DroppedSegment) and trace == []
    tail, trace = pqm.append_tail(0, length=8, pid=3)
    assert isinstance(tail, DroppedSegment) and trace == []
    assert pol.stats.dropped_segments == 2
    assert pqm.queued_packets(0) == 4 and pqm.queued_segments(0) == 4


def test_lqd_append_does_not_evict_its_own_target_packet():
    """An append's push-out must never evict the packet being appended
    to (the target flow is protected)."""
    pol = make_policy(PolicySpec(name="lqd"), capacity=4)
    pqm = make_pqm(pol, flows=3, segments=4)
    pqm.admit_enqueue(0, eop=True, pid=7)   # flow 0: single packet
    for pid in (20, 21, 22):
        pqm.admit_enqueue(1, eop=True, pid=pid)
    # full; append to flow 0: flow 1 (longest, unprotected) is evicted
    slot, _ = pqm.append_head(0, pid=7)
    assert not isinstance(slot, DroppedSegment)
    assert pqm.queued_packets(0) == 1
    assert pqm.queued_segments(0) == 2
    assert pol.stats.pushed_out_segments == 1


def test_failing_append_does_not_corrupt_policy_state():
    """An append whose preconditions fail must raise BEFORE admission:
    no push-out, no stats change, no leaked slot (the review repro)."""
    pol = make_policy(PolicySpec(name="lqd"), capacity=5)
    pqm = make_pqm(pol, flows=3, segments=5)
    pqm.admit_enqueue(0, eop=False)
    pqm.admit_enqueue(0, eop=True, length=10)   # short last segment
    for pid in (1, 2, 3):
        pqm.admit_enqueue(1, eop=True, pid=pid)
    accepted_before = pol.stats.accepted_segments
    # buffer full; append behind a short last segment must fail cleanly
    with pytest.raises(ValueError, match="short last segment"):
        pqm.append_tail(0, length=4)
    with pytest.raises(QueueEmptyError):
        pqm.append_head(2)                      # empty flow
    assert pol.stats.accepted_segments == accepted_before
    assert pol.stats.pushed_out_segments == 0   # no innocent evictions
    assert pqm.queued_packets(1) == 3
    assert pol.free_segments == pqm.free_segments == 0
    # the books still balance: a dequeue frees exactly one admission
    pqm.dequeue_segment(1)
    result, _ = pqm.admit_enqueue(2, eop=True)
    assert not isinstance(result, DroppedSegment)


# ------------------------------------- SQM multi-segment truncation

def test_sqm_pushout_of_eop_truncates_packet_coherently():
    """Evicting the tail (EOP) segment of a multi-segment packet must
    move the end-of-packet mark and fix the accumulated length, so the
    packet dequeues as a truncated-but-framed unit."""
    pol = make_policy(PolicySpec(name="lqd"), capacity=4)
    sqm = SegmentQueueManager(num_queues=2, num_slots=4, policy=pol)
    slots = []
    head = None
    for i in range(3):
        meta = SegmentMeta(eop=(i == 2), length=64 if i < 2 else 40,
                           pid=5, index=i)
        slot, _ = sqm.offer(0, meta, packet_head_slot=head)
        if head is None:
            head = slot
        slots.append(slot)
    sqm.offer(1, SegmentMeta(pid=9))
    # full: arrival on queue 1... queue 0 is longest -> evict its tail
    result, _ = sqm.offer(1, SegmentMeta(pid=10))
    assert not isinstance(result, DroppedSegment)
    assert sqm.walk_queue(0) == slots[:2]
    assert sqm.meta_of(slots[1]).eop          # EOP moved to the new tail
    assert sqm.packet_length_bytes(head) == 128  # evicted 40 B removed
    got = sqm.dequeue_packet(0)               # frames correctly
    assert [s for s, _m in got] == slots[:2]

def test_strict_microcode_still_checks_accepted_enqueues():
    """Installing a policy must not disable the schedule cross-check
    for commands that actually execute."""
    from repro.core import MMS, Command, CommandType, MmsConfig
    mms = MMS(MmsConfig(num_flows=16, num_segments=8, num_descriptors=8,
                        strict_microcode=True,
                        policy=PolicySpec(name="taildrop")))
    sim = mms.sim

    def feed():
        # non-EOP enqueues to distinct flows: each accepted one is the
        # typical-path trace the schedule prices (see
        # test_strict_microcode_on_typical_paths), so the strict check
        # stays armed; the overflow arrivals are dropped (no pointer
        # traffic) and must NOT trip it
        for flow in range(11):
            yield from mms.submit(0, Command(type=CommandType.ENQUEUE,
                                             flow=flow, eop=False))

    sim.spawn(feed())
    sim.run()
    assert mms.drop_stats.accepted_segments == 8
    assert mms.drop_stats.dropped_segments == 3
