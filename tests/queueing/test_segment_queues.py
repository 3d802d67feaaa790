"""Tests for the Section 5.2 software queue structure."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.queueing import OutOfBuffersError, SegmentQueueManager
from repro.queueing.errors import QueueEmptyError
from repro.queueing.segment_queues import SegmentMeta


def make(queues=4, slots=64, **kw):
    return SegmentQueueManager(num_queues=queues, num_slots=slots, **kw)

# ------------------------------------------------------------- semantics

def test_fifo_order_single_queue():
    m = make()
    s1, _ = m.enqueue(0, SegmentMeta(length=1))
    s2, _ = m.enqueue(0, SegmentMeta(length=2))
    s3, _ = m.enqueue(0, SegmentMeta(length=3))
    out = [m.dequeue(0)[0] for _ in range(3)]
    assert out == [s1, s2, s3]

def test_queues_are_independent():
    m = make()
    a, _ = m.enqueue(0, SegmentMeta(length=1))
    b, _ = m.enqueue(1, SegmentMeta(length=2))
    slot, meta, _t = m.dequeue(1)
    assert slot == b
    assert meta.length == 2
    assert m.dequeue(0)[:2] == (a, SegmentMeta(length=1))

def test_meta_roundtrip_through_sram_words():
    m = make()
    meta_in = SegmentMeta(eop=True, length=17)
    m.enqueue(2, meta_in)
    m.enqueue(2, SegmentMeta())  # rewrites the first word's link
    _slot, meta_out, _t = m.dequeue(2)
    assert meta_out.eop
    assert meta_out.length == 17

def test_dequeue_empty_raises():
    m = make()
    with pytest.raises(QueueEmptyError):
        m.dequeue(0)

def test_exhaustion_raises_out_of_buffers():
    m = make(slots=4)
    for _ in range(4):
        m.enqueue(0)
    with pytest.raises(OutOfBuffersError):
        m.enqueue(0)

def test_slots_recycled_after_dequeue():
    m = make(slots=4)
    for _ in range(4):
        m.enqueue(0)
    m.dequeue(0)
    m.enqueue(1)  # must not raise
    assert m.free.free_count == 0

def test_queue_validation():
    m = make(queues=2)
    with pytest.raises(ValueError):
        m.enqueue(2)
    with pytest.raises(ValueError):
        m.dequeue(-1)

# ------------------------------------------------ paper access patterns

def test_alloc_trace_is_three_accesses():
    """'Dequeue Free List' = R head, R next, W head."""
    m = make()
    _slot, trace = m.alloc()
    assert [t.kind for t in trace] == ["R", "R", "W"]

def test_release_trace_is_four_accesses():
    """'Enqueue Free List' = R tail, W next[slot], W next[tail], W tail."""
    m = make()
    slot, _ = m.alloc()
    trace = m.release(slot)
    assert len(trace) == 4
    assert [t.kind for t in trace].count("W") == 3

def test_link_first_of_packet_is_four_accesses():
    """Table 3 footnote: first segment of the packet costs less (no
    packet-header read-modify-write)."""
    m = make()
    slot, _ = m.alloc()
    trace = m.link_segment(0, slot, SegmentMeta())
    assert len(trace) == 4

def test_link_rest_of_packet_is_six_accesses():
    """Non-first segments add the head-word RMW (68 vs 46 cycles)."""
    m = make()
    head, _ = m.alloc()
    m.link_segment(0, head, SegmentMeta())
    slot, _ = m.alloc()
    trace = m.link_segment(0, slot, SegmentMeta(), packet_head_slot=head)
    assert len(trace) == 6

def test_unlink_nonlast_is_three_accesses():
    m = make()
    m.enqueue(0)
    m.enqueue(0)
    _slot, _meta, trace = m.unlink_segment(0)
    assert len(trace) == 3

def test_unlink_last_clears_tail_four_accesses():
    m = make()
    m.enqueue(0)
    _slot, _meta, trace = m.unlink_segment(0)
    assert len(trace) == 4  # + W qtail = NIL
    with pytest.raises(QueueEmptyError):
        m.unlink_segment(0)

# ----------------------------------------------------------- invariants

@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["enq", "deq"]), st.integers(0, 3)),
                min_size=1, max_size=120))
def test_property_matches_reference_deques(ops):
    """The SRAM-backed queues behave exactly like Python deques, and
    slot conservation holds throughout."""
    from collections import deque

    m = make(queues=4, slots=32)
    ref = [deque() for _ in range(4)]
    n = 0
    for op, q in ops:
        if op == "enq":
            if m.free.free_count == 0:
                continue
            meta = SegmentMeta(eop=n % 2 == 0, length=1 + n % 64)
            slot, _ = m.enqueue(q, meta)
            ref[q].append((slot, meta))
            n += 1
        else:
            if not ref[q]:
                with pytest.raises(QueueEmptyError):
                    m.dequeue(q)
                continue
            want_slot, want_meta = ref[q].popleft()
            slot, meta, _ = m.dequeue(q)
            assert slot == want_slot
            assert meta == want_meta
        # conservation: free + queued == total
        queued = sum(len(r) for r in ref)
        assert m.free.free_count + queued == 32

def test_segment_meta_length_validation():
    with pytest.raises(ValueError):
        SegmentMeta(length=0)
    with pytest.raises(ValueError):
        SegmentMeta(length=65)

def test_constructor_validation():
    with pytest.raises(ValueError):
        SegmentQueueManager(0, 8)
    with pytest.raises(ValueError):
        SegmentQueueManager(2, 0)
