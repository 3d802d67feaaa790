"""Tests for the MMS two-level packet/segment queue structure."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.queueing import (
    OutOfBuffersError,
    PacketQueueManager,
    PointerMemory,
    QueueEmptyError,
)


def make(flows=8, segments=128, descriptors=32):
    return PacketQueueManager(num_flows=flows, num_segments=segments,
                              num_descriptors=descriptors)

def fill_packet(m, flow, nsegs, pid=0, last_length=64):
    slots = []
    for i in range(nsegs):
        eop = i == nsegs - 1
        slot, _ = m.enqueue_segment(flow, eop=eop,
                                    length=last_length if eop else 64,
                                    pid=pid, index=i)
        slots.append(slot)
    return slots

# ----------------------------------------------------------- semantics

def test_packet_only_visible_after_eop():
    m = make()
    m.enqueue_segment(0, eop=False)
    assert m.queued_packets(0) == 0
    assert m.open_segments(0) == 1
    with pytest.raises(QueueEmptyError):
        m.dequeue_segment(0)
    m.enqueue_segment(0, eop=True, length=20)
    assert m.queued_packets(0) == 1
    assert m.open_segments(0) == 0

def test_dequeue_returns_segments_in_order():
    m = make()
    fill_packet(m, 0, 3, pid=7, last_length=30)
    infos = [m.dequeue_segment(0)[0] for _ in range(3)]
    assert [i.index for i in infos] == [0, 1, 2]
    assert [i.eop for i in infos] == [False, False, True]
    assert infos[-1].length == 30
    assert all(i.pid == 7 for i in infos)
    assert m.queued_packets(0) == 0

def test_packets_fifo_per_flow():
    m = make()
    fill_packet(m, 0, 1, pid=1)
    fill_packet(m, 0, 2, pid=2)
    got = []
    while m.queued_segments(0):
        got.append(m.dequeue_segment(0)[0].pid)
    assert got == [1, 2, 2]

def test_interleaved_flows_keep_open_packets_separate():
    m = make()
    m.enqueue_segment(0, eop=False, pid=10)
    m.enqueue_segment(1, eop=False, pid=20)
    m.enqueue_segment(0, eop=True, pid=10)
    m.enqueue_segment(1, eop=True, pid=20)
    assert m.dequeue_segment(0)[0].pid == 10
    assert m.dequeue_segment(1)[0].pid == 20

def test_short_segment_only_at_eop():
    m = make()
    with pytest.raises(ValueError):
        m.enqueue_segment(0, eop=False, length=32)

def test_read_does_not_modify():
    m = make()
    fill_packet(m, 0, 2)
    info1, _ = m.read_segment(0)
    info2, _ = m.read_segment(0)
    assert info1.slot == info2.slot
    assert m.queued_segments(0) == 2

def test_overwrite_length_rewrites_head_segment():
    m = make()
    fill_packet(m, 0, 1, last_length=64)
    info, _ = m.overwrite_segment_length(0, 40)
    assert info.length == 40
    out, _ = m.dequeue_segment(0)
    assert out.length == 40

def test_overwrite_length_validation():
    m = make()
    fill_packet(m, 0, 2)  # head segment is mid-packet
    with pytest.raises(ValueError):
        m.overwrite_segment_length(0, 10)  # non-EOP must stay 64
    with pytest.raises(ValueError):
        m.overwrite_segment_length(0, 0)

def test_move_packet_appends_to_destination():
    m = make()
    fill_packet(m, 0, 2, pid=1)
    fill_packet(m, 1, 1, pid=2)
    m.move_packet(0, 1)
    assert m.queued_packets(0) == 0
    assert m.queued_packets(1) == 2
    assert m.queued_segments(1) == 3
    pids = []
    while m.queued_segments(1):
        pids.append(m.dequeue_segment(1)[0].pid)
    assert pids == [2, 1, 1]  # moved packet behind existing

def test_move_packet_to_empty_queue():
    m = make()
    fill_packet(m, 0, 2, pid=5)
    m.move_packet(0, 3)
    assert m.queued_packets(3) == 1
    assert m.dequeue_segment(3)[0].pid == 5

def test_move_then_dequeue_descriptor_next_cleared():
    """A moved packet's stale next link must not corrupt the new queue."""
    m = make()
    fill_packet(m, 0, 1, pid=1)
    fill_packet(m, 0, 1, pid=2)   # flow 0: [1, 2]
    m.move_packet(0, 1)           # move pkt 1 -> flow 1
    assert m.dequeue_segment(1)[0].pid == 1
    assert m.queued_packets(1) == 0  # no phantom follower
    assert m.dequeue_segment(0)[0].pid == 2

def test_move_same_queue_rejected():
    m = make()
    fill_packet(m, 0, 1)
    with pytest.raises(ValueError):
        m.move_packet(0, 0)

def test_move_empty_source_raises():
    m = make()
    with pytest.raises(QueueEmptyError):
        m.move_packet(0, 1)

def test_delete_segment_frees_slot():
    m = make(segments=16)
    fill_packet(m, 0, 2)
    before = m.free_segments
    m.delete_segment(0)
    assert m.free_segments == before + 1
    assert m.queued_segments(0) == 1

def test_delete_packet_frees_whole_chain():
    m = make(segments=16, descriptors=8)
    fill_packet(m, 0, 3, pid=1)
    fill_packet(m, 0, 2, pid=2)
    segs_before = m.free_segments
    descs_before = m.free_descriptors
    m.delete_packet(0)
    assert m.free_segments == segs_before + 3
    assert m.free_descriptors == descs_before + 1
    assert m.queued_packets(0) == 1
    assert m.dequeue_segment(0)[0].pid == 2

def test_delete_packet_slots_are_reusable():
    m = make(flows=2, segments=6, descriptors=4)
    fill_packet(m, 0, 3)
    fill_packet(m, 1, 3)
    m.delete_packet(0)
    fill_packet(m, 0, 3)  # must not raise: chain fully recycled
    assert m.free_segments == 0

def test_append_head_prepends_header_segment():
    m = make()
    fill_packet(m, 0, 2, pid=3, last_length=10)
    slot, _ = m.append_head(0, pid=99)
    infos = []
    while m.queued_segments(0):
        infos.append(m.dequeue_segment(0)[0])
    assert infos[0].slot == slot
    assert infos[0].length == 64
    assert not infos[0].eop
    assert infos[-1].eop
    assert len(infos) == 3

def test_append_tail_moves_eop():
    m = make()
    fill_packet(m, 0, 2, last_length=64)
    slot, _ = m.append_tail(0, length=12)
    infos = []
    while m.queued_segments(0):
        infos.append(m.dequeue_segment(0)[0])
    assert [i.eop for i in infos] == [False, False, True]
    assert infos[-1].slot == slot
    assert infos[-1].length == 12

def test_append_tail_behind_short_segment_rejected():
    m = make()
    fill_packet(m, 0, 1, last_length=30)
    with pytest.raises(ValueError):
        m.append_tail(0)

def test_append_on_empty_queue_raises():
    m = make()
    with pytest.raises(QueueEmptyError):
        m.append_head(0)
    with pytest.raises(QueueEmptyError):
        m.append_tail(0)

def test_failed_appends_leave_no_trace():
    """A raising append pops no free segment and changes no state, on
    an empty flow and behind a short last segment alike."""
    m = make(segments=16)
    for call in (lambda: m.append_head(0), lambda: m.append_tail(0)):
        before = m.state_dict()
        with pytest.raises(QueueEmptyError):
            call()
        assert m.free_segments == 16
        assert m.state_dict() == before
    fill_packet(m, 1, 1, last_length=30)
    before = m.state_dict()
    with pytest.raises(ValueError, match="short last segment"):
        m.append_tail(1)
    assert m.free_segments == 15
    assert m.state_dict() == before

def test_overwrite_length_and_move_combined():
    m = make()
    fill_packet(m, 0, 1, last_length=64)
    fill_packet(m, 2, 1, pid=8)
    m.overwrite_length_and_move(0, 2, 25)
    assert m.queued_packets(2) == 2
    first = m.dequeue_segment(2)[0]
    moved = m.dequeue_segment(2)[0]
    assert first.pid == 8
    assert moved.length == 25

def test_overwrite_and_move_returns_data_slot():
    m = make()
    slots = fill_packet(m, 0, 2)
    info, _ = m.overwrite_and_move(0, 1)
    assert info.slot == slots[0]
    assert m.queued_packets(1) == 1

def test_exhaustion_raises():
    m = make(segments=2, descriptors=8)
    fill_packet(m, 0, 2)
    with pytest.raises(OutOfBuffersError):
        m.enqueue_segment(1, eop=True)

def test_flow_bounds_validation():
    m = make(flows=2)
    with pytest.raises(ValueError):
        m.enqueue_segment(2, eop=True)
    with pytest.raises(ValueError):
        m.move_packet(0, 5)

# ------------------------------------------------ access-count contract
# These counts are the input to the MMS microcode schedules (Table 4);
# see repro.core.microcode which cross-checks against them.

def test_trace_enqueue_mid_packet_is_six():
    m = make()
    m.enqueue_segment(0, eop=False)
    _slot, trace = m.enqueue_segment(0, eop=False)
    assert len(trace) == 6

def test_trace_enqueue_first_is_six():
    m = make()
    _slot, trace = m.enqueue_segment(0, eop=False)
    assert len(trace) == 6

def test_trace_dequeue_mid_packet_is_six():
    m = make()
    fill_packet(m, 0, 3)
    _info, trace = m.dequeue_segment(0)
    assert len(trace) == 6

def test_trace_read_is_three():
    m = make()
    fill_packet(m, 0, 1)
    _info, trace = m.read_segment(0)
    assert len(trace) == 3

def test_trace_overwrite_length_is_four():
    m = make()
    fill_packet(m, 0, 1)
    _info, trace = m.overwrite_segment_length(0, 64)
    assert len(trace) == 4

def test_trace_move_nonempty_dst_is_eight():
    m = make()
    fill_packet(m, 0, 1)
    fill_packet(m, 1, 1)
    trace = m.move_packet(0, 1)
    assert len(trace) == 8

def test_trace_delete_segment_is_six():
    m = make()
    fill_packet(m, 0, 2)
    _info, trace = m.delete_segment(0)
    assert len(trace) == 6

def test_trace_combined_ow_len_move_is_ten():
    m = make()
    fill_packet(m, 0, 1)
    fill_packet(m, 1, 1)
    trace = m.overwrite_length_and_move(0, 1, 64)
    assert len(trace) == 10

def test_trace_combined_ow_move_is_nine():
    m = make()
    fill_packet(m, 0, 1)
    fill_packet(m, 1, 1)
    _info, trace = m.overwrite_and_move(0, 1)
    assert len(trace) == 9

def test_trace_delete_packet_is_seven():
    m = make()
    fill_packet(m, 0, 2)
    fill_packet(m, 0, 1)
    trace = m.delete_packet(0)
    assert len(trace) == 7

# ----------------------------------------------------------- invariants

@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["enq", "deq", "move", "delpkt", "read"]),
              st.integers(0, 3), st.integers(0, 3), st.integers(1, 4)),
    min_size=1, max_size=80))
def test_property_conservation_and_fifo(ops):
    """Random command mixes preserve slot conservation and per-flow
    packet FIFO order, mirrored against a pure-Python model."""
    m = make(flows=4, segments=64, descriptors=24)
    ref = {f: [] for f in range(4)}   # flow -> list of (pid, nsegs-left)
    pid = 0
    for op, f, g, n in ops:
        if op == "enq":
            if m.free_segments < n or m.free_descriptors == 0:
                continue
            for i in range(n):
                m.enqueue_segment(f, eop=(i == n - 1), pid=pid, index=i)
            ref[f].append([pid, n])
            pid += 1
        elif op == "deq":
            if not ref[f]:
                with pytest.raises(QueueEmptyError):
                    m.dequeue_segment(f)
                continue
            info, _ = m.dequeue_segment(f)
            assert info.pid == ref[f][0][0]
            ref[f][0][1] -= 1
            if ref[f][0][1] == 0:
                ref[f].pop(0)
        elif op == "move":
            if f == g:
                continue
            if not ref[f] or ref[f][0][1] != _full_head_segments(ref[f]):
                # only move complete head packets in this test harness
                pass
            if not ref[f]:
                with pytest.raises(QueueEmptyError):
                    m.move_packet(f, g)
                continue
            m.move_packet(f, g)
            ref[g].append(ref[f].pop(0))
        elif op == "delpkt":
            if not ref[f]:
                with pytest.raises(QueueEmptyError):
                    m.delete_packet(f)
                continue
            m.delete_packet(f)
            ref[f].pop(0)
        elif op == "read":
            if not ref[f]:
                with pytest.raises(QueueEmptyError):
                    m.read_segment(f)
                continue
            info, _ = m.read_segment(f)
            assert info.pid == ref[f][0][0]
        # conservation: free + queued (+ nothing open in this harness)
        queued = sum(m.queued_segments(i) for i in range(4))
        assert m.free_segments + queued == 64
        for i in range(4):
            assert m.queued_packets(i) == len(ref[i])

def _full_head_segments(entries):
    return entries[0][1] if entries else 0

def test_walk_packets_structure():
    m = make()
    s1 = fill_packet(m, 0, 2, pid=1)
    s2 = fill_packet(m, 0, 1, pid=2)
    assert m.walk_packets(0) == [s1, s2]

def test_constructor_validation():
    with pytest.raises(ValueError):
        PacketQueueManager(0, 8)
    with pytest.raises(ValueError):
        PacketQueueManager(2, 0)


@pytest.mark.parametrize("sizes, bad", [
    ({"num_segments": 8, "num_descriptors": 0},
     r"num_descriptors must be in \[1, 16777215\].* got 0"),
    ({"num_segments": 0, "num_descriptors": 8}, "num_segments .* got 0"),
    ({"num_segments": 2 ** 24}, "num_segments .* got 16777216"),
    ({"num_segments": 8, "num_descriptors": 2 ** 24},
     "num_descriptors .* got 16777216"),
])
def test_sizes_a_link_cannot_encode_are_refused_before_allocating(
        monkeypatch, sizes, bad):
    """A 24-bit link stores slot + 1, so slot 2**24 - 1 would encode as
    NIL; and 0 descriptors is an error, not "as many as segments"."""
    def refuse(*_args):
        raise AssertionError("allocated before validating")

    monkeypatch.setattr(PointerMemory, "add_region", refuse)
    with pytest.raises(ValueError, match=bad):
        PacketQueueManager(num_flows=2, **sizes)


def test_largest_encodable_sizes_pass_validation(monkeypatch):
    reached = []

    def stop(_mem, name, words):
        reached.append((name, words))
        raise LookupError("stop before allocating")

    monkeypatch.setattr(PointerMemory, "add_region", stop)
    with pytest.raises(LookupError):
        PacketQueueManager(num_flows=2, num_segments=2 ** 24 - 1)
    assert reached == [("seg_next", 2 ** 24 - 1)]
