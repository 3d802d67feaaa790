"""Golden pointer-access traces of every ``PacketQueueManager`` command.

Tables 3 and 4 are priced from these sequences: the MMS pays one
pipelined SRAM cycle per access, and :mod:`repro.core.microcode` checks
its schedules against the trace lengths.  The length tests in
``test_packet_queues.py`` would not notice a reordered access or one
aimed at the wrong region, so each command branch is pinned here as its
full ``(kind, region, index)`` sequence.

Every case starts from a fresh 4-flow, 16-segment, 8-descriptor
manager (boot free lists: slot ``k`` links to ``k + 1``), builds the
state it names, and records the trace of the last command.
"""

import pytest

from repro.queueing import PacketQueueManager


def make(flows=4, segments=16, descriptors=8):
    return PacketQueueManager(num_flows=flows, num_segments=segments,
                              num_descriptors=descriptors)


def packet(m, flow, nsegs, last=64):
    for i in range(nsegs):
        eop = i == nsegs - 1
        m.enqueue_segment(flow, eop=eop, length=last if eop else 64)


def enqueue_first_segment(m):
    packet(m, 1, 1)
    return m.enqueue_segment(0, eop=False)[1]


def enqueue_middle_segment(m):
    m.enqueue_segment(0, eop=False)
    return m.enqueue_segment(0, eop=False)[1]


def enqueue_single_segment_packet_into_empty_queue(m):
    packet(m, 1, 1)
    return m.enqueue_segment(0, eop=True, length=40)[1]


def enqueue_single_segment_packet_into_nonempty_queue(m):
    packet(m, 0, 2)
    return m.enqueue_segment(0, eop=True)[1]


def enqueue_eop_into_empty_queue(m):
    m.enqueue_segment(0, eop=False)
    return m.enqueue_segment(0, eop=True, length=12)[1]


def enqueue_eop_into_nonempty_queue(m):
    packet(m, 0, 1)
    m.enqueue_segment(0, eop=False)
    return m.enqueue_segment(0, eop=True)[1]


def dequeue_middle_segment(m):
    packet(m, 0, 3)
    return m.dequeue_segment(0)[1]


def dequeue_last_segment_queue_drains(m):
    packet(m, 0, 1)
    return m.dequeue_segment(0)[1]


def dequeue_last_segment_queue_keeps_packets(m):
    packet(m, 0, 1)
    packet(m, 0, 2)
    return m.dequeue_segment(0)[1]


def dequeue_onto_drained_free_lists(_m):
    # every slot and descriptor in use: the first push onto an empty
    # free list writes no predecessor link
    m = make(flows=2, segments=2, descriptors=1)
    packet(m, 0, 2)
    return m.dequeue_segment(0)[1] + m.dequeue_segment(0)[1]


def delete_middle_segment(m):
    packet(m, 0, 2)
    return m.delete_segment(0)[1]


def delete_last_segment(m):
    packet(m, 0, 1)
    packet(m, 0, 1)
    return m.delete_segment(0)[1]


def read(m):
    packet(m, 0, 2)
    return m.read_segment(0)[1]


def overwrite(m):
    packet(m, 0, 1)
    return m.overwrite_segment(0)[1]


def overwrite_length(m):
    packet(m, 0, 1)
    return m.overwrite_segment_length(0, 33)[1]


def move_to_empty_queue(m):
    packet(m, 0, 2)
    packet(m, 0, 1)
    return m.move_packet(0, 2)


def move_to_nonempty_queue(m):
    packet(m, 0, 1)
    packet(m, 2, 1)
    return m.move_packet(0, 2)


def overwrite_length_and_move(m):
    packet(m, 0, 1)
    packet(m, 1, 1)
    return m.overwrite_length_and_move(0, 1, 20)


def overwrite_and_move(m):
    packet(m, 0, 2)
    packet(m, 1, 1)
    return m.overwrite_and_move(0, 1)[1]


def delete_packet(m):
    packet(m, 0, 3)
    packet(m, 0, 1)
    return m.delete_packet(0)


def drop_tail_packet_single(m):
    packet(m, 0, 2)
    return m.drop_tail_packet(0)[2]


def drop_tail_packet_behind_others(m):
    packet(m, 0, 1)
    packet(m, 0, 1)
    packet(m, 0, 2)
    return m.drop_tail_packet(0)[2]


def append_head(m):
    packet(m, 0, 2)
    return m.append_head(0)[1]


def append_tail(m):
    packet(m, 0, 2)
    return m.append_tail(0, length=9)[1]


R, W = "R", "W"
SN, DS, QA, QB = "seg_next", "desc", "queue_a", "queue_b"

GOLDEN = {
    enqueue_first_segment: [
        (R, SN, 1), (R, QB, 0), (R, DS, 1), (W, DS, 1), (W, SN, 1),
        (W, QB, 0)],
    enqueue_middle_segment: [
        (R, SN, 1), (R, QB, 0), (R, DS, 0), (W, SN, 0), (W, SN, 1),
        (W, DS, 0)],
    enqueue_single_segment_packet_into_empty_queue: [
        (R, SN, 1), (R, QB, 0), (R, DS, 1), (W, DS, 1), (W, SN, 1),
        (R, QA, 0), (W, QA, 0)],
    enqueue_single_segment_packet_into_nonempty_queue: [
        (R, SN, 2), (R, QB, 0), (R, DS, 1), (W, DS, 1), (W, SN, 2),
        (R, QA, 0), (R, DS, 0), (W, DS, 0), (W, QA, 0)],
    enqueue_eop_into_empty_queue: [
        (R, SN, 1), (R, QB, 0), (R, DS, 0), (W, SN, 0), (W, SN, 1),
        (W, DS, 0), (R, QA, 0), (W, QA, 0), (W, QB, 0)],
    enqueue_eop_into_nonempty_queue: [
        (R, SN, 2), (R, QB, 0), (R, DS, 1), (W, SN, 1), (W, SN, 2),
        (W, DS, 1), (R, QA, 0), (R, DS, 0), (W, DS, 0), (W, QA, 0),
        (W, QB, 0)],
    dequeue_middle_segment: [
        (R, QA, 0), (R, DS, 0), (R, SN, 0), (W, DS, 0), (W, SN, 0),
        (W, SN, 15)],
    dequeue_last_segment_queue_drains: [
        (R, QA, 0), (R, DS, 0), (R, SN, 0), (W, QA, 0), (W, DS, 0),
        (W, DS, 7), (W, SN, 0), (W, SN, 15)],
    dequeue_last_segment_queue_keeps_packets: [
        (R, QA, 0), (R, DS, 0), (R, SN, 0), (W, QA, 0), (W, DS, 0),
        (W, DS, 7), (W, SN, 0), (W, SN, 15)],
    dequeue_onto_drained_free_lists: [
        (R, QA, 0), (R, DS, 0), (R, SN, 0), (W, DS, 0), (W, SN, 0),
        (R, QA, 0), (R, DS, 0), (R, SN, 1), (W, QA, 0), (W, DS, 0),
        (W, SN, 1), (W, SN, 0)],
    delete_middle_segment: [
        (R, QA, 0), (R, DS, 0), (R, SN, 0), (W, DS, 0), (W, SN, 0),
        (W, SN, 15)],
    delete_last_segment: [
        (R, QA, 0), (R, DS, 0), (R, SN, 0), (W, QA, 0), (W, DS, 0),
        (W, DS, 7), (W, SN, 0), (W, SN, 15)],
    read: [(R, QA, 0), (R, DS, 0), (R, SN, 0)],
    overwrite: [(R, QA, 0), (R, DS, 0), (R, SN, 0)],
    overwrite_length: [(R, QA, 0), (R, DS, 0), (R, SN, 0), (W, SN, 0)],
    move_to_empty_queue: [
        (R, QA, 0), (R, DS, 0), (W, QA, 0), (W, DS, 0), (R, QA, 2),
        (W, QA, 2)],
    move_to_nonempty_queue: [
        (R, QA, 0), (R, DS, 0), (W, QA, 0), (W, DS, 0), (R, QA, 2),
        (R, DS, 1), (W, DS, 1), (W, QA, 2)],
    overwrite_length_and_move: [
        (R, QA, 0), (R, DS, 0), (W, QA, 0), (W, DS, 0), (R, SN, 0),
        (W, SN, 0), (R, QA, 1), (R, DS, 1), (W, DS, 1), (W, QA, 1)],
    overwrite_and_move: [
        (R, QA, 0), (R, DS, 0), (W, QA, 0), (W, DS, 0), (R, SN, 0),
        (R, QA, 1), (R, DS, 1), (W, DS, 1), (W, QA, 1)],
    delete_packet: [
        (R, QA, 0), (R, DS, 0), (W, QA, 0), (W, SN, 2), (W, SN, 15),
        (W, DS, 0), (W, DS, 7)],
    drop_tail_packet_single: [
        (R, QA, 0), (W, QA, 0), (R, DS, 0), (W, SN, 1), (W, SN, 15),
        (W, DS, 0), (W, DS, 7)],
    drop_tail_packet_behind_others: [
        (R, QA, 0), (W, DS, 1), (W, QA, 0), (R, DS, 2), (W, SN, 3),
        (W, SN, 15), (W, DS, 2), (W, DS, 7)],
    append_head: [
        (R, SN, 2), (R, QA, 0), (R, DS, 0), (W, SN, 2), (W, DS, 0)],
    append_tail: [
        (R, SN, 2), (R, QA, 0), (R, DS, 0), (R, SN, 1), (W, SN, 1),
        (W, SN, 2), (W, DS, 0)],
}


@pytest.mark.parametrize("command", list(GOLDEN), ids=lambda f: f.__name__)
def test_access_sequence_is_pinned(command):
    trace = command(make())
    assert [(a.kind, a.region, a.index) for a in trace] == GOLDEN[command]
