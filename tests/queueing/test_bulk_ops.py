"""Bulk queueing operations: identity against their per-word loops.

``RegisterFreeList.reserve`` and ``PacketQueueManager.bulk_prefill`` exist
only for speed; these tests pin the contract that makes them safe -- state
and access counters equal to the sequential operations they replace,
bit for bit.
"""

import pytest

from repro.policies import PolicySpec, make_policy
from repro.queueing import PacketQueueManager
from repro.queueing.freelist import NIL, OutOfBuffersError, RegisterFreeList
from repro.queueing.packet_queues import LINK_MASK
from repro.queueing.pointer_memory import PointerMemory


def fresh_mem(slots=64):
    mem = PointerMemory()
    mem.add_region("next", slots)
    mem.freeze()
    return mem, RegisterFreeList(mem.region("next"), LINK_MASK)


def state(mem, fl):
    return mem.state_dict(), fl.state_dict()


@pytest.mark.parametrize("count", [1, 7, 64])
def test_reserve_equals_pop_loop(count):
    mem_a, fl_a = fresh_mem()
    mem_b, fl_b = fresh_mem()
    popped = [fl_a.pop(None) for _ in range(count)]
    reserved = fl_b.reserve(count)
    assert popped == reserved
    assert state(mem_a, fl_a) == state(mem_b, fl_b)


def test_reserve_equals_pop_loop_after_churn():
    """A recycled (non-virgin) chain takes the generic walk."""
    mem_a, fl_a = fresh_mem()
    mem_b, fl_b = fresh_mem()
    for fl in (fl_a, fl_b):
        taken = [fl.pop(None) for _ in range(10)]
        for s in reversed(taken):
            fl.push(s, s, 1, None)
    popped = [fl_a.pop(None) for _ in range(20)]
    assert popped == fl_b.reserve(20)
    assert state(mem_a, fl_a) == state(mem_b, fl_b)


def test_reserve_rejects_oversubscription_without_state_change():
    mem, fl = fresh_mem(slots=8)
    before = state(mem, fl)
    with pytest.raises(OutOfBuffersError):
        fl.reserve(9)
    assert state(mem, fl) == before


def test_reserve_drains_tail_anchor():
    _mem, fl = fresh_mem(slots=8)
    fl.reserve(8)
    assert fl.free == 0
    assert fl.head == NIL and fl.tail == NIL


# -------------------------------------------------------- bulk_prefill

def build_pqm(policy_name=None):
    policy = None
    if policy_name:
        policy = make_policy(PolicySpec(name=policy_name), capacity=512)
    return PacketQueueManager(num_flows=32, num_segments=512,
                              num_descriptors=256, policy=policy)


def pqm_state(pqm):
    # words and counters per region, free-list registers, per-slot
    # shadows and per-flow depths
    st = pqm.state_dict()
    if pqm.policy is not None:
        st["policy"] = (dict(pqm.policy.queue_segments),
                        dict(pqm.policy.queue_bytes),
                        pqm.policy.total_segments, pqm.policy.total_bytes)
    return st


@pytest.mark.parametrize("policy_name", [None, "taildrop", "lqd"])
def test_bulk_prefill_equals_enqueue_loop(policy_name):
    a = build_pqm(policy_name)
    b = build_pqm(policy_name)
    flows = range(8)
    n_loop = 0
    for f in flows:
        for _ in range(5):
            a.enqueue_segment(f, eop=True, pid=-2, index=0)
            n_loop += 1
    assert b.bulk_prefill(flows, 5) == n_loop
    assert pqm_state(a) == pqm_state(b)


def test_bulk_prefill_multiseg_falls_back_to_loop():
    a = build_pqm()
    b = build_pqm()
    for f in range(4):
        for _p in range(2):
            for s in range(3):
                a.enqueue_segment(f, eop=(s == 2), pid=-2, index=s)
    assert b.bulk_prefill(range(4), 2, segments_per_packet=3) == 24
    assert pqm_state(a) == pqm_state(b)


def test_bulk_prefill_nonfresh_flow_falls_back():
    a = build_pqm()
    b = build_pqm()
    for pqm in (a, b):
        pqm.enqueue_segment(3, eop=True)
    for f in (3, 4):
        for _ in range(2):
            a.enqueue_segment(f, eop=True, pid=-2, index=0)
    assert b.bulk_prefill((3, 4), 2) == 4
    assert pqm_state(a) == pqm_state(b)


def test_bulk_prefill_then_operations_work():
    pqm = build_pqm()
    pqm.bulk_prefill(range(4), 3)
    info, _ = pqm.dequeue_segment(0)
    assert info.eop and info.length == 64 and info.pid == -2
    assert pqm.queued_packets(0) == 2
    pqm.move_packet(1, 2)
    assert pqm.queued_packets(2) == 4
    trace = pqm.delete_packet(2)
    assert trace
