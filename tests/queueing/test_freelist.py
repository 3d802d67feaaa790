"""Tests for free-list management: the software list with its anchors
in SRAM (``FreeList``) and the MMS list with its anchors in registers
(``RegisterFreeList``)."""

import pytest

from repro.queueing import FreeList, OutOfBuffersError, PointerMemory
from repro.queueing.freelist import RegisterFreeList

LINK_MASK = (1 << 24) - 1


def make(slots=8, anchors_in_memory=True):
    pm = PointerMemory()
    pm.add_region("next", slots)
    pm.add_region("globals", 2)
    pm.freeze()
    if anchors_in_memory:
        fl = FreeList(pm, slots)
        fl.initialize()
    else:
        fl = RegisterFreeList(pm.region("next"), LINK_MASK)
    pm.reset_counters()
    return pm, fl

def test_pop_returns_all_slots_once():
    _pm, fl = make(8)
    slots = [fl.pop() for _ in range(8)]
    assert sorted(slots) == list(range(8))
    assert fl.free_count == 0

def test_pop_empty_raises():
    _pm, fl = make(2)
    fl.pop()
    fl.pop()
    with pytest.raises(OutOfBuffersError):
        fl.pop()


def test_pop_empty_error_carries_occupancy_context():
    """Exhaustion must say how full the buffer is, not just 'empty'."""
    _pm, fl = make(3)
    for _ in range(3):
        fl.pop()
    with pytest.raises(OutOfBuffersError, match=r"3 of 3 slots in use") as ei:
        fl.pop()
    assert ei.value.slots_in_use == 3
    assert ei.value.num_slots == 3


def test_pop_empty_error_context_after_partial_release():
    _pm, fl = make(4)
    slots = [fl.pop() for _ in range(4)]
    fl.push(slots[0])
    fl.pop()
    with pytest.raises(OutOfBuffersError) as ei:
        fl.pop()
    assert ei.value.slots_in_use == 4 and ei.value.num_slots == 4


def test_push_recovers_from_exhaustion():
    """After the exhaustion error, a push makes pop usable again."""
    _pm, fl = make(2)
    a = fl.pop()
    fl.pop()
    with pytest.raises(OutOfBuffersError):
        fl.pop()
    fl.push(a)
    assert fl.pop() == a
    assert fl.free_count == 0


def test_push_chain_recovers_from_exhaustion():
    """The MMS delete-packet path: splice a chain back after running
    dry and keep allocating."""
    pm, fl = make(4, anchors_in_memory=False)
    slots = [fl.pop(None) for _ in range(4)]
    with pytest.raises(OutOfBuffersError):
        fl.pop(None)
    # hand-link slots[0] -> slots[1] -> slots[2] and splice the chain
    pm.write("next", slots[0], slots[1] + 1)
    pm.write("next", slots[1], slots[2] + 1)
    fl.push(slots[0], slots[2], 3, None)
    assert fl.free == 3
    assert [fl.pop(None) for _ in range(3)] == slots[:3]
    with pytest.raises(OutOfBuffersError) as ei:
        fl.pop(None)
    assert ei.value.slots_in_use == 4

def test_push_pop_cycle_preserves_count():
    _pm, fl = make(4)
    a = fl.pop()
    b = fl.pop()
    fl.push(a)
    fl.push(b)
    assert fl.free_count == 4
    # all four still allocatable
    got = sorted(fl.pop() for _ in range(4))
    assert got == [0, 1, 2, 3]

def test_push_appends_at_tail_fifo_recycling():
    """Freed slots are reused last (tail append), not immediately."""
    _pm, fl = make(4)
    first = fl.pop()
    fl.push(first)
    # the other three slots come out before the recycled one
    order = [fl.pop() for _ in range(4)]
    assert order[-1] == first

def test_uninitialized_use_raises():
    pm = PointerMemory()
    pm.add_region("next", 4)
    pm.add_region("globals", 2)
    pm.freeze()
    fl = FreeList(pm, 4)
    with pytest.raises(RuntimeError):
        fl.pop()
    with pytest.raises(RuntimeError):
        fl.push(0)

def test_slot_bounds_checked():
    _pm, fl = make(4)
    with pytest.raises(ValueError):
        fl.push(4)
    with pytest.raises(ValueError):
        fl.push(-1)

def test_anchor_in_memory_access_counts():
    """Software free list: pop = R head, R next, W head (3 accesses);
    push = R tail, W next[slot], W next[tail], W tail (4 accesses).
    These are the 'Dequeue/Enqueue Free List' rows of Table 3."""
    pm, fl = make(8, anchors_in_memory=True)
    pm.start_trace()
    slot = fl.pop()
    assert len(pm.end_trace()) == 3
    pm.start_trace()
    fl.push(slot)
    assert len(pm.end_trace()) == 4

def test_register_anchor_access_counts():
    """Hardware free list: anchors in flip-flops; pop = 1 read,
    push = 2 writes -- recorded, returned and counted alike."""
    pm, fl = make(8, anchors_in_memory=False)
    rec = pm.start_trace()
    slot = fl.pop(rec)
    assert len(pm.end_trace(1)) == 1
    rec = pm.start_trace()
    assert fl.push(slot, slot, 1, rec) == 2
    assert len(pm.end_trace(2)) == 2
    assert (pm.total_reads, pm.total_writes) == (1, 2)

def test_push_chain_splices_in_constant_accesses():
    pm, fl = make(8, anchors_in_memory=False)
    a, b, c = fl.pop(None), fl.pop(None), fl.pop(None)
    # hand-link a -> b -> c through the next region
    pm.write("next", a, b + 1)
    pm.write("next", b, c + 1)
    pm.reset_counters()
    rec = pm.start_trace()
    n = fl.push(a, c, 3, rec)
    trace = pm.end_trace(n)
    assert len(trace) == 2  # W next[last]=NIL, W next[old_tail]=first
    assert fl.free == 8
    assert sorted(fl.pop(None) for _ in range(8)) == list(range(8))

def test_push_chain_validation():
    _pm, fl = make(4, anchors_in_memory=False)
    with pytest.raises(ValueError):
        fl.push(0, 1, 0, None)
    with pytest.raises(ValueError):
        fl.push(0, 9, 1, None)
    with pytest.raises(ValueError):
        fl.push(-1, 1, 1, None)

def test_link_mask_strips_metadata_on_pop():
    """Interior words of a spliced chain keep packed metadata above the
    link field; pop must mask it off."""
    pm, fl = make(4, anchors_in_memory=False)
    a, b = fl.pop(None), fl.pop(None)
    meta_bits = 1 << 24  # pretend EOP bit
    pm.write("next", a, (b + 1) | meta_bits)
    fl.push(a, b, 2, None)
    got_a = fl.pop(None)  # reads a's word, must mask the meta bits
    assert got_a is not None
    got_rest = [fl.pop(None) for _ in range(3)]
    assert sorted([got_a] + got_rest) == [0, 1, 2, 3]

def test_zero_slots_rejected():
    pm = PointerMemory()
    pm.add_region("next", 1)
    pm.add_region("globals", 2)
    pm.freeze()
    with pytest.raises(ValueError):
        FreeList(pm, 0)
