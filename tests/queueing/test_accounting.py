"""Access accounting of the columnar pointer memory.

The MMS queue manager counts most of its accesses on the region words
directly instead of through ``PointerMemory.read``/``write``, and builds
``AccessRecord`` objects only while a recording trace is open.  These
tests hold the three things that must stay true:

* every operation's per-region counter deltas equal the R/W tallies of
  the traces it ended (push-outs included),
* a count-only run and a recording run of the same script agree on every
  trace length and end in identical state (words, counters, free-list
  registers, shadow columns, per-flow counts),
* out-of-range flows and negative memory indexes raise instead of
  wrapping around the word lists.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.policies import PolicySpec, make_policy
from repro.queueing import (
    OutOfBuffersError,
    PacketQueueManager,
    PointerMemory,
    QueueEmptyError,
)

FLOWS = 4
SEGMENTS = 24
DESCRIPTORS = 12

OPS = ("enqueue", "dequeue", "delete", "read", "overwrite",
       "overwrite_length", "move", "delete_packet", "ow_length_move",
       "ow_move", "append_head", "append_tail", "drop_tail")


def run_op(pqm, op, flow, other, length, eop):
    if op == "enqueue":
        return pqm.admit_enqueue(flow, eop=eop,
                                 length=length if eop else 64)
    if op == "dequeue":
        return pqm.dequeue_segment(flow)
    if op == "delete":
        return pqm.delete_segment(flow)
    if op == "read":
        return pqm.read_segment(flow)
    if op == "overwrite":
        return pqm.overwrite_segment(flow)
    if op == "overwrite_length":
        return pqm.overwrite_segment_length(flow, length)
    if op == "move":
        return pqm.move_packet(flow, other)
    if op == "delete_packet":
        return pqm.delete_packet(flow)
    if op == "ow_length_move":
        return pqm.overwrite_length_and_move(flow, other, length)
    if op == "ow_move":
        return pqm.overwrite_and_move(flow, other)
    if op == "append_head":
        return pqm.append_head(flow)
    if op == "append_tail":
        return pqm.append_tail(flow, length=length)
    return pqm.drop_tail_packet(flow)


def build(policy_name, count_only):
    policy = None
    if policy_name is not None:
        policy = make_policy(PolicySpec(policy_name), capacity=SEGMENTS,
                             seed=11)
    pqm = PacketQueueManager(num_flows=FLOWS, num_segments=SEGMENTS,
                             num_descriptors=DESCRIPTORS, policy=policy)
    pqm.mem.count_only_traces = count_only
    ended = []
    orig_end = pqm.mem.end_trace

    def end_trace(*direct):
        trace = orig_end(*direct)
        ended.append(trace)
        return trace

    pqm.mem.end_trace = end_trace
    return pqm, ended


def counters(mem):
    tally = Counter()
    for name, region in mem.state_dict().items():
        tally["R", name] = region["reads"]
        tally["W", name] = region["writes"]
    return tally


#: Enqueues, end-of-packet segments and full lengths weighted up, so
#: that scripts publish packets for the other commands to work on.
script = st.lists(
    st.tuples(st.sampled_from(("enqueue",) * 6 + OPS),
              st.integers(0, FLOWS - 1), st.integers(0, FLOWS - 1),
              st.sampled_from((64, 64, 64, 1, 17, 63)),
              st.sampled_from((True, True, False))),
    min_size=10, max_size=80)


@settings(max_examples=60, deadline=None)
@given(script, st.sampled_from([None, "lqd", "red"]))
def test_counters_traces_and_count_only_runs_agree(ops, policy_name):
    rec_pqm, rec_ended = build(policy_name, count_only=False)
    cnt_pqm, cnt_ended = build(policy_name, count_only=True)
    for op, flow, other, length, eop in ops:
        before = counters(rec_pqm.mem)
        first_trace = len(rec_ended)
        outcomes = []
        for pqm in (rec_pqm, cnt_pqm):
            try:
                run_op(pqm, op, flow, other, length, eop)
                outcomes.append(None)
            except (QueueEmptyError, ValueError, OutOfBuffersError) as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1]
        if outcomes[0] is not None:
            continue
        traces = rec_ended[first_trace:]
        tally = Counter((a.kind, a.region) for t in traces for a in t)
        delta = counters(rec_pqm.mem)
        delta.subtract(before)
        assert +delta == tally, op
        assert [len(t) for t in cnt_ended[first_trace:]] \
            == [len(t) for t in traces], op
        assert all(isinstance(t, range) for t in cnt_ended[first_trace:])
        del rec_ended[first_trace:], cnt_ended[first_trace:]
    assert len(rec_ended) == len(cnt_ended)
    assert rec_pqm.state_dict() == cnt_pqm.state_dict()
    if policy_name is not None:
        assert rec_pqm.policy.state_dict() == cnt_pqm.policy.state_dict()


PQM_CALLS = {
    "enqueue_segment": lambda m, f: m.enqueue_segment(f, eop=True),
    "admit_enqueue": lambda m, f: m.admit_enqueue(f, eop=True),
    "dequeue_segment": lambda m, f: m.dequeue_segment(f),
    "delete_segment": lambda m, f: m.delete_segment(f),
    "read_segment": lambda m, f: m.read_segment(f),
    "overwrite_segment": lambda m, f: m.overwrite_segment(f),
    "overwrite_segment_length":
        lambda m, f: m.overwrite_segment_length(f, 64),
    "move_packet(src)": lambda m, f: m.move_packet(f, 0),
    "move_packet(dst)": lambda m, f: m.move_packet(0, f),
    "delete_packet": lambda m, f: m.delete_packet(f),
    "drop_tail_packet": lambda m, f: m.drop_tail_packet(f),
    "overwrite_length_and_move":
        lambda m, f: m.overwrite_length_and_move(0, f, 64),
    "overwrite_and_move": lambda m, f: m.overwrite_and_move(f, 0),
    "append_head": lambda m, f: m.append_head(f),
    "append_tail": lambda m, f: m.append_tail(f),
    "queued_packets": lambda m, f: m.queued_packets(f),
    "walk_packets": lambda m, f: m.walk_packets(f),
}


@pytest.mark.parametrize("call", list(PQM_CALLS))
@pytest.mark.parametrize("flow", [-1, FLOWS])
def test_out_of_range_flows_raise(call, flow):
    pqm = PacketQueueManager(num_flows=FLOWS, num_segments=SEGMENTS,
                             num_descriptors=DESCRIPTORS)
    pqm.enqueue_segment(0, eop=True)
    pqm.enqueue_segment(FLOWS - 1, eop=True)
    before = pqm.state_dict()
    with pytest.raises(ValueError, match="out of range"):
        PQM_CALLS[call](pqm, flow)
    assert pqm.state_dict() == before


@pytest.mark.parametrize("access", ["read", "write", "peek"])
@pytest.mark.parametrize("index", [-1, -4, 4])
def test_memory_indexes_outside_a_region_raise(access, index):
    pm = PointerMemory()
    pm.add_region("a", 4)
    pm.add_region("b", 4)
    pm.freeze()
    args = (7,) if access == "write" else ()
    with pytest.raises(IndexError, match="out of range"):
        getattr(pm, access)("b", index, *args)
    assert pm.state_dict()["a"]["words"] == [0] * 4
    assert pm.total_accesses == 0
