"""Tests for the individual MMS blocks: scheduler, DMC, segmentation,
reassembly."""

import pytest

from repro.core import (
    Command,
    CommandType,
    DataMemoryController,
    InternalScheduler,
    PortConfig,
    ReassemblyBlock,
    SegmentationBlock,
)
from repro.net import Packet
from repro.queueing.packet_queues import SegmentInfo
from repro.sim import Clock, Simulator

# ----------------------------------------------------------- scheduler

def make_sched(depths=(2, 2), priorities=(0, 0)):
    sim = Simulator()
    ports = tuple(
        PortConfig(f"p{i}", priority=pr, fifo_depth=d)
        for i, (d, pr) in enumerate(zip(depths, priorities))
    )
    return sim, InternalScheduler(sim, ports)

def cmd(flow=0):
    return Command(type=CommandType.ENQUEUE, flow=flow)

def test_scheduler_round_robin_same_priority():
    sim, s = make_sched()
    a, b, c = cmd(1), cmd(2), cmd(3)
    s.try_submit(0, a)
    s.try_submit(0, b)
    s.try_submit(1, c)
    order = [s.pop_next() for _ in range(3)]
    assert order == [a, c, b]  # alternates between the two ports

def test_scheduler_strict_priority():
    sim, s = make_sched(priorities=(1, 0))  # port1 outranks port0
    low, high = cmd(1), cmd(2)
    s.try_submit(0, low)
    s.try_submit(1, high)
    assert s.pop_next() is high
    assert s.pop_next() is low

def test_try_submit_full_fifo_returns_false():
    sim, s = make_sched(depths=(1, 1))
    assert s.try_submit(0, cmd())
    assert not s.try_submit(0, cmd())

def test_blocking_submit_applies_backpressure():
    sim, s = make_sched(depths=(1, 1))
    done = []

    def feeder():
        yield from s.submit(0, cmd(1))
        yield from s.submit(0, cmd(2))  # blocks until a slot frees
        done.append(sim.now)

    def drainer():
        yield 1000
        s.pop_next()

    sim.spawn(feeder())
    sim.spawn(drainer())
    sim.run()
    assert done == [1000]

def test_pop_empty_raises():
    _sim, s = make_sched()
    with pytest.raises(RuntimeError):
        s.pop_next()

def test_port_index_lookup():
    _sim, s = make_sched()
    assert s.port_index("p1") == 1
    with pytest.raises(ValueError):
        s.port_index("nope")

def test_port_validation():
    _sim, s = make_sched()
    with pytest.raises(ValueError):
        s.try_submit(5, cmd())
    with pytest.raises(ValueError):
        PortConfig("x", fifo_depth=0)

def test_empty_port_list_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        InternalScheduler(sim, ())

def test_submit_stamps_time():
    sim, s = make_sched()
    c = cmd()
    s.try_submit(0, c)
    assert c.submit_ps == 0
    assert c.port == 0

# ----------------------------------------------------------------- DMC

def test_dmc_bank_striping():
    sim = Simulator()
    dmc = DataMemoryController(sim, Clock(125), num_banks=8)
    assert dmc.bank_of_slot(0) == 0
    assert dmc.bank_of_slot(9) == 1
    assert dmc.bank_of_slot(15) == 7
    with pytest.raises(ValueError):
        dmc.bank_of_slot(-1)

def test_dmc_write_completes_with_pipeline_delay():
    sim = Simulator()
    clock = Clock(125)
    dmc = DataMemoryController(sim, clock, pipeline_overhead_ns=135)
    seen = []

    def client():
        req = yield dmc.submit(True, slot=0)
        seen.append((sim.now, req))

    sim.spawn(client())
    sim.run()
    # write: 40 ns device + 135 ns pipeline
    assert seen[0][0] == (40 + 135) * 1000
    assert dmc.completed == 1

def test_dmc_read_slower_than_write():
    def one(is_write):
        sim = Simulator()
        dmc = DataMemoryController(sim, Clock(125))
        times = []

        def client():
            req = yield dmc.submit(is_write, slot=0)
            times.append(req.total_ps)

        sim.spawn(client())
        sim.run()
        return times[0]

    assert one(is_write=False) > one(is_write=True)

def test_dmc_mean_delay_cycles():
    sim = Simulator()
    clock = Clock(125)
    dmc = DataMemoryController(sim, clock, pipeline_overhead_ns=135)

    def client():
        for i in range(8):
            yield dmc.submit(True, slot=i)

    sim.spawn(client())
    sim.run()
    # 175 ns write latency plus up to one 40 ns access-cycle alignment
    mean = dmc.mean_data_delay_cycles()
    assert (40 + 135) / 8.0 <= mean <= (40 + 135 + 40) / 8.0

# ---------------------------------------------------------- segmentation

def test_segmentation_single_segment_packet():
    seg = SegmentationBlock(num_flows=8)
    cmds = seg.segment(Packet(64, flow_id=3))
    assert len(cmds) == 1
    assert cmds[0].type is CommandType.ENQUEUE
    assert cmds[0].eop
    assert cmds[0].length == 64
    assert cmds[0].flow == 3

def test_segmentation_multi_segment_lengths_and_eop():
    seg = SegmentationBlock(num_flows=8)
    cmds = seg.segment(Packet(150, flow_id=1))
    assert [c.length for c in cmds] == [64, 64, 22]
    assert [c.eop for c in cmds] == [False, False, True]
    assert [c.seg_index for c in cmds] == [0, 1, 2]
    assert len({c.pid for c in cmds}) == 1

def test_segmentation_counters():
    seg = SegmentationBlock(num_flows=8)
    seg.segment(Packet(128, flow_id=0))
    seg.segment(Packet(64, flow_id=1))
    assert seg.packets_segmented == 2
    assert seg.segments_produced == 3

def test_segmentation_flow_bounds():
    seg = SegmentationBlock(num_flows=2)
    with pytest.raises(ValueError):
        seg.segment(Packet(64, flow_id=2))
    with pytest.raises(ValueError):
        SegmentationBlock(0)

# ----------------------------------------------------------- reassembly

def info(slot, eop, length=64, pid=1, index=0):
    return SegmentInfo(slot=slot, eop=eop, length=length, pid=pid, index=index)

def test_reassembly_emits_on_eop():
    r = ReassemblyBlock()
    assert r.feed(0, info(1, eop=False)) is None
    pkt = r.feed(0, info(2, eop=True, length=30))
    assert pkt is not None
    assert pkt.num_segments == 2
    assert pkt.length_bytes == 64 + 30
    assert pkt.flow == 0

def test_reassembly_interleaved_flows():
    r = ReassemblyBlock()
    r.feed(0, info(1, eop=False, pid=10))
    r.feed(1, info(2, eop=False, pid=20))
    assert sorted(r.open_flows()) == [0, 1]
    a = r.feed(1, info(3, eop=True, pid=20))
    b = r.feed(0, info(4, eop=True, pid=10))
    assert a.pid == 20
    assert b.pid == 10
    assert r.open_flows() == []
    assert r.packets_reassembled == 2
    assert r.segments_consumed == 4

def test_reassembly_inverse_of_segmentation():
    """segmentation -> reassembly is the identity on packet shape."""
    seg = SegmentationBlock(num_flows=4)
    r = ReassemblyBlock()
    pkt = Packet(1500, flow_id=2)
    cmds = seg.segment(pkt)
    out = None
    for i, c in enumerate(cmds):
        out = r.feed(c.flow, info(slot=i, eop=c.eop, length=c.length,
                                  pid=c.pid, index=c.seg_index))
    assert out is not None
    assert out.length_bytes == pkt.length_bytes
    assert out.num_segments == pkt.num_segments
    assert out.pid == pkt.pid
