"""Integration tests for the assembled MMS (Tables 4/5 behaviours)."""

import pytest

from repro.core import MMS, Command, CommandType, MmsConfig, figure2_diagram
from repro.core.mms import run_load, run_saturation

SMALL = MmsConfig(num_flows=256, num_segments=2048, num_descriptors=1024,
                  strict_microcode=False)

def drive(mms, commands, port=0):
    """Submit commands and run to completion."""

    def feeder():
        for c in commands:
            yield from mms.submit(port, c)

    mms.sim.spawn(feeder(), name="feeder")
    mms.sim.run()

def test_single_enqueue_executes_with_table4_latency():
    mms = MMS(SMALL)
    c = Command(type=CommandType.ENQUEUE, flow=1)
    drive(mms, [c])
    assert mms.commands_executed == 1
    assert (c.end_exec_ps - c.start_exec_ps) == 10 * mms.clock.period_ps
    assert mms.pqm.queued_segments(1) == 1

def test_enqueue_dequeue_roundtrip_semantics():
    mms = MMS(SMALL)
    cmds = [
        Command(type=CommandType.ENQUEUE, flow=5, eop=True, pid=77),
        Command(type=CommandType.DEQUEUE, flow=5),
    ]
    drive(mms, cmds)
    assert mms.pqm.queued_segments(5) == 0
    assert cmds[1].result.pid == 77  # type: ignore[attr-defined]

def test_fifo_delay_measured_for_bursts():
    """Four simultaneous commands: the later ones wait in the FIFO."""
    mms = MMS(SMALL)
    cmds = [Command(type=CommandType.ENQUEUE, flow=i, eop=True)
            for i in range(2)]

    def feeder():
        for c in cmds:
            yield from mms.submit(0, c)

    mms.sim.spawn(feeder())
    mms.sim.run()
    records = mms.latency_records(mms.now)
    assert len(records) == 2
    # the second command waited roughly one execution latency
    assert max(r[1] for r in records) == pytest.approx(10, abs=2)

def test_data_delay_recorded_only_for_data_commands():
    mms = MMS(SMALL)
    drive(mms, [
        Command(type=CommandType.ENQUEUE, flow=1, eop=True),
        Command(type=CommandType.DELETE, flow=1),
    ])
    records = mms.latency_records(mms.now)
    assert len(records) == 2
    data = [r[3] for r in records]
    assert min(data) == 0.0   # delete: no data access
    assert max(data) > 10     # enqueue: real data write

def test_execution_is_serialized():
    """One command at a time: N enqueues finish no faster than N x 10."""
    mms = MMS(SMALL)
    cmds = [Command(type=CommandType.ENQUEUE, flow=i % 8, eop=True)
            for i in range(10)]
    drive(mms, cmds)
    last_end = max(c.end_exec_ps for c in cmds)
    assert last_end >= 10 * 10 * mms.clock.period_ps

def test_strict_microcode_on_typical_paths():
    """With strict checking on, mid-packet enqueues and dequeues agree
    with the schedules."""
    cfg = MmsConfig(num_flows=64, num_segments=512, num_descriptors=256,
                    strict_microcode=True)
    mms = MMS(cfg)
    # multi-segment packets so the dequeues stay mid-packet (typical path)
    mms.prefill(range(4), packets_per_flow=1, segments_per_packet=3)
    cmds = [Command(type=CommandType.DEQUEUE, flow=0),
            Command(type=CommandType.DEQUEUE, flow=1)]
    drive(mms, cmds)
    assert mms.commands_executed == 2

def test_all_table4_commands_execute_end_to_end():
    mms = MMS(SMALL)
    mms.prefill(range(8), packets_per_flow=3)
    cmds = [
        Command(type=CommandType.ENQUEUE, flow=0, eop=True),
        Command(type=CommandType.READ, flow=1),
        Command(type=CommandType.OVERWRITE, flow=1),
        Command(type=CommandType.MOVE, flow=2, dst_flow=3),
        Command(type=CommandType.DELETE, flow=4),
        Command(type=CommandType.OVERWRITE_LENGTH, flow=1, length=40),
        Command(type=CommandType.DEQUEUE, flow=5),
        Command(type=CommandType.OVERWRITE_LENGTH_MOVE, flow=6, dst_flow=7,
                length=32),
        Command(type=CommandType.OVERWRITE_MOVE, flow=7, dst_flow=0),
    ]
    drive(mms, cmds)
    assert mms.commands_executed == 9

def test_mixed_enqueue_dequeue_stream_averages_10_5_cycles():
    """400 commands, alternating enqueue and dequeue on two ports: the
    mean execution time is Table 4's 10.5 cycles."""
    mms = MMS(MmsConfig(num_flows=256, num_segments=4096,
                        num_descriptors=2048))
    mms.prefill(range(32), packets_per_flow=8)

    def feeder():
        for i in range(200):
            yield from mms.submit(0, Command(type=CommandType.ENQUEUE,
                                             flow=i % 32, eop=True))
            yield from mms.submit(1, Command(type=CommandType.DEQUEUE,
                                             flow=i % 32))

    mms.sim.spawn(feeder())
    mms.sim.run()
    assert mms.commands_executed == 400
    records = mms.latency_records(mms.now)
    assert sum(r[2] for r in records) / len(records) == \
        pytest.approx(10.5, abs=0.01)

def test_default_mms_is_built_at_paper_scale():
    """Figure 2 at the paper's 32K flows."""
    assert MMS().pqm.num_flows == 32 * 1024

def test_conservation_through_mixed_workload():
    mms = MMS(SMALL)
    mms.prefill(range(16), packets_per_flow=2)
    total = mms.pqm.free_segments + sum(
        mms.pqm.queued_segments(f) for f in range(16))
    cmds = []
    for i in range(40):
        cmds.append(Command(type=CommandType.ENQUEUE, flow=i % 16, eop=True))
        cmds.append(Command(type=CommandType.DEQUEUE, flow=i % 16))
    drive(mms, cmds)
    after = mms.pqm.free_segments + sum(
        mms.pqm.queued_segments(f) for f in range(16))
    assert after == total

def test_submit_and_wait_returns_functional_result():
    mms = MMS(SMALL)
    mms.prefill(range(2), packets_per_flow=1)
    results = []

    def client():
        cmd = Command(type=CommandType.DEQUEUE, flow=0)
        info = yield from mms.submit_and_wait(0, cmd)
        results.append((mms.sim.now, info))

    mms.sim.spawn(client())
    mms.sim.run()
    (when, info), = results
    assert info.eop
    # the wait covers the 11-cycle dequeue execution
    assert when >= 11 * mms.clock.period_ps

def test_submit_and_wait_serializes_dependent_commands():
    """A client that round-trips each command sees them execute in
    program order with at least the Table 4 spacing."""
    mms = MMS(SMALL)
    times = []

    def client():
        for i in range(3):
            cmd = Command(type=CommandType.ENQUEUE, flow=1, eop=True)
            yield from mms.submit_and_wait(0, cmd)
            times.append(mms.sim.now)

    mms.sim.spawn(client())
    mms.sim.run()
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(g >= 10 * mms.clock.period_ps for g in gaps)
    assert mms.pqm.queued_packets(1) == 3

def test_figure2_diagram_mentions_all_blocks():
    art = figure2_diagram()
    for block in ("DMC", "Queue", "Internal", "Scheduler", "Segmenta",
                  "Reassem", "DRAM", "SRAM", "BACKPRESSURE"):
        assert block in art

# ------------------------------------------------------ load experiments

LOAD_CFG = MmsConfig(num_flows=1024, num_segments=8192, num_descriptors=4096)

def test_saturation_matches_headline():
    """~12 Mops and ~6.1 Gbps at 125 MHz (paper: 12 Mops / 6.145 Gbps)."""
    r = run_saturation(num_commands=2000, config=LOAD_CFG)
    assert r.achieved_mops == pytest.approx(11.9, rel=0.03)
    assert r.achieved_gbps == pytest.approx(6.1, rel=0.03)

def test_execution_delay_constant_10_5():
    r = run_load(3.2, num_volleys=600, config=LOAD_CFG, warmup_volleys=100)
    assert r.execution_cycles == pytest.approx(10.5, abs=0.01)

def test_low_load_row_matches_table5():
    """1.6 Gbps row: 20 / 10.5 / 28 / 58.5."""
    r = run_load(1.6, num_volleys=800, config=LOAD_CFG, warmup_volleys=100)
    assert r.fifo_cycles == pytest.approx(20, abs=4)
    assert r.data_cycles == pytest.approx(28, abs=3.5)
    assert r.total_cycles == pytest.approx(58.5, abs=6)

def test_mid_load_row_matches_table5():
    """3.2 Gbps row: total 59.6 cycles."""
    r = run_load(3.2, num_volleys=600, config=LOAD_CFG, warmup_volleys=100)
    assert r.total_cycles == pytest.approx(59.6, abs=6)

def test_serializing_data_path_delays_completion_at_light_load():
    """Section 6.1: data accesses start right after the first pointer
    access. Serializing them adds most of the execution latency to
    every command's completion, even unloaded."""
    e2e = {}
    for overlap in (True, False):
        cfg = MmsConfig(num_flows=1024, num_segments=8192,
                        num_descriptors=4096, overlap_data=overlap)
        e2e[overlap] = run_load(1.6, num_volleys=600, warmup_volleys=100,
                                config=cfg).end_to_end_cycles
    assert e2e[False] > e2e[True] + 5

def test_delays_grow_with_load():
    lo = run_load(1.6, num_volleys=600, config=LOAD_CFG, warmup_volleys=100)
    hi = run_load(6.14, num_volleys=600, config=LOAD_CFG, warmup_volleys=100)
    assert hi.fifo_cycles > lo.fifo_cycles * 1.5
    assert hi.data_cycles > lo.data_cycles
    assert hi.total_cycles > lo.total_cycles + 10

def test_throughput_tracks_offered_below_capacity():
    r = run_load(3.2, num_volleys=800, config=LOAD_CFG, warmup_volleys=100)
    assert r.achieved_gbps == pytest.approx(3.2, rel=0.15)

def test_load_validation():
    with pytest.raises(ValueError):
        run_load(0)
    with pytest.raises(ValueError):
        run_load(1.0, active_flows=2)
    with pytest.raises(ValueError):
        run_load(1.0, burst_prob=1.5)
    with pytest.raises(ValueError):
        run_load(1.0, burst_len=0)

def test_config_validation():
    with pytest.raises(ValueError):
        MmsConfig(clock_mhz=0)
    with pytest.raises(ValueError):
        MmsConfig(num_flows=0)

def test_run_load_engines_trace_identical():
    """The uniform engine knob: stream machine vs DES kernel, same
    results."""
    kw = dict(num_volleys=200, config=LOAD_CFG, warmup_volleys=40)
    fast = run_load(3.2, engine="fast", **kw)
    ref = run_load(3.2, engine="reference", **kw)
    assert fast.engine == "fast" and ref.engine == "reference"
    assert (fast.fifo_cycles, fast.execution_cycles, fast.data_cycles,
            fast.end_to_end_cycles, fast.completed_ops, fast.elapsed_ps) \
        == (ref.fifo_cycles, ref.execution_cycles, ref.data_cycles,
            ref.end_to_end_cycles, ref.completed_ops, ref.elapsed_ps)

def test_run_saturation_engines_trace_identical():
    fast = run_saturation(num_commands=800, config=LOAD_CFG, engine="fast")
    ref = run_saturation(num_commands=800, config=LOAD_CFG,
                         engine="reference")
    assert (fast.completed_ops, fast.elapsed_ps) \
        == (ref.completed_ops, ref.elapsed_ps)

def test_run_load_rejects_unknown_engine():
    for engine in ("turbo", "calendar", "heapq"):
        with pytest.raises(ValueError, match="unknown engine"):
            run_load(1.0, num_volleys=10, config=LOAD_CFG, engine=engine)
        with pytest.raises(ValueError, match="unknown engine"):
            run_saturation(num_commands=10, config=LOAD_CFG, engine=engine)
