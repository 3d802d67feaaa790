"""Differential fuzz: random command streams, kernel vs stream machine.

Random per-port scripts (mixed MMS operations, random sleeps, random
seeds) are replayed twice -- through the reference DES kernel (the full
``MMS`` with ``drive_port`` adapters) and through the command-stream
machine -- and everything observable must be byte-identical:

* the ordered per-operation pointer-access traces (``AccessRecord``
  lists, push-out walks included),
* the per-command dispatch log (operation, flow, functional result,
  trace length, dispatch time),
* the latency-record stream (delivery order *and* the picosecond
  delivery times) and the per-command lifecycle stage records,
* the buffer-policy counters and the full typed ``DropRecord`` stream,
* the telemetry fold (``repro.telemetry``): histogram buckets and
  percentile summaries, occupancy series and peaks, throughput/drop
  counters -- the serialized snapshot must be byte-identical,
* the final functional state: pointer-memory words, per-region access
  counters, free-list occupancy, per-flow queue depths.

Two families are generated: rich mixed-op scripts with no policy (every
command type, per-port flow ownership keeps the scripts valid under any
legal interleaving), on the Figure 2 ports and on random port
arrangements (1-6 ports, random priorities and FIFO depths), and
enqueue-heavy overload scripts against a tiny
buffer for each of the four policies, with the closed-loop probing drain
of the overload harness (push-outs, drops and descriptor exhaustion all
exercised).
"""

import json
import random

import pytest

from repro.core.commands import CommandType
from repro.core.mms import MMS, MmsConfig
from repro.core.scheduler import DEFAULT_PORTS, PortConfig
from repro.core.workloads import drive_port, overload_drain_ops
from repro.engines import StreamMms
from repro.policies import PolicySpec
from repro.sim.clock import SEC
from repro.telemetry import MmsTelemetry, TelemetrySpec

HORIZON = SEC  # far beyond any script's span

OPS = CommandType

#: Telemetry config of the fuzz replays: a small stride so the
#: occupancy series is dense enough to catch divergence.
TELE_SPEC = TelemetrySpec(sample_every=4)


class Capture:
    """Everything observable from one replay."""

    def __init__(self):
        self.traces = []    # ordered end_trace() payloads
        self.cmds = []      # (op, flow, result-repr, trace_len, time)
        self.records = []   # (time, fifo, exec, data, e2e)
        self.stages = []    # stage_records() entries
        self.telemetry = ""  # serialized MmsTelemetry snapshot
        self.final = {}

    def snapshot_final(self, pqm, policy, now, commands_executed):
        self.final = {
            # words and counters per region, free-list registers,
            # per-slot shadows and per-flow depths
            "pqm": pqm.state_dict(),
            "now": now,
            "executed": commands_executed,
        }
        if policy is not None:
            s = policy.stats
            self.final["policy"] = (
                s.offered_segments, s.offered_bytes, s.accepted_segments,
                s.accepted_bytes, s.dropped_segments, s.dropped_bytes,
                s.pushed_out_segments, s.pushed_out_bytes,
                tuple(s.records),
                dict(policy.queue_segments), policy.total_segments,
                policy.total_bytes,
            )


def _capture_mem(cap, mem):
    orig_end = mem.end_trace

    def end_trace(*direct):
        trace = orig_end(*direct)
        cap.traces.append(tuple(trace))
        return trace

    mem.end_trace = end_trace


def run_reference(config, scripts, drain_counters=None,
                  drain_period=None, active_flows=0):
    cap = Capture()
    tel = MmsTelemetry(TELE_SPEC)
    mms = MMS(config, probe=tel)
    sim = mms.sim
    _capture_mem(cap, mms.pqm.mem)

    orig_dispatch = mms.dqm._dispatch

    def dispatch(cmd):
        out = orig_dispatch(cmd)
        cap.cmds.append((cmd.type.value, cmd.flow, repr(out[0]), out[1],
                         sim.now))
        return out

    mms.dqm._dispatch = dispatch

    for port, script in enumerate(scripts):
        sim.spawn(drive_port(mms, port, iter(script)), name=f"fz{port}")
    if drain_counters is not None:
        sim.spawn(drive_port(mms, 3, overload_drain_ops(
            mms.pqm.queued_packets, active_flows, drain_period,
            drain_counters)), name="drain")
    sim.run(until_ps=HORIZON)
    records = mms.latency_records(HORIZON, with_ops=True)
    tel.on_records(records)
    cap.telemetry = json.dumps(tel.snapshot().to_dict())
    cap.records = [(t, f, e, d, ee) for t, f, e, d, ee, _op in records]
    cap.stages = mms.stage_records(HORIZON)
    cap.snapshot_final(mms.pqm, mms.policy, sim.now,
                       mms.dqm.commands_executed)
    if drain_counters is not None:
        cap.final["drained"] = drain_counters["dequeued"]
    return cap


def run_stream(config, scripts, drain_counters=None,
               drain_period=None, active_flows=0):
    cap = Capture()
    tel = MmsTelemetry(TELE_SPEC)
    eng = StreamMms(config, probe=tel)
    _capture_mem(cap, eng.pqm.mem)
    eng.trace_hook = lambda cmd, result, trace: cap.cmds.append(
        (cmd[0].value, cmd[1], repr(result), len(trace), eng.now))
    for port, script in enumerate(scripts):
        eng.add_feeder(port, iter(script))
    if drain_counters is not None:
        eng.add_feeder(3, overload_drain_ops(
            eng.pqm.queued_packets, active_flows, drain_period,
            drain_counters))
    eng.run(HORIZON)
    records = eng.latency_records(HORIZON, with_ops=True)
    tel.on_records(records)
    cap.telemetry = json.dumps(tel.snapshot().to_dict())
    cap.records = [(t, f, e, d, ee) for t, f, e, d, ee, _op in records]
    cap.stages = eng.stage_records(HORIZON)
    cap.snapshot_final(eng.pqm, eng.policy, eng.now,
                       eng.commands_executed)
    if drain_counters is not None:
        cap.final["drained"] = drain_counters["dequeued"]
    return cap


def assert_identical(ref, fast):
    assert ref.cmds == fast.cmds
    assert ref.traces == fast.traces
    assert ref.records == fast.records
    assert ref.stages == fast.stages
    assert ref.telemetry == fast.telemetry
    assert ref.final == fast.final


# ========================================== mixed-op script generation

class _FlowModel:
    """Per-flow shadow used only to generate *valid* scripts: queued
    packets as lists of segment lengths, plus the open packet."""

    def __init__(self):
        self.packets = []   # list[list[int]]
        self.open_segs = 0


def make_mixed_scripts(seed, num_ports=4, length=140, flows_per_port=3):
    """Per-port scripts over port-owned flows (flow % num_ports == port),
    so validity is preserved under per-port FIFO order regardless of the
    cross-port interleaving."""
    rng = random.Random(seed)
    scripts = [[] for _ in range(num_ports)]
    model = {}

    def owned(port):
        return [port + num_ports * k for k in range(flows_per_port)]

    for port in range(num_ports):
        for f in owned(port):
            model[f] = _FlowModel()

    def cmd(op, flow, dst=None, eop=True, length_=64):
        return (op, flow, dst, eop, length_)

    for port in range(num_ports):
        script = scripts[port]
        flows = owned(port)
        emitted = 0
        while emitted < length:
            if rng.random() < 0.3:
                script.append(rng.randrange(0, 60000))
            f = rng.choice(flows)
            m = model[f]
            choices = ["enq"]
            if m.packets:
                choices += ["deq", "read", "overwrite", "del_seg",
                            "del_pkt", "append_head", "ow_len"]
                if m.packets[0][-1] == 64 and len(m.packets[0]) < 6:
                    choices.append("append_tail")
                others = [g for g in flows if g != f]
                if others:
                    choices += ["move", "ow_move", "ow_len_move"]
            what = rng.choice(choices)
            if what == "enq":
                nsegs = rng.randrange(1, 4)
                last_len = rng.randrange(1, 65)
                for s in range(nsegs):
                    eop = s == nsegs - 1
                    script.append(cmd(OPS.ENQUEUE, f, eop=eop,
                                      length_=last_len if eop else 64))
                m.packets.append([64] * (nsegs - 1) + [last_len])
            elif what in ("deq", "del_seg"):
                op = OPS.DEQUEUE if what == "deq" else OPS.DELETE
                script.append(cmd(op, f))
                head = m.packets[0]
                head.pop(0)
                if not head:
                    m.packets.pop(0)
            elif what == "read":
                script.append(cmd(OPS.READ, f))
            elif what == "overwrite":
                script.append(cmd(OPS.OVERWRITE, f))
            elif what == "del_pkt":
                script.append(cmd(OPS.DELETE_PACKET, f))
                m.packets.pop(0)
            elif what == "append_head":
                script.append(cmd(OPS.APPEND_HEAD, f))
                m.packets[0].insert(0, 64)
            elif what == "append_tail":
                ln = rng.randrange(1, 65)
                script.append(cmd(OPS.APPEND_TAIL, f, length_=ln))
                m.packets[0][-1] = 64
                m.packets[0].append(ln)
            elif what == "ow_len":
                head = m.packets[0]
                ln = rng.randrange(1, 65) if len(head) == 1 else 64
                script.append(cmd(OPS.OVERWRITE_LENGTH, f, length_=ln))
                head[0] = ln
            else:
                dst = rng.choice([g for g in flows if g != f])
                md = model[dst]
                head = m.packets.pop(0)
                if what == "move":
                    script.append(cmd(OPS.MOVE, f, dst=dst))
                elif what == "ow_move":
                    script.append(cmd(OPS.OVERWRITE_MOVE, f, dst=dst))
                else:
                    ln = rng.randrange(1, 65) if len(head) == 1 else 64
                    script.append(cmd(OPS.OVERWRITE_LENGTH_MOVE, f,
                                      dst=dst, length_=ln))
                    head[0] = ln
                md.packets.append(head)
            emitted += 1
    return scripts


def random_ports(seed):
    """A random port arrangement: 1-6 ports, priorities 0-2 and FIFO
    depths drawn from {1, 2, 3, 4, 8}."""
    rng = random.Random(seed)
    return tuple(PortConfig(f"p{i}", priority=rng.randrange(3),
                            fifo_depth=rng.choice((1, 2, 3, 4, 8)))
                 for i in range(rng.randint(1, 6)))


#: Configs where a DQM handoff can land on a DMC wake scheduled for the
#: same instant, so only the wakes' sequence numbers order them, with
#: the script seeds each replays.  On the serialized data path the
#: handoff is scheduled a whole execution ahead, before the DMC's wake;
#: seeds 2, 23 and 74 are ones where serving the DMC first on that
#: time tie changes the DMC's pick.  At 50 MHz the 2-period handoff
#: equals the 40 ns DDR access cycle, and a transfer can finish before
#: its command's execution does.  A 120 ns (or 0 ns) DMC pipeline puts
#: write completions on the MMS clock grid, so a completion and a
#: command's finalize deliver records at the same instant: the seeds
#: are ones with the most such ties (9-13 at 120 ns, 3 at 0 ns).  At
#: 160 MHz the 40 ns access cycle is 6.4 MMS periods, off the grid.
TIE_CONFIGS = {
    "serialized": ({"overlap_data": False}, (2, 23, 74)),
    "clock50": ({"clock_mhz": 50}, (1, 7, 2005)),
    "pipeline120": ({"dmc_pipeline_ns": 120}, (0, 9, 27)),
    "pipeline0": ({"dmc_pipeline_ns": 0}, (19, 28, 33)),
    "clock160": ({"clock_mhz": 160}, (19, 24, 33)),
}


@pytest.mark.parametrize("seed,ports,overrides", [
    *(pytest.param(seed, DEFAULT_PORTS, {}, id=str(seed))
      for seed in (1, 7, 2005)),
    *(pytest.param(seed, random_ports(seed), {}, id=f"ports{seed}")
      for seed in range(24)),
    *(pytest.param(seed, DEFAULT_PORTS, overrides, id=f"{name}-{seed}")
      for name, (overrides, seeds) in TIE_CONFIGS.items()
      for seed in seeds),
])
def test_mixed_op_streams_identical(seed, ports, overrides):
    config = MmsConfig(num_flows=max(16, 3 * len(ports)),
                       num_segments=4096, num_descriptors=2048,
                       ports=ports, **overrides)
    scripts = make_mixed_scripts(seed, num_ports=len(ports))
    assert_identical(run_reference(config, scripts),
                     run_stream(config, scripts))


# ======================================== policy overload script fuzz

def make_overload_scripts(seed, per_port=90, active_flows=12):
    """Three enqueue-only ingress scripts (random flows, bursts, eop
    patterns) that mark themselves done for the probing drain."""
    rng = random.Random(seed)
    counters = {"dequeued": 0}
    scripts = []
    for port in range(3):
        items = []
        open_left = 0
        flow = 0
        for i in range(per_port):
            if open_left == 0 and rng.random() < 0.4:
                items.append(rng.randrange(0, 200000))
            if open_left == 0:
                flow = rng.randrange(active_flows)
                open_left = rng.randrange(1, 4)
            open_left -= 1
            items.append((OPS.ENQUEUE, flow, None, open_left == 0, 64))

        def feeder(script=tuple(items)):
            yield from script
            counters["feeders_done"] = counters.get("feeders_done", 0) + 1

        scripts.append(feeder())
    return scripts, counters


@pytest.mark.parametrize("policy", ["taildrop", "red", "dynamic-threshold",
                                    "lqd"])
def test_policy_overload_streams_identical(policy):
    spec = PolicySpec(name=policy, alpha=0.75) \
        if policy == "dynamic-threshold" else PolicySpec(name=policy)
    config = MmsConfig(num_flows=16, num_segments=40, num_descriptors=36,
                       policy=spec, policy_seed=11, policy_records=True)
    drain_period = 2 * round(10.5 * 8000)
    for seed in (3, 19):
        ref_scripts, ref_counters = make_overload_scripts(seed)
        fast_scripts, fast_counters = make_overload_scripts(seed)
        ref = run_reference(config, ref_scripts,
                            drain_counters=ref_counters,
                            drain_period=drain_period, active_flows=12)
        fast = run_stream(config, fast_scripts,
                          drain_counters=fast_counters,
                          drain_period=drain_period, active_flows=12)
        assert_identical(ref, fast)
        assert ref.final["policy"][4] > 0, "fuzz case never dropped"
