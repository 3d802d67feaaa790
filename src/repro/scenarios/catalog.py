"""The catalog: every published artifact as a registered scenario.

Tables 1-5, the architecture figures, the headline claims, the
parameter sweeps and the ablations are all declared here as
:class:`ScenarioSpec` values bound to executors.  Executors compute
*data* (metrics + presentation blocks + paper deltas); rendering is the
presenter's job.

Engine semantics per workload:

* ``ddr`` scenarios: ``fast`` = batched bank model
  (:mod:`repro.mem.fastpath`), ``reference`` = per-access generator walk
  -- bit-identical.
* ``mms`` scenarios: ``fast`` = the command-stream machine
  (:mod:`repro.engines`), ``reference`` = the DES kernel -- one driver
  per workload family, trace-identical.
* ``ixp`` scenarios: ``fast`` = the DES-free IXP machine
  (:mod:`repro.ixp.machine`), ``reference`` = the generator model on the
  DES kernel -- every result field equal.
* closed-form scenarios (Table 3/4, figures, clock sweeps) have no
  engine degree of freedom and report ``engine="n/a"``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.paper_data import (
    PAPER_IXP_MAX_MBPS_1K_QUEUES,
    PAPER_MMS_GBPS,
    PAPER_MMS_MOPS,
    PAPER_NPU_BASE_FULL_DUPLEX_MBPS,
    PAPER_NPU_LINE_FULL_DUPLEX_MBPS,
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    PAPER_TABLE5,
)
from repro.core import CommandType, MICROCODE
from repro.core.mms import (MmsConfig, figure2_diagram, flow_queues, run_load,
                            run_saturation)
from repro.core.scheduler import PortConfig
from repro.ixp import simulate_ixp
from repro.ixp.program import build_queue_program
from repro.ixp.params import IxpParams
from repro.mem import simulate_throughput_loss
from repro.net import pps_to_gbps
from repro.npu import CopyStrategy, QueueSwModel
from repro.npu.system import figure1_diagram
from repro.policies import PolicySpec
from repro.policies.harness import OVERLOAD_MMS_CFG, SHAPES, run_overload
from repro.queueing.packet_queues import SEGMENT_BYTES
from repro.scenarios.registry import register_scenario
from repro.scenarios.result import Block, Outcome, paper_delta
from repro.scenarios.spec import (
    MemorySpec,
    ScenarioSpec,
    SchedulerSpec,
    TrafficSpec,
)
from repro.telemetry import (MmsTelemetry, ProbeChain, TelemetrySnapshot,
                             TelemetrySpec)
from repro.telemetry import publish
from repro.trace.spans import TraceCollector

#: Moderate MMS configuration: full results, minutes-not-hours runtime.
TABLE5_MMS_CFG = MmsConfig(num_flows=2048, num_segments=16384,
                           num_descriptors=8192)

#: Smaller MMS build used by the sweep/ablation scenarios (matches the
#: historical benchmark configuration).
SWEEP_MMS_CFG = MmsConfig(num_flows=1024, num_segments=8192,
                          num_descriptors=4096)


def _probes(spec: ScenarioSpec, default_telemetry=None):
    """``(combined probe, telemetry collector, trace collector)`` for a
    resolved spec.

    The execution paths take one probe; when a spec enables both the
    telemetry collector and the span tracer they ride one
    :class:`ProbeChain`.  All three are None when neither is enabled
    (structural absence)."""
    tele_spec = spec.telemetry or default_telemetry
    tele = MmsTelemetry(tele_spec) if tele_spec else None
    tracer = TraceCollector(spec.trace) if spec.trace else None
    children = [p for p in (tele, tracer) if p is not None]
    # A serving worker may have activated a frame publisher for this
    # process; it rides last so each frame sees the collector's
    # post-update state.  None (the overwhelmingly common case) keeps
    # plain runs' probe chains exactly as before.
    publisher_probe = publish.active_probe(tele)
    if publisher_probe is not None:
        children.append(publisher_probe)
    if not children:
        return None, None, None
    probe = children[0] if len(children) == 1 else ProbeChain(children)
    return probe, tele, tracer


def _telemetry_blocks(snap: TelemetrySnapshot, title: str) -> List[Block]:
    """Presentation blocks over one telemetry snapshot: the latency
    percentile table and the occupancy/drop counters."""
    # summary() emits keys in the spec's percentile order with "max"
    # last, and insertion order survives (de)serialization -- the first
    # histogram's keys are the column order
    percentile_headers: List[str] = []
    hist_rows = []
    for name in sorted(snap.histograms):
        h = snap.histograms[name]
        p = h.get("percentiles", {})
        if not percentile_headers:
            percentile_headers = list(p)
        hist_rows.append([name, h["count"]]
                         + [round(p[k], 2) for k in percentile_headers])
    latency_block = Block.table(
        ["histogram", "count"] + percentile_headers, hist_rows,
        title=f"{title}: latency distribution (cycles)")
    occ = snap.occupancy
    occ_rows = [
        ["commands dispatched", snap.counters["commands"]],
        ["policy drops", snap.counters["dropped_commands"]],
        ["occupancy peak (segments)", occ["peak_total"]],
        ["occupancy peak time (ps)", occ["peak_time_ps"]],
        ["occupancy final (segments)", occ["final_total"]],
        ["occupancy samples kept", len(occ["series"])],
    ]
    occ_block = Block.table(["telemetry counter", "value"], occ_rows,
                            title=f"{title}: occupancy and throughput")
    return [latency_block, occ_block]


# ====================================================== tables 1 through 5

@register_scenario(ScenarioSpec(
    name="table1", kind="table", workload="ddr",
    title="Table 1: DDR-DRAM throughput loss, 1-16 banks",
    description="DDR throughput loss vs banks and scheduler",
    traffic=TrafficSpec(num_accesses=(100_000, 20_000)),
    memory=MemorySpec(backend="ddr", banks=tuple(PAPER_TABLE1)),
    supports=frozenset({"engine", "seed", "budget"}),
    fastpath="bank",
))
def _table1(spec: ScenarioSpec) -> Outcome:
    accesses = spec.pick(spec.traffic.num_accesses)
    rows: List[List[object]] = []
    metrics: Dict[str, object] = {}
    deltas: Dict[str, float] = {}
    for banks in spec.memory.banks:
        p_ser, p_ser_rw, p_opt, p_opt_rw = PAPER_TABLE1[banks]
        ours = []
        for optimized, rw in ((False, False), (False, True),
                              (True, False), (True, True)):
            res = simulate_throughput_loss(
                banks, optimized=optimized, model_rw_turnaround=rw,
                num_accesses=accesses, seed=spec.seed,
                timing=spec.memory.timing, engine=spec.engine)
            ours.append(res.loss)
        metrics[f"banks{banks}"] = tuple(ours)
        deltas[f"banks{banks}.serializing"] = paper_delta(p_ser, ours[0])
        deltas[f"banks{banks}.optimized"] = paper_delta(p_opt, ours[2])
        rows.append([banks, p_ser, round(ours[0], 3), p_ser_rw,
                     round(ours[1], 3), p_opt, round(ours[2], 3),
                     p_opt_rw, round(ours[3], 3)])
    block = Block.table(
        ["banks",
         "ser/conf (paper)", "ser/conf (ours)",
         "ser/conf+rw (paper)", "ser/conf+rw (ours)",
         "opt/conf (paper)", "opt/conf (ours)",
         "opt/conf+rw (paper)", "opt/conf+rw (ours)"],
        rows, title=spec.title)
    return Outcome(metrics=metrics, blocks=(block,), paper_deltas=deltas)


@register_scenario(ScenarioSpec(
    name="table2", kind="table", workload="ixp",
    title="Table 2: IXP1200 queue management rate",
    description="IXP1200 maximum serviced rate vs queues and engines",
    traffic=TrafficSpec(queue_counts=((16, 128, 1024),) * 2,
                        engine_counts=(1, 6)),
    memory=MemorySpec(backend="sram"),
    supports=frozenset({"engine"}),
    fastpath="ixp",
))
def _table2(spec: ScenarioSpec) -> Outcome:
    rows: List[List[object]] = []
    metrics: Dict[str, object] = {}
    deltas: Dict[str, float] = {}
    for queues in spec.pick(spec.traffic.queue_counts):
        for engines in spec.traffic.engine_counts:
            want_kpps = PAPER_TABLE2.get((queues, engines))
            res = simulate_ixp(queues, engines, engine=spec.engine)
            metrics[f"q{queues}_e{engines}"] = res.kpps
            if want_kpps is not None:
                deltas[f"q{queues}_e{engines}"] = paper_delta(want_kpps,
                                                              res.kpps)
            rows.append([queues, engines,
                         want_kpps if want_kpps is not None else "",
                         round(res.kpps, 1)])
    block = Block.comparison(
        ["queues", "engines", "paper Kpps", "model Kpps"],
        rows, paper_col=2, model_col=3, title=spec.title)
    return Outcome(metrics=metrics, blocks=(block,), paper_deltas=deltas)


@register_scenario(ScenarioSpec(
    name="table3", kind="table", workload="npu-sw",
    title="Table 3: cycles per segment operation (PowerPC/PLB)",
    description="software queue-manager cycles + Section 5.3 variants",
    memory=MemorySpec(backend="none"),
    supports=frozenset(),
))
def _table3(spec: ScenarioSpec) -> Outcome:
    model = QueueSwModel()
    p = model.params
    word = CopyStrategy.WORD
    rows = [
        ["Dequeue Free List", PAPER_TABLE3["free_list"][0],
         model.free_pop.cpu_cycles(p), PAPER_TABLE3["free_list"][1],
         model.free_push.cpu_cycles(p)],
        ["Enqueue Segment (first)", PAPER_TABLE3["segment_first"][0],
         model.link_first.cpu_cycles(p), PAPER_TABLE3["segment_first"][1],
         model.unlink.cpu_cycles(p)],
        ["Enqueue Segment (rest)", PAPER_TABLE3["segment_rest"][0],
         model.link_rest.cpu_cycles(p), PAPER_TABLE3["segment_rest"][1],
         model.unlink.cpu_cycles(p)],
        ["Copy a segment", PAPER_TABLE3["copy"][0],
         model.copy_cost(word).cpu_cycles(p), PAPER_TABLE3["copy"][1],
         model.copy_cost(word).cpu_cycles(p)],
        ["Total (first)", PAPER_TABLE3["total_first"][0],
         model.enqueue_cycles(word, first_segment=True),
         PAPER_TABLE3["total_first"][1], model.dequeue_cycles(word)],
        ["Total (rest)", PAPER_TABLE3["total_rest"][0],
         model.enqueue_cycles(word, first_segment=False),
         PAPER_TABLE3["total_rest"][1], model.dequeue_cycles(word)],
    ]
    base = Block.table(
        ["function", "enq (paper)", "enq (ours)", "deq (paper)", "deq (ours)"],
        rows, title=spec.title)
    variants = Block.table(
        ["copy strategy", "enqueue", "dequeue", "full-duplex Mbps"],
        [[s.value,
          model.enqueue_cycles(s, first_segment=False),
          model.dequeue_cycles(s),
          round(model.full_duplex_gbps(s) * 1000, 1)]
         for s in CopyStrategy],
        title="Section 5.3 variants (paper: word ~100 Mbps, line ~200 Mbps)")
    metrics = {
        "enqueue_word": model.enqueue_cycles(word, first_segment=True),
        "dequeue_word": model.dequeue_cycles(word),
        "line_copy": model.copy_cost(CopyStrategy.LINE).cpu_cycles(p),
        "fd_word_mbps": model.full_duplex_gbps(word) * 1000,
        "fd_line_mbps": model.full_duplex_gbps(CopyStrategy.LINE) * 1000,
    }
    deltas = {
        "enqueue_word": paper_delta(PAPER_TABLE3["total_first"][0],
                                    metrics["enqueue_word"]),
        "dequeue_word": paper_delta(PAPER_TABLE3["total_first"][1],
                                    metrics["dequeue_word"]),
        "fd_word_mbps": paper_delta(PAPER_NPU_BASE_FULL_DUPLEX_MBPS,
                                    metrics["fd_word_mbps"]),
        "fd_line_mbps": paper_delta(PAPER_NPU_LINE_FULL_DUPLEX_MBPS,
                                    metrics["fd_line_mbps"]),
    }
    return Outcome(metrics=metrics, blocks=(base, variants),
                   paper_deltas=deltas)


@register_scenario(ScenarioSpec(
    name="table4", kind="table", workload="mms",
    title="Table 4: latency of the MMS commands (125 MHz)",
    description="latency of the MMS commands",
    memory=MemorySpec(backend="none"),
    supports=frozenset(),
))
def _table4(spec: ScenarioSpec) -> Outcome:
    rows: List[List[object]] = []
    metrics: Dict[str, object] = {}
    deltas: Dict[str, float] = {}
    for name, want in PAPER_TABLE4.items():
        ct = CommandType(name)
        got = MICROCODE[ct].latency_cycles
        metrics[name] = got
        deltas[name] = paper_delta(want, got)
        rows.append([name, want, got])
    block = Block.comparison(
        ["command", "paper cycles", "model cycles"],
        rows, paper_col=1, model_col=2, title=spec.title)
    return Outcome(metrics=metrics, blocks=(block,), paper_deltas=deltas)


@register_scenario(ScenarioSpec(
    name="table5", kind="table", workload="mms",
    title="Table 5: MMS delays vs offered load (cycles)",
    description="MMS delay decomposition vs offered load",
    traffic=TrafficSpec(
        loads_gbps=(tuple(sorted(PAPER_TABLE5, reverse=True)),) * 2,
        num_volleys=(2500, 800), warmup_volleys=(300, 100)),
    memory=MemorySpec(backend="ddr", banks=(8,)),
    mms=TABLE5_MMS_CFG,
    supports=frozenset({"engine", "seed", "budget", "mms", "telemetry",
                        "trace"}),
    fastpath="stream",
))
def _table5(spec: ScenarioSpec) -> Outcome:
    cfg = spec.mms or TABLE5_MMS_CFG
    volleys = spec.pick(spec.traffic.num_volleys)
    warmup = spec.pick(spec.traffic.warmup_volleys)
    rows: List[List[object]] = []
    metrics: Dict[str, object] = {}
    deltas: Dict[str, float] = {}
    telemetry: Dict[str, object] = {}
    traces: Dict[str, object] = {}
    for load in spec.pick(spec.traffic.loads_gbps):
        p_fifo, p_exec, p_data, p_total = PAPER_TABLE5[load]
        probe, tele, tracer = _probes(spec)
        res = run_load(load, num_volleys=volleys, config=cfg,
                       warmup_volleys=warmup, seed=spec.seed,
                       engine=spec.engine, probe=probe)
        metrics[f"load{load}"] = (res.fifo_cycles, res.execution_cycles,
                                  res.data_cycles, res.total_cycles)
        deltas[f"load{load}.total"] = paper_delta(p_total, res.total_cycles)
        if tele is not None:
            telemetry[f"load{load}"] = tele.snapshot().to_dict()
        if tracer is not None:
            traces[f"load{load}"] = tracer.snapshot().to_dict()
        rows.append([load,
                     p_fifo, round(res.fifo_cycles, 1),
                     p_exec, round(res.execution_cycles, 1),
                     p_data, round(res.data_cycles, 1),
                     p_total, round(res.total_cycles, 1)])
    if telemetry:
        metrics["telemetry"] = telemetry
    if traces:
        metrics["trace"] = traces
    block = Block.table(
        ["Gbps", "fifo (paper)", "fifo (ours)", "exec (paper)", "exec (ours)",
         "data (paper)", "data (ours)", "total (paper)", "total (ours)"],
        rows, title=spec.title)
    return Outcome(metrics=metrics, blocks=(block,), paper_deltas=deltas)


# ================================================= figures and headline

@register_scenario(ScenarioSpec(
    name="figure1", kind="figure", workload="structural",
    title="Figure 1: the reference NPU architecture",
    description="structural diagram of the Figure 1 platform",
    memory=MemorySpec(backend="none"),
    supports=frozenset(),
))
def _figure1(spec: ScenarioSpec) -> Outcome:
    return Outcome(metrics={}, blocks=(Block.raw_text(figure1_diagram()),))


@register_scenario(ScenarioSpec(
    name="figure2", kind="figure", workload="structural",
    title="Figure 2: the MMS architecture",
    description="structural diagram of the MMS block",
    memory=MemorySpec(backend="none"),
    supports=frozenset(),
))
def _figure2(spec: ScenarioSpec) -> Outcome:
    return Outcome(metrics={}, blocks=(Block.raw_text(figure2_diagram()),))


@register_scenario(ScenarioSpec(
    name="headline", kind="headline", workload="mixed",
    title="Headline claims",
    description="MMS saturation, IXP 1K-queue ceiling, PowerPC rule of thumb",
    traffic=TrafficSpec(num_commands=(8000, 2000)),
    mms=TABLE5_MMS_CFG,
    supports=frozenset({"engine", "budget", "mms"}),
    fastpath="mixed",
))
def _headline(spec: ScenarioSpec) -> Outcome:
    cfg = spec.mms or TABLE5_MMS_CFG
    sat = run_saturation(num_commands=spec.pick(spec.traffic.num_commands),
                         config=cfg, engine=spec.engine)
    ixp = simulate_ixp(1024, 6, engine=spec.engine)
    sw = QueueSwModel()
    ixp_1k_mbps = pps_to_gbps(ixp.pps, 64) * 1000
    rows = [
        ["MMS ops rate (Mops/s)", PAPER_MMS_MOPS,
         round(sat.achieved_mops, 2)],
        ["MMS bandwidth (Gbps)", PAPER_MMS_GBPS,
         round(sat.achieved_gbps, 3)],
        ["IXP 6-engine, 1K queues (Mbps)", PAPER_IXP_MAX_MBPS_1K_QUEUES,
         round(ixp_1k_mbps, 1)],
        ["PowerPC word-copy full duplex (Mbps)",
         PAPER_NPU_BASE_FULL_DUPLEX_MBPS,
         round(sw.full_duplex_gbps(CopyStrategy.WORD) * 1000, 1)],
        ["PowerPC line-copy full duplex (Mbps)",
         PAPER_NPU_LINE_FULL_DUPLEX_MBPS,
         round(sw.full_duplex_gbps(CopyStrategy.LINE) * 1000, 1)],
    ]
    block = Block.comparison(["claim", "paper", "model"], rows,
                             paper_col=1, model_col=2, title=spec.title)
    metrics = {
        "mms_mops": sat.achieved_mops,
        "mms_gbps": sat.achieved_gbps,
        "ixp_1k_mbps": ixp_1k_mbps,
    }
    deltas = {
        "mms_mops": paper_delta(PAPER_MMS_MOPS, sat.achieved_mops),
        "mms_gbps": paper_delta(PAPER_MMS_GBPS, sat.achieved_gbps),
        "ixp_1k_mbps": paper_delta(PAPER_IXP_MAX_MBPS_1K_QUEUES, ixp_1k_mbps),
    }
    return Outcome(metrics=metrics, blocks=(block,), paper_deltas=deltas)


# ============================================================== sweeps

@register_scenario(ScenarioSpec(
    name="sweep-ddr-loss-banks", kind="sweep", workload="ddr",
    title="Sweep: DDR throughput loss vs banks (conflicts only)",
    description="Table 1's bank axis, continuously, both schedulers",
    traffic=TrafficSpec(num_accesses=(20_000, 8_000)),
    memory=MemorySpec(backend="ddr",
                      banks=(1, 2, 4, 6, 8, 12, 16, 24, 32)),
    supports=frozenset({"engine", "seed", "budget"}),
    fastpath="bank",
))
def _sweep_ddr_loss(spec: ScenarioSpec) -> Outcome:
    from repro.analysis.sweeps import ddr_loss_vs_banks
    accesses = spec.pick(spec.traffic.num_accesses)
    ser = ddr_loss_vs_banks(
        banks=spec.memory.banks, optimized=False,
        model_rw_turnaround=spec.sched.model_rw_turnaround,
        num_accesses=accesses, seed=spec.seed, engine=spec.engine)
    opt = ddr_loss_vs_banks(
        banks=spec.memory.banks, optimized=True,
        model_rw_turnaround=spec.sched.model_rw_turnaround,
        num_accesses=accesses, seed=spec.seed, engine=spec.engine)
    rows = [[int(x), round(ys, 4), round(yo, 4)]
            for (x, ys), (_, yo) in zip(ser.points, opt.points)]
    block = Block.table(["banks", "serializing loss", "reordering loss"],
                        rows, title=spec.title)
    metrics = {
        "banks": [int(x) for x in ser.xs()],
        "serializing": ser.ys(),
        "reordering": opt.ys(),
    }
    return Outcome(metrics=metrics, blocks=(block,))


@register_scenario(ScenarioSpec(
    name="sweep-ixp-rate-queues", kind="sweep", workload="ixp",
    title="Sweep: IXP1200 serviced rate vs queue count",
    description="Table 2's queue axis, continuously, 1 and 6 engines",
    traffic=TrafficSpec(
        queue_counts=((8, 16, 32, 64, 128, 256, 512, 1024, 2048),
                      (16, 128, 1024)),
        engine_counts=(1, 6)),
    memory=MemorySpec(backend="sram"),
    supports=frozenset({"engine", "budget"}),
    fastpath="ixp",
))
def _sweep_ixp_rate(spec: ScenarioSpec) -> Outcome:
    from repro.analysis.sweeps import ixp_rate_vs_queues
    queues = spec.pick(spec.traffic.queue_counts)
    series = {e: ixp_rate_vs_queues(queue_counts=queues, engines=e,
                                    engine=spec.engine)
              for e in spec.traffic.engine_counts}
    headers = ["queues"] + [f"{e}-engine Kpps"
                            for e in spec.traffic.engine_counts]
    rows = []
    for i, q in enumerate(queues):
        rows.append([q] + [round(series[e].ys()[i], 1)
                           for e in spec.traffic.engine_counts])
    block = Block.table(headers, rows, title=spec.title)
    metrics = {"queues": list(queues)}
    for e in spec.traffic.engine_counts:
        metrics[f"kpps_{e}me"] = series[e].ys()
    return Outcome(metrics=metrics, blocks=(block,))


@register_scenario(ScenarioSpec(
    name="sweep-npu-rate-clock", kind="sweep", workload="npu-sw",
    title="Sweep: NPU sustainable rate vs CPU clock (Section 5.4)",
    description="the clock-frequency rule of thumb, per copy strategy",
    traffic=TrafficSpec(clocks_mhz=(50, 100, 200, 300, 400)),
    memory=MemorySpec(backend="none"),
    supports=frozenset(),
))
def _sweep_npu_clock(spec: ScenarioSpec) -> Outcome:
    from repro.analysis.sweeps import npu_rate_vs_clock
    series = {s: npu_rate_vs_clock(clocks_mhz=spec.traffic.clocks_mhz,
                                   strategy=s)
              for s in CopyStrategy}
    headers = ["clock MHz"] + [f"{s.value} Mbps" for s in CopyStrategy]
    rows = []
    for i, mhz in enumerate(spec.traffic.clocks_mhz):
        rows.append([mhz] + [round(series[s].ys()[i], 1)
                             for s in CopyStrategy])
    block = Block.table(headers, rows, title=spec.title)
    metrics = {"clocks_mhz": list(spec.traffic.clocks_mhz)}
    for s in CopyStrategy:
        metrics[f"mbps_{s.value}"] = series[s].ys()
    return Outcome(metrics=metrics, blocks=(block,))


@register_scenario(ScenarioSpec(
    name="sweep-mms-delay-load", kind="sweep", workload="mms",
    title="Sweep: MMS delay components vs offered load",
    description="Table 5's load axis, continuously",
    traffic=TrafficSpec(
        loads_gbps=((1.0, 2.0, 3.0, 4.0, 5.0, 5.5, 6.0), (1.6, 3.2, 5.8)),
        num_volleys=(800, 300)),
    memory=MemorySpec(backend="ddr", banks=(8,)),
    mms=SWEEP_MMS_CFG,
    supports=frozenset({"engine", "seed", "budget", "mms"}),
    fastpath="stream",
))
def _sweep_mms_delay(spec: ScenarioSpec) -> Outcome:
    from repro.analysis.sweeps import mms_delay_vs_load
    loads = spec.pick(spec.traffic.loads_gbps)
    series = mms_delay_vs_load(loads_gbps=loads,
                               config=spec.mms or SWEEP_MMS_CFG,
                               num_volleys=spec.pick(spec.traffic.num_volleys),
                               seed=spec.seed, engine=spec.engine)
    rows = []
    for i, load in enumerate(loads):
        rows.append([load,
                     round(series["fifo"].ys()[i], 1),
                     round(series["data"].ys()[i], 1),
                     round(series["total"].ys()[i], 1)])
    block = Block.table(["Gbps", "fifo cycles", "data cycles", "total cycles"],
                        rows, title=spec.title)
    metrics = {"loads_gbps": list(loads),
               "fifo": series["fifo"].ys(),
               "data": series["data"].ys(),
               "total": series["total"].ys()}
    return Outcome(metrics=metrics, blocks=(block,))


@register_scenario(ScenarioSpec(
    name="sweep-ixp-cycles-closed-form", kind="sweep", workload="ixp",
    title="Sweep: unloaded IXP cycles per packet vs queue count",
    description="closed-form cycles/packet (no simulation)",
    traffic=TrafficSpec(
        queue_counts=((8, 16, 32, 64, 128, 256, 512, 1024),
                      (8, 64, 1024))),
    memory=MemorySpec(backend="none"),
    supports=frozenset({"budget"}),
))
def _sweep_ixp_cycles(spec: ScenarioSpec) -> Outcome:
    params = IxpParams()
    queues = spec.pick(spec.traffic.queue_counts)
    cycles = [build_queue_program(q, params).unloaded_cycles(params)
              for q in queues]
    rows = [[q, c] for q, c in zip(queues, cycles)]
    block = Block.table(["queues", "cycles/packet"], rows, title=spec.title)
    return Outcome(metrics={"queues": list(queues), "cycles": cycles},
                   blocks=(block,))


# ============================================================ ablations

@register_scenario(ScenarioSpec(
    name="ablation-history-depth", kind="ablation", workload="ddr",
    title="Ablation A1: scheduler history depth (paper uses 3)",
    description="reordering-scheduler issue-history depth sweep",
    traffic=TrafficSpec(num_accesses=(15_000, 8_000)),
    memory=MemorySpec(backend="ddr", banks=(8,)),
    sched=SchedulerSpec(optimized=True, model_rw_turnaround=False,
                        history_depths=(0, 1, 2, 3, 4, 6, 8)),
    supports=frozenset({"engine", "seed", "budget"}),
    fastpath="bank",
))
def _ablation_history(spec: ScenarioSpec) -> Outcome:
    accesses = spec.pick(spec.traffic.num_accesses)
    banks = spec.memory.banks[0]
    metrics: Dict[str, object] = {}
    rows = []
    for depth in spec.sched.history_depths:
        loss = simulate_throughput_loss(
            banks, optimized=True,
            model_rw_turnaround=spec.sched.model_rw_turnaround,
            num_accesses=accesses, seed=spec.seed, history_depth=depth,
            engine=spec.engine).loss
        metrics[f"depth{depth}"] = loss
        rows.append([depth, round(loss, 4)])
    block = Block.table(
        ["history depth", f"loss ({banks} banks, conflicts only)"],
        rows, title=spec.title)
    return Outcome(metrics=metrics, blocks=(block,))


@register_scenario(ScenarioSpec(
    name="ablation-rw-grouping", kind="ablation", workload="ddr",
    title="Ablation A4: direction-aware selection on top of bank-aware",
    description="read/write grouping vs the paper's bank-only policy",
    traffic=TrafficSpec(num_accesses=(15_000, 8_000)),
    memory=MemorySpec(backend="ddr", banks=(4, 8, 16)),
    sched=SchedulerSpec(optimized=True, model_rw_turnaround=True),
    supports=frozenset({"engine", "seed", "budget"}),
    fastpath="bank",
))
def _ablation_rw_grouping(spec: ScenarioSpec) -> Outcome:
    accesses = spec.pick(spec.traffic.num_accesses)
    metrics: Dict[str, object] = {}
    rows = []
    for banks in spec.memory.banks:
        base = simulate_throughput_loss(
            banks, optimized=True, model_rw_turnaround=True,
            num_accesses=accesses, seed=spec.seed, engine=spec.engine)
        grouped = simulate_throughput_loss(
            banks, optimized=True, model_rw_turnaround=True,
            num_accesses=accesses, seed=spec.seed, prefer_same_type=True,
            engine=spec.engine)
        metrics[f"banks{banks}"] = (base.loss, grouped.loss,
                                    base.turnaround_stall_slots,
                                    grouped.turnaround_stall_slots)
        rows.append([banks, round(base.loss, 3), round(grouped.loss, 3),
                     base.turnaround_stall_slots,
                     grouped.turnaround_stall_slots])
    block = Block.table(
        ["banks", "loss (paper policy)", "loss (+rw grouping)",
         "turnaround stalls", "stalls w/ grouping"],
        rows, title=spec.title)
    return Outcome(metrics=metrics, blocks=(block,))


@register_scenario(ScenarioSpec(
    name="ablation-fifo-depth", kind="ablation", workload="mms",
    title="Ablation A2: per-port FIFO depth at 6.14 Gbps",
    description="MMS per-port command FIFO depth sweep",
    traffic=TrafficSpec(loads_gbps=((6.14,), (6.14,)),
                        num_volleys=(800, 300), warmup_volleys=(100, 60)),
    memory=MemorySpec(backend="ddr", banks=(8,)),
    sched=SchedulerSpec(fifo_depths=(1, 2, 4, 8)),
    mms=SWEEP_MMS_CFG,
    supports=frozenset({"engine", "seed", "budget", "mms"}),
    fastpath="stream",
))
def _ablation_fifo_depth(spec: ScenarioSpec) -> Outcome:
    import dataclasses as _dc
    base_cfg = spec.mms or SWEEP_MMS_CFG
    load = spec.pick(spec.traffic.loads_gbps)[0]
    volleys = spec.pick(spec.traffic.num_volleys)
    warmup = spec.pick(spec.traffic.warmup_volleys)
    metrics: Dict[str, object] = {}
    rows = []
    for depth in spec.sched.fifo_depths:
        ports = tuple(PortConfig(n, priority=0, fifo_depth=depth)
                      for n in ("in", "out", "cpu0", "cpu1"))
        cfg = _dc.replace(base_cfg, ports=ports)
        res = run_load(load, num_volleys=volleys, config=cfg,
                       warmup_volleys=warmup, seed=spec.seed,
                       engine=spec.engine)
        metrics[f"depth{depth}"] = (res.fifo_cycles, res.total_cycles)
        rows.append([depth, round(res.fifo_cycles, 1),
                     round(res.total_cycles, 1)])
    block = Block.table(
        ["fifo depth", "fifo delay (cycles)", "total delay (cycles)"],
        rows, title=spec.title)
    return Outcome(metrics=metrics, blocks=(block,))


@register_scenario(ScenarioSpec(
    name="ablation-overlap", kind="ablation", workload="mms",
    title="Ablation A5: data access overlapped with pointer work "
          "(4 Gbps load)",
    description="pointer/data parallelism in the MMS",
    traffic=TrafficSpec(loads_gbps=((4.0,), (4.0,)),
                        num_volleys=(800, 300), warmup_volleys=(100, 60)),
    memory=MemorySpec(backend="ddr", banks=(8,)),
    mms=SWEEP_MMS_CFG,
    supports=frozenset({"engine", "seed", "budget", "mms"}),
    fastpath="stream",
))
def _ablation_overlap(spec: ScenarioSpec) -> Outcome:
    import dataclasses as _dc
    base_cfg = spec.mms or SWEEP_MMS_CFG
    load = spec.pick(spec.traffic.loads_gbps)[0]
    volleys = spec.pick(spec.traffic.num_volleys)
    warmup = spec.pick(spec.traffic.warmup_volleys)
    results = {}
    for overlap in (True, False):
        cfg = _dc.replace(base_cfg, overlap_data=overlap)
        results[overlap] = run_load(load, num_volleys=volleys, config=cfg,
                                    warmup_volleys=warmup, seed=spec.seed,
                                    engine=spec.engine)
    rows = []
    metrics: Dict[str, object] = {}
    for overlap, label in ((True, "overlapped (MMS design)"),
                           (False, "serialized (ablation)")):
        res = results[overlap]
        key = "overlapped" if overlap else "serialized"
        metrics[key] = (res.fifo_cycles, res.execution_cycles,
                        res.data_cycles, res.total_cycles,
                        res.end_to_end_cycles)
        rows.append([label, round(res.fifo_cycles, 1),
                     round(res.execution_cycles, 1),
                     round(res.data_cycles, 1),
                     round(res.total_cycles, 1),
                     round(res.end_to_end_cycles, 1)])
    block = Block.table(
        ["configuration", "fifo", "exec", "data",
         "additive total", "true end-to-end (cycles)"],
        rows, title=spec.title)
    return Outcome(metrics=metrics, blocks=(block,))


# ========================================== overload scenario family
#
# The first beyond-the-paper family: loss behavior of the shared
# segment buffer under overload, per buffer-management policy
# (repro.policies) x traffic shape (repro.policies.harness.SHAPES).
# Every scenario runs the real MMS blocks (the stream machine on fast,
# the DES kernel on reference), so the engine knob applies and both
# report byte-identical drop/accept counters
# (tests/policies/test_harness.py).

#: Policy selections of the family, keyed by the scenario-name stem.
OVERLOAD_POLICIES: Dict[str, PolicySpec] = {
    "taildrop": PolicySpec(name="taildrop"),
    "red": PolicySpec(name="red"),
    "dt": PolicySpec(name="dynamic-threshold", alpha=1.0),
    "lqd": PolicySpec(name="lqd"),
}

_SHAPE_BLURB = {
    "burst": "synchronized volleys transiently overflow the buffer",
    "sustained": "steady 2x oversubscription pins occupancy at capacity",
    "incast": "many flows converge with short multi-segment packets",
}


def _overload(spec: ScenarioSpec) -> Outcome:
    probe, tele, tracer = _probes(spec)
    res = run_overload(
        spec.policy, spec.traffic.pattern,
        num_arrivals=spec.pick(spec.traffic.num_commands),
        active_flows=spec.traffic.active_flows,
        config=spec.mms or OVERLOAD_MMS_CFG,
        seed=spec.seed, engine=spec.engine, probe=probe)
    metrics: Dict[str, object] = {"policy": res.policy, "shape": res.shape,
                                  "capacity_segments": res.capacity_segments}
    metrics.update(res.counters())
    metrics["drop_rate"] = res.drop_rate
    rows = [
        ["offered", res.offered_segments, res.offered_bytes],
        ["accepted", res.accepted_segments, res.accepted_bytes],
        ["dropped", res.dropped_segments, res.dropped_bytes],
        ["pushed out", res.pushed_out_segments, res.pushed_out_bytes],
        ["dequeued", res.dequeued_segments,
         res.dequeued_segments * SEGMENT_BYTES],
        ["residual", res.residual_segments, ""],
    ]
    block = Block.table(["counter", "segments", "bytes"], rows,
                        title=f"{spec.title} "
                              f"(drop rate {res.drop_rate:.3f})")
    blocks = [block]
    if tele is not None:
        snap = tele.snapshot()
        metrics["telemetry"] = snap.to_dict()
        blocks += _telemetry_blocks(snap, spec.title)
    if tracer is not None:
        metrics["trace"] = tracer.snapshot().to_dict()
    return Outcome(metrics=metrics, blocks=tuple(blocks))


def _register_overload_family() -> None:
    for stem, policy in OVERLOAD_POLICIES.items():
        for shape in SHAPES:
            register_scenario(ScenarioSpec(
                name=f"overload-{stem}-{shape}", kind="overload",
                workload="mms",
                title=f"Overload: {policy.name} under {shape} traffic",
                description=f"{policy.name} loss behavior: "
                            f"{_SHAPE_BLURB[shape]}",
                traffic=TrafficSpec(num_commands=(1200, 360),
                                    active_flows=32, pattern=shape),
                memory=MemorySpec(backend="ddr", banks=(8,)),
                mms=OVERLOAD_MMS_CFG,
                policy=policy,
                supports=frozenset({"engine", "seed", "budget", "mms",
                                    "telemetry", "trace"}),
                fastpath="stream",
            ))(_overload)


_register_overload_family()


# ============================================ latency scenario family
#
# The telemetry flagship: the overload workloads re-examined through
# *distributions* instead of aggregate loss counters.  Each scenario
# runs one (policy x traffic shape) overload experiment with the
# standard probe always on and reports per-class enqueue/dequeue
# latency percentiles (p50/p90/p99/p99.9/max over the true
# submit-to-completion cycles) and the occupancy dynamics (peak,
# time-series) of the shared segment buffer.  Both engines produce
# byte-identical telemetry JSON -- the engine-identity acceptance
# criterion of ``repro.telemetry``.

def _latency(spec: ScenarioSpec) -> Outcome:
    probe, tele, tracer = _probes(spec, default_telemetry=TelemetrySpec())
    res = run_overload(
        spec.policy, spec.traffic.pattern,
        num_arrivals=spec.pick(spec.traffic.num_commands),
        active_flows=spec.traffic.active_flows,
        config=spec.mms or OVERLOAD_MMS_CFG,
        seed=spec.seed, engine=spec.engine, probe=probe)
    snap = tele.snapshot()
    metrics: Dict[str, object] = {
        "policy": res.policy,
        "shape": res.shape,
        "capacity_segments": res.capacity_segments,
        "occupancy_peak": snap.occupancy["peak_total"],
        "drop_rate": res.drop_rate,
        "telemetry": snap.to_dict(),
    }
    if tracer is not None:
        metrics["trace"] = tracer.snapshot().to_dict()
    for cls in ("enqueue", "dequeue"):
        hist = snap.histograms.get(f"{cls}.e2e")
        if hist is not None:
            for label, value in hist["percentiles"].items():
                metrics[f"{cls}_e2e_{label}"] = value
    return Outcome(metrics=metrics,
                   blocks=tuple(_telemetry_blocks(snap, spec.title)))


def _register_latency_family() -> None:
    for stem, policy in OVERLOAD_POLICIES.items():
        for shape in SHAPES:
            register_scenario(ScenarioSpec(
                name=f"latency-{stem}-{shape}", kind="latency",
                workload="mms",
                title=f"Latency: {policy.name} under {shape} overload",
                description=f"{policy.name} latency/occupancy "
                            f"distributions: {_SHAPE_BLURB[shape]}",
                traffic=TrafficSpec(num_commands=(1200, 360),
                                    active_flows=32, pattern=shape),
                memory=MemorySpec(backend="ddr", banks=(8,)),
                mms=OVERLOAD_MMS_CFG,
                policy=policy,
                telemetry=TelemetrySpec(),
                supports=frozenset({"engine", "seed", "budget", "mms",
                                    "telemetry", "trace"}),
                fastpath="stream",
            ))(_latency)


_register_latency_family()


# ================================================ qos scenario family
#
# Egress scheduling over MMS flow queues (repro.core.qos): the paper
# motivates per-flow queues with "advanced Quality of Service" but
# leaves the egress policy to the surrounding system.  These scenarios
# make the two standard policies registry-reachable artifacts: a seeded
# backlog is enqueued on the functional queue manager (no simulated
# time, so there is no engine degree of freedom) and drained through
# the scheduler under test.

#: MMS build of the QoS scenarios (only its queue manager is built).
QOS_MMS_CFG = MmsConfig(num_flows=16, num_segments=8192,
                        num_descriptors=4096)

#: The QoS class queues, highest priority first, and the DRR weights.
QOS_FLOWS = (0, 1, 2, 3)
QOS_DRR_WEIGHTS = (4.0, 2.0, 1.0, 1.0)


def _qos_backlog(pqm, num_packets: int, seed: int):
    """Build a seeded multi-class backlog; returns per-flow byte totals."""
    import random as _random

    from repro.core.dqm import dispatch_command

    rng = _random.Random(seed)
    enq_bytes = {f: 0 for f in QOS_FLOWS}
    for _i in range(num_packets):
        flow = QOS_FLOWS[rng.randrange(len(QOS_FLOWS))]
        nsegs = rng.randrange(1, 4)
        last_len = rng.randrange(1, 65)
        for s in range(nsegs):
            eop = s == nsegs - 1
            length = last_len if eop else 64
            dispatch_command(pqm, CommandType.ENQUEUE, flow, None, eop,
                             length)
            enq_bytes[flow] += length
    return enq_bytes


@register_scenario(ScenarioSpec(
    name="qos-strict-priority", kind="qos", workload="mms",
    title="QoS: strict-priority egress over MMS flow queues",
    description="802.1p-style class scheduling; low classes drain last",
    traffic=TrafficSpec(num_commands=(600, 150)),
    memory=MemorySpec(backend="none"),
    mms=QOS_MMS_CFG,
    supports=frozenset({"seed", "budget", "mms"}),
))
def _qos_strict(spec: ScenarioSpec) -> Outcome:
    from repro.core.qos import StrictPriorityScheduler

    # the policy clock reads 0: backlog and drain take no simulated time
    pqm = flow_queues(spec.mms or QOS_MMS_CFG, lambda: 0)
    enq_bytes = _qos_backlog(pqm, spec.pick(spec.traffic.num_commands),
                             spec.seed)
    sched = StrictPriorityScheduler(pqm, QOS_FLOWS)
    served_bytes = {f: 0 for f in QOS_FLOWS}
    order: List[int] = []
    while True:
        pkt = sched.next_packet()
        if pkt is None:
            break
        served_bytes[pkt.flow] += pkt.length_bytes
        order.append(pkt.flow)
    # arrivals complete before the drain starts, so strict priority must
    # serve the classes in one monotone block each
    inversions = sum(1 for a, b in zip(order, order[1:]) if a > b)
    rows = [[f, sched.served[f], enq_bytes[f], served_bytes[f]]
            for f in QOS_FLOWS]
    block = Block.table(
        ["class (0 = highest)", "packets served", "bytes offered",
         "bytes served"],
        rows, title=f"{spec.title} (priority inversions: {inversions})")
    metrics: Dict[str, object] = {
        "packets": [sched.served[f] for f in QOS_FLOWS],
        "bytes": [served_bytes[f] for f in QOS_FLOWS],
        "inversions": inversions,
        "service_order_classes": order[:32],
    }
    return Outcome(metrics=metrics, blocks=(block,))


@register_scenario(ScenarioSpec(
    name="qos-drr", kind="qos", workload="mms",
    title="QoS: deficit round robin egress over MMS flow queues",
    description="byte-fair weighted sharing while all classes backlog",
    traffic=TrafficSpec(num_commands=(600, 150)),
    memory=MemorySpec(backend="none"),
    mms=QOS_MMS_CFG,
    supports=frozenset({"seed", "budget", "mms"}),
))
def _qos_drr(spec: ScenarioSpec) -> Outcome:
    from repro.core.qos import DeficitRoundRobin

    num_packets = spec.pick(spec.traffic.num_commands)
    # the policy clock reads 0: backlog and drain take no simulated time
    pqm = flow_queues(spec.mms or QOS_MMS_CFG, lambda: 0)
    enq_bytes = _qos_backlog(pqm, num_packets, spec.seed)
    drr = DeficitRoundRobin(pqm, QOS_FLOWS, weights=QOS_DRR_WEIGHTS,
                            quantum_bytes=512)
    # serve only part of the backlog so every class stays backlogged --
    # the regime in which DRR's weighted byte-fairness is defined
    shares = drr.drain_fair_shares(num_packets // 3)
    per_weight = {f: shares[f] / w
                  for f, w in zip(QOS_FLOWS, QOS_DRR_WEIGHTS)}
    base = per_weight[QOS_FLOWS[0]] or 1.0
    rows = [[f, w, enq_bytes[f], shares[f],
             round(per_weight[f] / base, 3)]
            for f, w in zip(QOS_FLOWS, QOS_DRR_WEIGHTS)]
    block = Block.table(
        ["class", "weight", "bytes offered", "bytes served",
         "share per weight (norm.)"],
        rows, title=spec.title)
    metrics = {
        "weights": list(QOS_DRR_WEIGHTS),
        "bytes": [shares[f] for f in QOS_FLOWS],
        "share_per_weight": [per_weight[f] for f in QOS_FLOWS],
    }
    return Outcome(metrics=metrics, blocks=(block,))


@register_scenario(ScenarioSpec(
    name="ablation-multithreading", kind="ablation", workload="ixp",
    title="Ablation: IXP1200 multithreading (6 engines)",
    description="hardware multithreading vs single-threaded engines",
    traffic=TrafficSpec(queue_counts=((16, 128, 1024), (16, 128)),
                        engine_counts=(6,)),
    memory=MemorySpec(backend="sram"),
    sched=SchedulerSpec(multithreading=True),
    supports=frozenset({"engine", "budget"}),
    fastpath="ixp",
))
def _ablation_multithreading(spec: ScenarioSpec) -> Outcome:
    engines = spec.traffic.engine_counts[0]
    metrics: Dict[str, object] = {}
    rows = []
    for q in spec.pick(spec.traffic.queue_counts):
        plain = simulate_ixp(q, engines, multithreading=False,
                             engine=spec.engine)
        threaded = simulate_ixp(q, engines, multithreading=True,
                                engine=spec.engine)
        metrics[f"q{q}"] = (plain.kpps, threaded.kpps)
        rows.append([q, round(plain.kpps), round(threaded.kpps),
                     round(threaded.kpps / plain.kpps, 2)])
    block = Block.table(
        ["queues", "single-thread Kpps", "4-thread Kpps", "speedup"],
        rows, title=spec.title)
    return Outcome(metrics=metrics, blocks=(block,))
