"""One driver per MMS workload family, on either engine.

Table 5 (:func:`drive_load`), the saturation headline
(:func:`drive_saturation`) and the overload family
(:func:`drive_overload`) each have exactly one body here.
:func:`make_machine` picks what it runs on by the engine name alone --
the command-stream :class:`~repro.engines.stream.StreamMms` for
``"fast"``, the kernel :class:`~repro.core.mms.MMS` on the DES
:class:`~repro.sim.kernel.Simulator` for ``"reference"`` -- and both
machines expose the same driver surface: ``prefill``, ``add_feeder``,
``run``, ``now``, ``latency_records`` and ``stage_records``.  A driver
prefills, attaches the shared feeders (:mod:`repro.core.workloads`),
runs to the horizon and assembles the result from the machine's latency
records, so the two engines share feeding, record replay and result
assembly, and the returned values are *equal*, not approximately equal
(asserted by ``tests/engines/``).

Probes see ``on_command`` live at the pop instant on both machines;
``on_records`` and ``on_stages`` are fed from the records after the
run (:func:`replay_records`), which the probe protocol's per-channel
independence rule permits.

The public harnesses (:func:`repro.core.mms.run_load`,
:func:`repro.core.mms.run_saturation`,
:func:`repro.policies.harness.run_overload`) validate their arguments
and delegate to the drivers.  The overload wiring -- pacing, the three
enqueue ports and the drain in attach order, and the horizon -- is
written once, as the factories of :func:`overload_feeders`: the plain
driver builds raw generators from them, and the checkpoint driver
(:class:`repro.checkpoint.StreamRun`) builds taped ones from the same
factories and assembles its result with the same
:func:`assemble_overload_result`, which is what makes a resumed run's
result structurally identical to an unbroken one.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Tuple, Union

from repro.core.mms import BITS_PER_OP, MMS, MmsConfig, MmsLoadResult
from repro.core.workloads import (
    LOAD_LAG_VOLLEYS,
    Counters,
    FeederOp,
    load_feed_ops,
    overload_drain_ops,
    overload_feed_ops,
    saturation_feed_ops,
)
from repro.engines.stream import StreamMms
from repro.policies.harness import OverloadResult
from repro.sim.clock import Clock, SEC

#: Either machine a driver can run on (same driver surface).
Machine = Union[StreamMms, MMS]

#: Saturation harness horizon (far beyond any drain time).
SATURATION_HORIZON_PS = 60 * SEC

#: ``(enqueue, phase)`` of the four Table 5 / saturation ports, in
#: attach order: In, Out, CPU0, CPU1.
FOUR_PORTS = ((True, 0), (False, 0), (True, 1), (False, 1))


def make_machine(config: MmsConfig, engine: str, probe=None) -> Machine:
    """The machine a workload runs on: the command-stream machine for
    ``"fast"``, the kernel MMS for ``"reference"``."""
    if engine == "fast":
        return StreamMms(config, probe=probe)
    if engine == "reference":
        return MMS(config, probe=probe)
    raise ValueError(f"unknown engine {engine!r} "
                     "(choose 'fast' or 'reference')")


def replay_records(eng: Machine, probe, horizon: int) -> list:
    """The run's latency records in delivery order, handed to the
    probe's ``on_records`` channel in one call (then replayed into its
    ``on_stages`` channel when it wants stages).  The two channels carry
    no ordering contract between each other, so feeding them back to
    back is what every engine does.  The records carry the opcode
    (``with_ops``) only when there is a probe to feed them to."""
    records = eng.latency_records(horizon, with_ops=probe is not None)
    if probe is not None:
        probe.on_records(records)
        if getattr(probe, "wants_stages", False):
            on_stages = probe.on_stages
            for (time_ps, seq, op, flow, submit, start, end, dsub,
                 ddone) in eng.stage_records(horizon):
                on_stages(time_ps, seq, op, flow, submit, start, end, dsub,
                          ddone)
    return records


# ================================================== Table 5 load pacing

def load_volley_period_ps(offered_gbps: float) -> int:
    """Volley pacing of the Table 5 harness at one offered load."""
    return round(4 * BITS_PER_OP / offered_gbps * 1000)


def load_prefill_packets(active_flows: int) -> int:
    """Per-flow prefill depth of the Table 5 harness: each flow is
    enqueued once per ``active_flows / 2`` volleys and the dequeue
    stream lags by ``LOAD_LAG_VOLLEYS``, so a small backlog suffices."""
    return (2 * LOAD_LAG_VOLLEYS) // active_flows + 4


def load_horizon_ps(num_volleys: int, volley_period_ps: int) -> int:
    """Run horizon of the Table 5 harness."""
    return (num_volleys + 64) * volley_period_ps + 10 * SEC // 1000


def fold_means(records) -> Tuple[int, float, float, float, float]:
    """``(count, fifo, execution, data, end_to_end)`` means of latency
    records, folded in one pass with the Welford mean step of
    :class:`~repro.sim.stats.RunningStats` (``mean += (x - mean) / k``),
    so the means are bit-identical to feeding each column through its
    own :class:`~repro.sim.stats.RunningStats`.  An empty list folds to
    zeros, as an empty accumulator reads."""
    k = 0
    fifo = execution = data = e2e = 0.0
    for rec in records:
        k += 1
        fifo += (rec[1] - fifo) / k
        execution += (rec[2] - execution) / k
        data += (rec[3] - data) / k
        e2e += (rec[4] - e2e) / k
    return k, fifo, execution, data, e2e


def assemble_load_result(eng: Machine, probe, horizon: int,
                         warmup_volleys: int, offered_gbps: float,
                         engine: str = "fast") -> MmsLoadResult:
    """Fold the finished run's records into one Table 5 row.

    The first ``warmup_volleys * 4`` records are the warm-up; the row's
    means are one :func:`fold_means` pass over the records after them
    (the warm window), timed from the last warm-up record to the last
    record.  When the warm window is empty (no warm-up, or a run too
    short to leave it) the row folds every record instead, timed from
    the last warm-up record if there is one, else from zero.
    """
    records = replay_records(eng, probe, horizon)
    boundary = warmup_volleys * 4
    t_last = records[-1][0] if records else 0
    t0 = records[boundary - 1][0] if 0 < boundary <= len(records) else 0
    window = records[boundary:] if boundary > 0 else []
    count, fifo, execution, data, e2e = fold_means(window or records)
    return MmsLoadResult(
        offered_gbps=offered_gbps,
        completed_ops=count,
        elapsed_ps=t_last - t0,
        fifo_cycles=fifo,
        execution_cycles=execution,
        data_cycles=data,
        end_to_end_cycles=e2e,
        engine=engine,
    )


def drive_load(offered_gbps: float, *, num_volleys: int,
               config: MmsConfig, active_flows: int, warmup_volleys: int,
               burst_len: int, burst_prob: float, seed: int,
               engine: str = "fast", probe=None) -> MmsLoadResult:
    """Table 5 at one offered load (arguments validated by
    :func:`repro.core.mms.run_load`)."""
    eng = make_machine(config, engine, probe)
    eng.prefill(range(active_flows),
                packets_per_flow=load_prefill_packets(active_flows))
    volley_period_ps = load_volley_period_ps(offered_gbps)

    def now() -> int:
        return eng.now

    for port, (enqueue, phase) in enumerate(FOUR_PORTS):
        eng.add_feeder(port, load_feed_ops(
            now, port, enqueue, phase, num_volleys, volley_period_ps,
            active_flows, burst_len, burst_prob, seed))

    horizon = load_horizon_ps(num_volleys, volley_period_ps)
    eng.run(horizon)
    return assemble_load_result(eng, probe, horizon, warmup_volleys,
                                offered_gbps, engine)


# ================================================== saturation pacing

def saturation_prefill_packets(per_port: int, active_flows: int) -> int:
    """Per-flow prefill depth of the saturation harness."""
    return per_port * 2 // active_flows + 2


def assemble_saturation_result(eng: Machine, probe, horizon: int,
                               engine: str = "fast") -> MmsLoadResult:
    """Fold every record of the finished saturation run into one row
    (one :func:`fold_means` pass)."""
    count, fifo, execution, data, e2e = fold_means(
        replay_records(eng, probe, horizon))
    # the DQM runs back-to-back under saturation: its executed count and
    # the average latency bound the execution span tightly
    elapsed = round(eng.commands_executed * execution * eng.clock.period_ps)
    return MmsLoadResult(
        offered_gbps=float("inf"),
        completed_ops=count,
        elapsed_ps=elapsed,
        fifo_cycles=fifo,
        execution_cycles=execution,
        data_cycles=data,
        end_to_end_cycles=e2e,
        engine=engine,
    )


def drive_saturation(*, num_commands: int, config: MmsConfig,
                     active_flows: int, engine: str = "fast",
                     probe=None) -> MmsLoadResult:
    """The headline saturation experiment."""
    eng = make_machine(config, engine, probe)
    per_port = num_commands // 4
    eng.prefill(range(active_flows),
                packets_per_flow=saturation_prefill_packets(per_port,
                                                            active_flows))
    for port, (enqueue, phase) in enumerate(FOUR_PORTS):
        eng.add_feeder(port,
                       saturation_feed_ops(enqueue, phase, per_port,
                                           active_flows))
    horizon = SATURATION_HORIZON_PS
    eng.run(horizon)
    return assemble_saturation_result(eng, probe, horizon, engine)


# ==================================================== overload pacing

def overload_pacing_ps(clock: Clock) -> Tuple[int, int]:
    """``(drain_period_ps, enq_period_ps)`` of the overload harness:
    the DQM serves one command per ~10.5 cycles, the drain dequeues at
    twice that interval, and the three enqueue ports together offer
    four segments per drain slot -- 2x oversubscription."""
    service_ps = round(10.5 * clock.period_ps)
    drain_period = 2 * service_ps
    return drain_period, 3 * drain_period // 4


def overload_horizon_ps(num_arrivals: int, enq_period_ps: int,
                        num_segments: int, drain_period_ps: int) -> int:
    """Run horizon of the overload harness."""
    return (num_arrivals * 16 * enq_period_ps
            + num_segments * 4 * drain_period_ps
            + SEC // 1000)


def assemble_overload_result(eng: Machine, cfg: MmsConfig, shape: str,
                             counters: Dict[str, int], horizon: int,
                             probe=None,
                             engine_label: str = "fast") -> OverloadResult:
    """The policy's loss counters after the run (the records only feed
    the probe: the overload result wants counters, not latencies)."""
    if probe is not None:
        replay_records(eng, probe, horizon)
    policy = eng.policy
    stats = policy.stats
    return OverloadResult(
        policy=cfg.policy.name,
        shape=shape,
        offered_segments=stats.offered_segments,
        offered_bytes=stats.offered_bytes,
        accepted_segments=stats.accepted_segments,
        accepted_bytes=stats.accepted_bytes,
        dropped_segments=stats.dropped_segments,
        dropped_bytes=stats.dropped_bytes,
        pushed_out_segments=stats.pushed_out_segments,
        pushed_out_bytes=stats.pushed_out_bytes,
        dequeued_segments=counters["dequeued"],
        residual_segments=policy.total_segments,
        capacity_segments=cfg.num_segments,
        elapsed_ps=eng.now,
        engine=engine_label,
    )


#: Stands in for each environment read a feeder makes (the drain's
#: ``queued_packets`` probe).
Wrap = Callable[[Callable[..., Any]], Callable[..., Any]]

#: A feeder factory of the overload wiring: ``factory(wrap, counters)``
#: builds the feeder generator; ``counters`` is the feeders' shared
#: store, holding ``"dequeued"``.
FeederFactory = Callable[[Wrap, Counters], Iterator[FeederOp]]


def _unwrapped(fn: Callable[..., Any]) -> Callable[..., Any]:
    """The plain path's wrap: environment reads go straight through."""
    return fn


def overload_drain(eng: Machine, active_flows: int,
                   drain_period_ps: int) -> FeederFactory:
    """The factory of the closed-loop overload drain on ``eng``."""
    def factory(wrap: Wrap, counters: Counters) -> Iterator[FeederOp]:
        return overload_drain_ops(wrap(eng.pqm.queued_packets),
                                  active_flows, drain_period_ps, counters)
    return factory


def overload_feeders(eng: Machine, shape: str, num_arrivals: int,
                     active_flows: int
                     ) -> Tuple[List[Tuple[int, FeederFactory]], int]:
    """The overload wiring on ``eng``: ``(port, factory)`` pairs in
    attach order -- three shaped enqueue ports, then the drain -- and
    the run horizon.  :func:`drive_overload` calls each factory with an
    identity wrap and a dict; the checkpoint driver calls it with a
    feeder tape's wrap and a taped counter view, so both paths attach
    the same feeders."""
    drain_period, enq_period = overload_pacing_ps(eng.clock)
    per_port = num_arrivals // 3

    def enqueue_port(port: int) -> FeederFactory:
        def factory(wrap: Wrap, counters: Counters) -> Iterator[FeederOp]:
            return overload_feed_ops(shape, port, per_port, active_flows,
                                     enq_period, counters)
        return factory

    feeders = [(port, enqueue_port(port)) for port in range(3)]
    feeders.append((3, overload_drain(eng, active_flows, drain_period)))
    return feeders, overload_horizon_ps(num_arrivals, enq_period,
                                        eng.config.num_segments,
                                        drain_period)


def drive_overload(cfg: MmsConfig, shape: str, *, num_arrivals: int,
                   active_flows: int, engine: str = "fast",
                   probe=None) -> OverloadResult:
    """One overload experiment.  ``cfg`` is the already-resolved build
    (policy spec, seed and record retention folded in by
    :func:`repro.policies.harness.run_overload`, which owns the argument
    validation)."""
    eng = make_machine(cfg, engine, probe)
    counters = {"dequeued": 0}
    feeders, horizon = overload_feeders(eng, shape, num_arrivals,
                                        active_flows)
    for port, factory in feeders:
        eng.add_feeder(port, factory(_unwrapped, counters))
    eng.run(horizon)
    return assemble_overload_result(eng, cfg, shape, counters, horizon,
                                    probe=probe, engine_label=engine)
