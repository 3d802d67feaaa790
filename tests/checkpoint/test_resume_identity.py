"""Differential resume-identity fuzz: split anywhere, resume, compare.

The checkpoint contract is *byte* identity, not statistical sameness: a
run split at a random rest point, serialized through JSON, and resumed
in a fresh process-equivalent (new engine objects, re-derived feeders)
must produce the same traces, dispatch log, latency records, drop
records, telemetry snapshot and final functional state as an unbroken
run.  This suite fuzzes that over:

* rich mixed-op scripts (every command type) on the stream engine,
  with multi-split chains (resume of a resume),
* the same split runs against the unbroken DES-kernel reference (the
  kernel takes no checkpoints: it is the oracle the split runs meet),
* all four latency-family policies (taildrop, red, dynamic-threshold,
  lqd) under the overload workload, against the unbroken stream run
  and the unbroken reference,
* drained overload scripts (closed-loop ``queued_packets`` probing and
  shared counters crossing the checkpoint boundary),
* edge splits: before the first event and after the workload drained.

The observation machinery is borrowed from the engine-equivalence fuzz
(``tests/engines/test_stream_fuzz``) so "everything observable" means
exactly what it means there.
"""

import dataclasses
import heapq
import json
import random

import pytest

from repro.checkpoint import (
    Checkpoint,
    CheckpointError,
    StreamRun,
    overload_params,
    script_params,
)
from repro.core.commands import CommandType
from repro.core.mms import MmsConfig
from repro.engines import harnesses
from repro.engines.stream import DMC_WAKE_KINDS
from repro.policies import PolicySpec
from repro.telemetry import MmsTelemetry, TelemetrySpec
from tests.engines.test_stream_fuzz import (
    Capture,
    HORIZON,
    TELE_SPEC,
    _capture_mem,
    assert_identical,
    make_mixed_scripts,
    run_reference,
    run_stream,
)

MIXED_CFG = MmsConfig(num_flows=16, num_segments=4096,
                      num_descriptors=2048)

LATENCY_POLICIES = (
    PolicySpec("taildrop"),
    PolicySpec("red"),
    PolicySpec("dynamic-threshold", alpha=1.0),
    PolicySpec("lqd"),
)


def _attach(run: StreamRun) -> Capture:
    """Hook one engine segment the way the engine fuzz does."""
    cap = Capture()
    _capture_mem(cap, run.eng.pqm.mem)
    eng = run.eng
    eng.trace_hook = lambda cmd, result, trace: cap.cmds.append(
        (cmd[0].value, cmd[1], repr(result), len(trace), eng.now))
    return cap


def _finalize(run: StreamRun, caps, horizon=HORIZON) -> Capture:
    """Fold per-segment captures plus the finished run's record-derived
    observables into one full-run Capture (the restored ``_done`` list
    spans the whole run, so latency records and telemetry come from the
    final engine alone)."""
    cap = Capture()
    cap.traces = [t for c in caps for t in c.traces]
    cap.cmds = [c_ for c in caps for c_ in c.cmds]
    records = run.eng.latency_records(horizon, with_ops=True)
    for t, f, e, d, ee, op in records:
        run.probe.on_record(t, op, f, e, d, ee)
    cap.records = [(t, f, e, d, ee) for t, f, e, d, ee, _op in records]
    cap.stages = run.eng.stage_records(horizon)
    cap.telemetry = json.dumps(run.probe.snapshot().to_dict())
    cap.snapshot_final(run.eng.pqm, run.eng.policy, run.eng.now,
                       run.eng.commands_executed)
    return cap


def run_stream_with_splits(params, split_points) -> Capture:
    """Drive a StreamRun, checkpointing and resuming (through a full
    JSON round-trip) at every split point, and capture everything.
    The capture's ``dmc_pending_splits`` counts the checkpoints taken
    while the DMC had a wake pending (written into the document's wake
    list from the machine's DMC register)."""
    run = StreamRun.fresh("script", params)
    caps = [_attach(run)]
    dmc_pending = 0
    for at in sorted(split_points):
        run.run(at)
        ckpt = Checkpoint.from_json(run.checkpoint().to_json())
        dmc_pending += any(w[2] in DMC_WAKE_KINDS
                           for w in ckpt.state["machine"]["wakes"])
        run = StreamRun.resume(ckpt)
        caps.append(_attach(run))
    run.run(HORIZON)
    cap = _finalize(run, caps)
    cap.dmc_pending_splits = dmc_pending
    return cap


def _span(cap: Capture) -> int:
    """The active span of a captured run: the last command dispatch
    time (the run's final ``now`` is just the horizon)."""
    return cap.cmds[-1][4]


@pytest.mark.parametrize("seed", [1, 7, 2005])
def test_mixed_scripts_stream_split_identical(seed):
    scripts = make_mixed_scripts(seed)
    unbroken = run_stream(MIXED_CFG, [list(s) for s in scripts])
    span = _span(unbroken)
    rng = random.Random(seed * 97 + 5)
    params = script_params(MIXED_CFG, scripts, horizon_ps=HORIZON,
                           telemetry=TELE_SPEC)
    # two independent single splits plus one two-split chain
    dmc_pending = 0
    for splits in ([rng.randrange(1, span)],
                   [rng.randrange(1, span)],
                   sorted(rng.randrange(1, span) for _ in range(2))):
        split = run_stream_with_splits(params, splits)
        assert_identical(unbroken, split)
        dmc_pending += split.dmc_pending_splits
    # at least one split must carry the DMC register through a resume
    assert dmc_pending >= 1


def test_mixed_scripts_stream_edge_splits():
    scripts = make_mixed_scripts(1)
    unbroken = run_stream(MIXED_CFG, [list(s) for s in scripts])
    params = script_params(MIXED_CFG, scripts, horizon_ps=HORIZON,
                           telemetry=TELE_SPEC)
    # before the first event, and after every feeder drained (but
    # short of the horizon: the final clock must still agree)
    assert_identical(unbroken, run_stream_with_splits(params, [0]))
    assert_identical(unbroken,
                     run_stream_with_splits(params, [HORIZON // 2]))



def _dmc_pending_checkpoint(params, seed):
    """A checkpoint document of a script run taken at a rest point where
    the DMC has a wake pending (the first such of a few random splits)."""
    rng = random.Random(seed)
    for _ in range(50):
        run = StreamRun.fresh("script", params)
        run.run(rng.randrange(1, 2 * 10**7))
        if run.eng._dmc_kind is not None:
            return json.loads(run.checkpoint().to_json())
    raise AssertionError("no split point found with a DMC wake pending")


def test_legacy_heap_wake_layout_resumes_identically():
    """Documents written while the DMC's wakes lived on the heap hold
    every pending wake in one heap-ordered list; they resume into the
    register and finish identically."""
    scripts = make_mixed_scripts(1)
    unbroken = run_stream(MIXED_CFG, [list(s) for s in scripts])
    params = script_params(MIXED_CFG, scripts, horizon_ps=HORIZON,
                           telemetry=TELE_SPEC)
    doc = _dmc_pending_checkpoint(params, seed=3)
    wakes = doc["state"]["machine"]["wakes"]
    assert sum(w[2] in DMC_WAKE_KINDS for w in wakes) == 1
    heapq.heapify(wakes)
    run = StreamRun.resume(Checkpoint.from_json(json.dumps(doc)))
    assert run.eng._dmc_kind in DMC_WAKE_KINDS
    assert all(w[2] not in DMC_WAKE_KINDS for w in run.eng._wakes)
    caps = [_attach(run)]
    run.run(HORIZON)
    resumed = _finalize(run, caps)
    # the resumed segment's records and final state match the whole run
    assert resumed.records == unbroken.records
    assert resumed.telemetry == unbroken.telemetry
    assert resumed.final == unbroken.final


@pytest.mark.parametrize("corruption", ["two-dmc-wakes", "idle-flag"])
def test_inconsistent_dmc_wakes_are_refused(corruption):
    scripts = make_mixed_scripts(1)
    params = script_params(MIXED_CFG, scripts, horizon_ps=HORIZON,
                           telemetry=TELE_SPEC)
    doc = _dmc_pending_checkpoint(params, seed=3)
    machine = doc["state"]["machine"]
    if corruption == "two-dmc-wakes":
        dmc_wake = next(w for w in machine["wakes"]
                        if w[2] in DMC_WAKE_KINDS)
        machine["wakes"].append([dmc_wake[0] + 1, machine["seq"] + 1,
                                 dmc_wake[2], None])
    else:
        machine["dmc"]["waiting"] = True
    with pytest.raises(CheckpointError, match="pending DMC wake"):
        StreamRun.resume(Checkpoint.from_json(json.dumps(doc)))


@pytest.mark.parametrize("seed", [1, 7])
def test_mixed_scripts_stream_split_matches_the_reference(seed):
    """A split-and-resumed stream run meets the unbroken DES-kernel
    run: the cross-engine pin on split runs."""
    scripts = make_mixed_scripts(seed)
    reference = run_reference(MIXED_CFG, [list(s) for s in scripts])
    params = script_params(MIXED_CFG, scripts, horizon_ps=HORIZON,
                           telemetry=TELE_SPEC)
    rng = random.Random(seed + 31)
    split = run_stream_with_splits(params,
                                   [rng.randrange(1, _span(reference))])
    assert_identical(reference, split)


# ---------------------------------------------- latency-family policies

def _probe_span(probe) -> int:
    """The last telemetry occupancy sample's time: inside the active
    region of the run by construction."""
    return probe.state_dict()["series"][-1][0]


def _latency_cfg(policy: PolicySpec) -> MmsConfig:
    from repro.policies.harness import OVERLOAD_MMS_CFG
    return dataclasses.replace(OVERLOAD_MMS_CFG, policy=policy,
                               policy_seed=11, policy_records=True)


def _overload_state(run) -> tuple:
    """Everything a latency scenario observes: the typed result, the
    policy books (DropRecords included) and the telemetry snapshot."""
    result = run.finish()
    return (result, run.eng.policy.state_dict(),
            json.dumps(run.probe.snapshot().to_dict()))


@pytest.mark.parametrize("policy", LATENCY_POLICIES,
                         ids=lambda p: p.name)
def test_latency_policies_stream_split_identical(policy):
    params = overload_params(_latency_cfg(policy), "burst",
                             num_arrivals=240, active_flows=32,
                             telemetry=TelemetrySpec())
    whole = StreamRun.fresh("overload", params)
    base = _overload_state(whole)
    span = _probe_span(whole.probe)
    rng = random.Random(hash(policy.name) & 0xFFFF)
    for _ in range(2):
        run = StreamRun.fresh("overload", params)
        run.run(rng.randrange(1, span))
        blob = run.checkpoint().to_json()
        resumed = StreamRun.resume(Checkpoint.from_json(blob))
        assert _overload_state(resumed) == base


@pytest.mark.parametrize("policy", LATENCY_POLICIES,
                         ids=lambda p: p.name)
def test_latency_policies_stream_split_matches_the_reference(policy):
    """The resumed stream run's result, policy books and telemetry
    equal the unbroken DES-kernel overload run's."""
    cfg = _latency_cfg(policy)
    probe = MmsTelemetry(TelemetrySpec())
    eng = harnesses.make_machine(cfg, "reference", probe)
    counters = {"dequeued": 0}
    horizon = harnesses.attach_overload(eng, "burst", 240, 32, counters)
    eng.run(horizon)
    reference = (
        harnesses.assemble_overload_result(eng, cfg, "burst", counters,
                                           horizon, probe=probe),
        eng.policy.state_dict(), json.dumps(probe.snapshot().to_dict()))

    params = overload_params(cfg, "burst", num_arrivals=240,
                             active_flows=32, telemetry=TelemetrySpec())
    run = StreamRun.fresh("overload", params)
    run.run(random.Random(len(policy.name)).randrange(
        1, _probe_span(probe)))
    resumed = StreamRun.resume(
        Checkpoint.from_json(run.checkpoint().to_json()))
    assert _overload_state(resumed) == reference


# ----------------------------------------- drained scripts (counters)

def make_overload_op_lists(seed, per_port=90, active_flows=12):
    """Enqueue-only random ingress scripts as plain op lists (the
    drained-script workload encodes these into checkpoint params)."""
    rng = random.Random(seed)
    scripts = []
    for _port in range(3):
        items = []
        open_left = 0
        flow = 0
        for _i in range(per_port):
            if open_left == 0 and rng.random() < 0.4:
                items.append(rng.randrange(0, 200000))
            if open_left == 0:
                flow = rng.randrange(active_flows)
                open_left = rng.randrange(1, 4)
            open_left -= 1
            items.append((CommandType.ENQUEUE, flow, None,
                          open_left == 0, 64))
        scripts.append(items)
    return scripts


@pytest.mark.parametrize("seed", [3, 19])
def test_drained_scripts_stream_split_identical(seed):
    """The hard feeder case: a closed-loop drain probing
    ``queued_packets`` and bumping shared counters across the split."""
    cfg = MmsConfig(num_flows=16, num_segments=40, num_descriptors=36,
                    policy=PolicySpec("red"), policy_seed=11,
                    policy_records=True)
    scripts = make_overload_op_lists(seed)
    params = script_params(cfg, scripts, horizon_ps=HORIZON,
                           mark_done=True, drain=True,
                           drain_period_ps=2 * round(10.5 * 8000),
                           drain_active_flows=12, telemetry=TELE_SPEC)

    whole = StreamRun.fresh("script", params)
    caps = [_attach(whole)]
    whole.run(HORIZON)
    base = _finalize(whole, caps)
    base_counters = dict(whole.store)
    span = _span(base)

    rng = random.Random(seed * 13 + 1)
    splits = sorted(rng.randrange(1, span) for _ in range(2))
    run = StreamRun.fresh("script", params)
    caps = [_attach(run)]
    for at in splits:
        run.run(at)
        blob = run.checkpoint().to_json()
        run = StreamRun.resume(Checkpoint.from_json(blob))
        caps.append(_attach(run))
    run.run(HORIZON)
    assert_identical(base, _finalize(run, caps))
    assert dict(run.store) == base_counters
    assert base_counters["dequeued"] > 0
    assert run.eng.policy.stats.dropped_segments > 0, \
        "fuzz case never exercised the policy"
