"""Resume-identity for traces: split runs fold byte-identical spans.

The trace collector's fold state rides the checkpoint envelope (exact
stream snapshots), so a run split at any rest point must produce a
byte-identical trace snapshot to an unbroken run -- the same contract
the telemetry fold already honors -- and to the unbroken DES-kernel
reference run.
"""

import dataclasses
import json
import random

import pytest

from repro.checkpoint import (
    Checkpoint,
    CheckpointError,
    StreamRun,
    overload_params,
)
from repro.policies import PolicySpec
from repro.policies.harness import run_overload
from repro.telemetry import MmsTelemetry, ProbeChain, TelemetrySpec
from repro.trace import TraceCollector, TraceSpec

LATENCY_POLICIES = (
    PolicySpec("taildrop"),
    PolicySpec("red"),
    PolicySpec("dynamic-threshold", alpha=1.0),
    PolicySpec("lqd"),
)


def _cfg(policy):
    from repro.policies.harness import OVERLOAD_MMS_CFG
    return dataclasses.replace(OVERLOAD_MMS_CFG, policy=policy,
                               policy_seed=11, policy_records=True)


def _params(policy):
    return overload_params(_cfg(policy), "burst", num_arrivals=240,
                           active_flows=32, telemetry=TelemetrySpec(),
                           trace=TraceSpec())


def _observed(run):
    """Result + telemetry + trace snapshots of a finished run."""
    result = run.finish()
    return (result,
            json.dumps(run.telemetry.snapshot().to_dict()),
            json.dumps(run.tracer.snapshot().to_dict()))


def _span(run):
    """A split point inside the active region (last occupancy
    sample)."""
    return run.telemetry.state_dict()["series"][-1][0]


@pytest.mark.parametrize("policy", LATENCY_POLICIES,
                         ids=lambda p: p.name)
def test_stream_split_trace_identical(policy):
    params = _params(policy)
    whole = StreamRun.fresh("overload", params)
    base = _observed(whole)
    assert whole.tracer.snapshot().counters["completed"] > 0
    span = _span(whole)
    rng = random.Random(hash(policy.name) & 0xFFFF)
    for _ in range(2):
        run = StreamRun.fresh("overload", params)
        run.run(rng.randrange(1, span))
        blob = run.checkpoint().to_json()
        resumed = StreamRun.resume(Checkpoint.from_json(blob))
        assert _observed(resumed) == base


def test_stream_split_trace_matches_the_unbroken_reference():
    """A split-and-resumed stream run folds the trace and telemetry of
    the unbroken DES-kernel run (trace identity survives the split and
    the engine)."""
    policy = PolicySpec("lqd")
    telemetry = MmsTelemetry(TelemetrySpec())
    tracer = TraceCollector(TraceSpec())
    run_overload(policy, "burst", num_arrivals=240, active_flows=32,
                 seed=11, engine="reference", keep_records=True,
                 probe=ProbeChain([telemetry, tracer]))
    run = StreamRun.fresh("overload", _params(policy))
    run.run(telemetry.state_dict()["series"][-1][0] // 2)
    resumed = StreamRun.resume(
        Checkpoint.from_json(run.checkpoint().to_json()))
    resumed.finish()
    assert tracer.snapshot().counters["completed"] > 0
    assert json.dumps(resumed.tracer.snapshot().to_dict()) == \
        json.dumps(tracer.snapshot().to_dict())
    assert json.dumps(resumed.telemetry.snapshot().to_dict()) == \
        json.dumps(telemetry.snapshot().to_dict())


def test_checkpoint_and_params_must_agree_about_tracing():
    params = _params(PolicySpec("taildrop"))
    run = StreamRun.fresh("overload", params)
    run.run(1_000_000)
    ckpt = run.checkpoint()

    # params say traced, state says not
    state = dict(ckpt.state, trace=None)
    broken = Checkpoint(engine="stream", workload=ckpt.workload,
                        at_ps=ckpt.at_ps, params=ckpt.params,
                        state=state)
    with pytest.raises(CheckpointError, match="tracing"):
        StreamRun.resume(broken)

    # a pre-trace checkpoint (no "trace" key at all) resumes fine when
    # the params carry no trace spec either
    legacy_params = {k: v for k, v in ckpt.params.items()
                     if k != "trace"}
    legacy = StreamRun.fresh("overload", dict(legacy_params))
    legacy.run(1000)
    legacy_ckpt = legacy.checkpoint()
    legacy_state = {k: v for k, v in legacy_ckpt.state.items()
                    if k != "trace"}
    revived = StreamRun.resume(
        Checkpoint(engine="stream", workload=legacy_ckpt.workload,
                   at_ps=legacy_ckpt.at_ps, params=legacy_params,
                   state=legacy_state))
    assert revived.tracer is None
