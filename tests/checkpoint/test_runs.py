"""Checkpointable run drivers: harness equivalence, structural
absence of checkpoint machinery on the plain path, and driver
validation."""

import dataclasses
import inspect
import json
import types

import pytest

from repro.checkpoint import (
    Checkpoint,
    CheckpointError,
    StreamRun,
    overload_params,
    run_with_checkpoints,
    script_params,
    snapshot_stream,
)
from repro.core.mms import MmsConfig
from repro.engines.stream import StreamMms
from repro.policies import PolicySpec
from repro.policies.harness import OVERLOAD_MMS_CFG, run_overload


def _overload(**kw):
    spec = PolicySpec("red")
    cfg = dataclasses.replace(OVERLOAD_MMS_CFG, policy=spec,
                              policy_seed=11, policy_records=True)
    return overload_params(cfg, "burst", num_arrivals=240,
                           active_flows=32, **kw)


# ----------------------------------------------- harness equivalence

def test_stream_run_matches_plain_harness():
    """A checkpointable overload run must reproduce the plain harness
    byte-for-byte -- the instrumentation is observationally free."""
    base = run_overload(PolicySpec("red"), "burst", num_arrivals=240,
                        active_flows=32, seed=11, engine="fast",
                        keep_records=True)
    run = StreamRun.fresh("overload", _overload())
    assert run.finish() == base


def test_stream_run_matches_the_reference_harness():
    """The checkpointable stream run equals the unbroken DES-kernel
    reference field for field (only the engine label differs)."""
    base = run_overload(PolicySpec("red"), "burst", num_arrivals=240,
                        active_flows=32, seed=11, engine="reference",
                        keep_records=True)
    result = StreamRun.fresh("overload", _overload()).finish()
    assert dataclasses.replace(result, engine="reference") == base


def test_documents_with_a_legacy_engine_label_still_resume():
    """Overload documents written when the kernel could checkpoint too
    carry an ``engine_label`` param; it loads and selects nothing."""
    base = StreamRun.fresh("overload", _overload()).finish()
    run = StreamRun.fresh("overload", _overload())
    run.run(run.horizon // 4)
    doc = run.checkpoint().to_dict()
    doc["params"]["engine_label"] = "fast"
    resumed = StreamRun.resume(Checkpoint.from_json(json.dumps(doc)))
    assert resumed.finish() == base


# ---------------------------------------------- structural absence

def test_plain_harness_path_carries_no_checkpoint_machinery():
    """When checkpointing is off, it is *structurally* absent: the
    plain harnesses hand the engine raw generators (no tape wrappers,
    no counter views), so the hot path pays nothing."""
    from repro.core.workloads import overload_feed_ops
    cfg = dataclasses.replace(OVERLOAD_MMS_CFG, policy=PolicySpec("red"),
                              policy_seed=11)
    eng = StreamMms(cfg)
    eng.add_feeder(0, overload_feed_ops("burst", 0, 20, 8, 1000, {}))
    assert all(isinstance(f, types.GeneratorType) for f in eng._feeders)
    # and the snapshotter refuses such an engine rather than silently
    # producing a checkpoint that cannot resume
    with pytest.raises(CheckpointError, match="CountedFeeder"):
        snapshot_stream(eng)


@pytest.mark.parametrize("module_name", [
    "repro.engines.stream",
    "repro.engines.harnesses",
    "repro.core.workloads",
    "repro.policies.harness",
])
def test_plain_path_sources_never_import_checkpoint(module_name):
    import importlib
    src = inspect.getsource(importlib.import_module(module_name))
    for stmt in ("import repro.checkpoint", "from repro.checkpoint",
                 "from repro import checkpoint"):
        assert stmt not in src, \
            f"{module_name} must not depend on the checkpoint package"


# ------------------------------------------------------- validation

def test_unknown_workloads_are_rejected():
    with pytest.raises(CheckpointError, match="unknown stream workload"):
        StreamRun("quantum", {})


def test_resume_rejects_engine_mismatch(tmp_path):
    """Only the stream engine checkpoints: a document naming the kernel
    (written when it could) is refused at load, naming the engine."""
    stream = StreamRun.fresh("overload", _overload())
    stream.run(1_000_000)
    doc = stream.checkpoint().to_dict()
    doc["engine"] = "kernel"
    with pytest.raises(CheckpointError, match="engine 'kernel'"):
        Checkpoint.from_dict(doc)
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="engine 'kernel'"):
        Checkpoint.load(str(path))


def test_script_params_drain_needs_three_mark_done_scripts():
    cfg = MmsConfig(num_flows=16, num_segments=64, num_descriptors=64)
    with pytest.raises(CheckpointError, match="exactly 3"):
        script_params(cfg, [[1000], [1000]], horizon_ps=10**9,
                      mark_done=True, drain=True, drain_period_ps=1000,
                      drain_active_flows=4)
    with pytest.raises(CheckpointError, match="mark_done"):
        script_params(cfg, [[1000]] * 3, horizon_ps=10**9,
                      mark_done=False, drain=True, drain_period_ps=1000,
                      drain_active_flows=4)


# ----------------------------------------------- periodic checkpoints

def test_run_with_checkpoints_counts_interior_boundaries():
    run = StreamRun.fresh("overload", _overload())
    sunk = []
    horizon = run.horizon
    every = horizon // 4
    n = run_with_checkpoints(run, every, sunk.append)
    assert n == len(sunk) == 3          # the final state is not sunk
    assert [c.at_ps for c in sunk] == [every, 2 * every, 3 * every]
    assert run.now == horizon


def test_run_with_checkpoints_rejects_nonpositive_period():
    run = StreamRun.fresh("overload", _overload())
    with pytest.raises(CheckpointError, match="positive"):
        run_with_checkpoints(run, 0, lambda c: None)
