"""Trace identity of the command-stream machine vs the DES kernel.

The acceptance bar of ``repro.engines`` is equality, not tolerance:
every harness must return *equal* results (every dataclass field
except the engine label) on the machine and on the reference DES
kernel.
"""

import dataclasses

import pytest

from repro.core.mms import MmsConfig, run_load, run_saturation
from repro.engines import StreamMms
from repro.policies import PolicySpec
from repro.policies.harness import SHAPES, run_overload
from repro.scenarios import Runner

#: Small but structurally faithful MMS build for identity runs.
CFG = MmsConfig(num_flows=256, num_segments=4096, num_descriptors=2048)


def same_result(a, b):
    return all(getattr(a, f.name) == getattr(b, f.name)
               for f in dataclasses.fields(a) if f.name != "engine")


# ------------------------------------------------------------ run_load

@pytest.mark.parametrize("load", [1.6, 5.8, 6.5])
def test_run_load_identical_to_reference(load):
    kw = dict(num_volleys=220, config=CFG, warmup_volleys=40,
              active_flows=128)
    ref = run_load(load, engine="reference", **kw)
    fast = run_load(load, engine="fast", **kw)
    assert same_result(ref, fast)
    assert fast.engine == "fast"


def test_run_load_identical_with_serialized_data_path():
    """The A5 ablation flag (overlap_data=False) is claimed too."""
    cfg = dataclasses.replace(CFG, overlap_data=False)
    kw = dict(num_volleys=150, config=cfg, warmup_volleys=30,
              active_flows=128)
    assert same_result(run_load(4.0, engine="reference", **kw),
                       run_load(4.0, engine="fast", **kw))


# ------------------------------------------------------ run_saturation

def test_run_saturation_identical_to_reference():
    ref = run_saturation(1600, config=CFG, active_flows=128,
                         engine="reference")
    fast = run_saturation(1600, config=CFG, active_flows=128,
                          engine="fast")
    assert same_result(ref, fast)


# -------------------------------------------------------- run_overload

@pytest.mark.parametrize("policy", ["taildrop", "red", "dynamic-threshold",
                                    "lqd"])
def test_run_overload_counters_identical(policy):
    for shape in SHAPES:
        ref = run_overload(PolicySpec(name=policy), shape,
                           num_arrivals=360, engine="reference")
        fast = run_overload(PolicySpec(name=policy), shape,
                            num_arrivals=360, engine="fast")
        assert ref.counters() == fast.counters(), (policy, shape)
        assert (ref.policy, ref.shape) == (fast.policy, fast.shape)


# ----------------------------------------------------- scenario routing

def test_table5_scenario_routes_through_stream_and_matches():
    """The acceptance criterion: Runner().run("table5", engine="fast")
    is trace-identical to engine="reference"."""
    small = MmsConfig(num_flows=512, num_segments=8192,
                      num_descriptors=4096)
    runner = Runner()
    ref = runner.run("table5", engine="reference", fast=True, mms=small)
    fast = runner.run("table5", engine="fast", fast=True, mms=small)
    assert ref.metrics == fast.metrics
    assert ref.paper_deltas == fast.paper_deltas
    assert ref.blocks == fast.blocks


# ------------------------------------------- colliding completion grid

@pytest.mark.parametrize("overlap", [True, False])
def test_colliding_completion_grid_identical_to_reference(monkeypatch,
                                                          overlap):
    """A DMC completion grid on the MMS clock grid (120 ns pipeline +
    40 ns write delay = 160 ns = 20 MMS cycles) puts transfer
    completions and command finalizes on the same instants; the stream
    machine itself (no kernel is built on the fast side) still matches
    the reference."""
    cfg = dataclasses.replace(CFG, dmc_pipeline_ns=120,
                              overlap_data=overlap)
    kw = dict(num_volleys=120, config=cfg, warmup_volleys=20,
              active_flows=128)
    ref = run_load(4.0, engine="reference", **kw)

    def refuse(*args, **kwargs):
        raise AssertionError("the fast engine built a simulator")

    monkeypatch.setattr("repro.sim.kernel.Simulator.__init__", refuse)
    fast = run_load(4.0, engine="fast", **kw)
    assert same_result(ref, fast)
    assert fast.engine == "fast"


def test_run_resumes_across_horizons_like_the_kernel():
    """run() must leave the first over-horizon wake scheduled, so a
    split run reaches the same state as one long run (kernel
    contract)."""
    from repro.core.workloads import saturation_feed_ops

    def build():
        eng = StreamMms(CFG)
        eng.prefill(range(128), packets_per_flow=10)
        for port, (enqueue, phase) in enumerate(((True, 0), (False, 0),
                                                 (True, 1), (False, 1))):
            eng.add_feeder(port,
                           saturation_feed_ops(enqueue, phase, 250, 128))
        return eng

    one = build()
    one.run(10**9)
    split = build()
    split.run(10**5)
    assert split.commands_executed < one.commands_executed
    split.run(10**9)
    assert split.commands_executed == one.commands_executed
    assert split.latency_records(10**9) == one.latency_records(10**9)


@pytest.mark.parametrize("overlap", [True, False])
def test_dmc_wakes_never_enter_the_heap(monkeypatch, overlap):
    """The DMC's one pending wake lives in its register: a Table 5 load
    pushes no DMC-kind wake onto the heap, yet the register serves every
    data transfer (the run still matches the kernel)."""
    import heapq

    from repro.engines import stream

    kinds = set()

    def recording_push(heap, item):
        kinds.add(item[2])
        heapq.heappush(heap, item)

    monkeypatch.setattr(stream, "heappush", recording_push)
    cfg = dataclasses.replace(CFG, overlap_data=overlap)
    kw = dict(num_volleys=120, config=cfg, warmup_volleys=20,
              active_flows=128)
    fast = run_load(4.0, engine="fast", **kw)
    assert kinds and not kinds & set(stream.DMC_WAKE_KINDS)
    assert fast.data_cycles > 0
    assert same_result(fast, run_load(4.0, engine="reference", **kw))
