"""Overload harness behavior and fast/reference engine identity.

The acceptance bar of the overload family: every policy runs on at
least three traffic shapes through the Runner/CLI, and the fast and
reference DES kernels report byte-identical drop/accept counters.
"""

import pytest

from repro.policies import PolicySpec
from repro.policies.harness import OVERLOAD_MMS_CFG, SHAPES, run_overload
from repro.scenarios import Runner

ALL_POLICIES = [PolicySpec(name="taildrop"), PolicySpec(name="red"),
                PolicySpec(name="dynamic-threshold"), PolicySpec(name="lqd")]


def test_unknown_shape_rejected():
    with pytest.raises(ValueError, match="shape"):
        run_overload(PolicySpec(name="taildrop"), "trickle")


def test_bad_arrivals_and_flows_rejected():
    with pytest.raises(ValueError, match="num_arrivals"):
        run_overload(PolicySpec(name="taildrop"), "burst", num_arrivals=0)
    with pytest.raises(ValueError, match="active_flows"):
        run_overload(PolicySpec(name="taildrop"), "burst",
                     active_flows=OVERLOAD_MMS_CFG.num_flows + 1)


@pytest.mark.parametrize("shape", SHAPES)
def test_overload_actually_overloads_and_conserves(shape):
    """Every shape must produce loss, and the segment books must
    balance: accepted = dequeued + pushed out + residual."""
    res = run_overload(PolicySpec(name="taildrop"), shape, num_arrivals=300)
    assert res.offered_segments == 300
    assert res.dropped_segments > 0, "no overload reached"
    assert res.accepted_segments == (res.dequeued_segments
                                     + res.pushed_out_segments
                                     + res.residual_segments)
    assert res.accepted_segments + res.dropped_segments == 300
    assert res.capacity_segments == OVERLOAD_MMS_CFG.num_segments


def test_traffic_shapes_are_not_degenerate():
    """The three shapes must measure different things: identical
    counters across shapes would mean the pacing is inert (e.g. FIFO
    backpressure serializing everything into one arrival pattern)."""
    for policy in ALL_POLICIES:
        seen = set()
        for shape in SHAPES:
            r = run_overload(policy, shape, num_arrivals=600)
            seen.add((r.accepted_segments, r.dropped_segments,
                      r.pushed_out_segments))
        assert len(seen) == len(SHAPES), f"{policy.name}: shapes degenerate"


def test_lqd_pushes_out_under_burst():
    res = run_overload(PolicySpec(name="lqd"), "burst", num_arrivals=300)
    assert res.pushed_out_segments > 0
    # push-out admits arrivals that taildrop would lose
    td = run_overload(PolicySpec(name="taildrop"), "burst", num_arrivals=300)
    assert res.dropped_segments < td.dropped_segments


def test_seed_changes_red_drops():
    a = run_overload(PolicySpec(name="red"), "sustained",
                     num_arrivals=300, seed=1)
    b = run_overload(PolicySpec(name="red"), "sustained",
                     num_arrivals=300, seed=2)
    assert a.counters() != b.counters()


# ----------------------------------------- engine identity (acceptance)

@pytest.mark.parametrize("policy", ALL_POLICIES,
                         ids=[p.name for p in ALL_POLICIES])
@pytest.mark.parametrize("shape", SHAPES)
def test_fast_and_reference_engines_report_identical_counters(policy, shape):
    fast = run_overload(policy, shape, num_arrivals=240, engine="fast")
    ref = run_overload(policy, shape, num_arrivals=240, engine="reference")
    assert fast.counters() == ref.counters()


def test_every_overload_scenario_runs_via_runner():
    runner = Runner()
    for stem in ("taildrop", "red", "dt", "lqd"):
        for shape in SHAPES:
            r = runner.run(f"overload-{stem}-{shape}", fast=True)
            assert r.kind == "overload"
            assert r.metrics["offered_segments"] > 0
            assert r.metrics["shape"] == shape
