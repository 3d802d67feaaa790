"""Capability flags (``ScenarioSpec.fastpath``) and the qos family."""

import pytest

from repro.scenarios import Runner, all_scenarios
from repro.scenarios.spec import FASTPATHS, ScenarioSpec


def test_fastpath_values_are_valid():
    for name, scenario in all_scenarios().items():
        assert scenario.spec.fastpath in FASTPATHS, name


def test_fastpath_none_iff_no_engine_knob():
    for name, scenario in all_scenarios().items():
        spec = scenario.spec
        assert (spec.fastpath == "none") == ("engine" not in spec.supports), \
            name


def test_ixp_flagged_scenarios_build_no_simulator(monkeypatch):
    """An 'ixp' flag is a promise too: the fast engine runs the DES-free
    IXP machine, so no DES kernel is ever constructed."""
    def refuse(*args, **kwargs):
        raise AssertionError("an ixp-flagged scenario built a simulator")

    monkeypatch.setattr("repro.sim.kernel.Simulator.__init__", refuse)
    flagged = [name for name, scenario in all_scenarios().items()
               if scenario.spec.fastpath == "ixp"]
    assert sorted(flagged) == ["ablation-multithreading",
                               "sweep-ixp-rate-queues", "table2"]
    for name in flagged:
        Runner().run(name, fast=True, engine="fast")


def test_fast_flagged_scenarios_build_no_simulator(monkeypatch):
    """Every engine-knob scenario keeps its flag's promise: on
    ``engine="fast"`` it runs batched or DES-free, so no DES kernel is
    ever constructed (the kernel is the reference engine only)."""
    def refuse(*args, **kwargs):
        raise AssertionError("a fast-engine scenario built a simulator")

    monkeypatch.setattr("repro.sim.kernel.Simulator.__init__", refuse)
    flagged = {name: scenario.spec.fastpath
               for name, scenario in all_scenarios().items()
               if scenario.spec.fastpath != "none"}
    assert set(flagged.values()) == {"bank", "stream", "ixp", "mixed"}
    for name in flagged:
        Runner().run(name, fast=True, engine="fast")


def test_unflagged_scenarios_build_no_simulator(monkeypatch):
    """The DES kernel is the reference engine only: a scenario without
    the engine knob runs on its only path (closed forms, structural
    builds, the functional QoS queues) with ``Simulator.__init__``
    refused. With the flagged test above this covers every scenario."""
    def refuse(*args, **kwargs):
        raise AssertionError("an unflagged scenario built a simulator")

    monkeypatch.setattr("repro.sim.kernel.Simulator.__init__", refuse)
    scenarios = all_scenarios()
    assert len(scenarios) == 44
    unflagged = [name for name, scenario in scenarios.items()
                 if scenario.spec.fastpath == "none"]
    assert unflagged
    for name in unflagged:
        Runner().run(name, fast=True)


def test_spec_rejects_bad_fastpath_values():
    with pytest.raises(ValueError, match="fastpath"):
        ScenarioSpec(name="x", kind="table", title="t", workload="mms",
                     fastpath="warp")
    # engine knob without a fastpath declaration is inconsistent
    with pytest.raises(ValueError, match="fastpath"):
        ScenarioSpec(name="x", kind="table", title="t", workload="mms",
                     supports=frozenset({"engine"}))


# ---------------------------------------------------------- qos family

def test_qos_strict_priority_serves_classes_in_order():
    result = Runner().run("qos-strict-priority", fast=True)
    assert result.metrics["inversions"] == 0
    assert sum(result.metrics["packets"]) > 0
    assert result.engine == "n/a"


def test_qos_drr_shares_follow_weights():
    result = Runner().run("qos-drr", fast=True)
    served = result.metrics["bytes"]
    weights = result.metrics["weights"]
    assert all(b > 0 for b in served)
    # the weight-4 class must out-serve the weight-1 classes clearly
    assert served[0] > 2 * served[2]
    assert served[0] > 2 * served[3]
    assert weights == [4.0, 2.0, 1.0, 1.0]


def test_qos_scenarios_honor_the_seed_knob():
    runner = Runner()
    a = runner.run("qos-drr", fast=True, seed=1)
    b = runner.run("qos-drr", fast=True, seed=2)
    c = runner.run("qos-drr", fast=True, seed=1)
    assert a.metrics == c.metrics
    assert a.metrics != b.metrics
