"""Engine identity of every scenario with the engine knob.

Each scenario whose spec supports ``engine`` runs at the fast budget on
both engines, with telemetry and tracing on wherever the spec supports
them, and must return *equal* metrics, paper deltas and blocks: the
fast machines (the DDR bank fastpath, the command-stream MMS and the
IXP machine) are trace-identical to the DES kernel, so nothing a
scenario publishes may tell the two apart.
"""

import pytest

from repro.scenarios import Runner, all_scenarios

#: Every scenario with the engine knob, in registry order.
ENGINE_SCENARIOS = tuple(name for name, scenario in all_scenarios().items()
                         if "engine" in scenario.spec.supports)


@pytest.mark.parametrize("name", ENGINE_SCENARIOS)
def test_scenario_identical_on_both_engines(name):
    supports = all_scenarios()[name].spec.supports
    knobs = {knob: True for knob in ("telemetry", "trace")
             if knob in supports}
    runner = Runner()
    fast = runner.run(name, engine="fast", fast=True, **knobs)
    ref = runner.run(name, engine="reference", fast=True, **knobs)
    assert fast.engine == "fast" and ref.engine == "reference"
    assert fast.metrics == ref.metrics
    assert fast.paper_deltas == ref.paper_deltas
    assert fast.blocks == ref.blocks
    for knob in knobs:
        assert knob in fast.metrics, (name, knob)
