"""Unified Scenario/Runner API: declarative experiment specifications.

Every published artifact of the paper -- Tables 1-5, the architecture
figures, the headline claims, the parameter sweeps and the ablations --
is a registered *scenario*: a frozen :class:`ScenarioSpec` (traffic,
workload, memory backend, scheduler flags, engine, run-length budget,
seed) bound to an executor.  The :class:`Runner` executes a spec into a
typed :class:`RunResult` (structured metrics, paper-comparison deltas,
wall-clock, engine used) that round-trips through JSON; rendering is a
separate presenter concern (:func:`render`).

Typical use::

    from repro.scenarios import Runner, render, scenario_names

    result = Runner().run("table1", engine="reference", seed=7, fast=True)
    print(render(result))            # the paper-vs-model table
    result.metrics["banks8"]         # structured values
    blob = result.to_json()          # round-trips via RunResult.from_json

The CLI front-end is ``repro-analysis list | run | sweep``
(:mod:`repro.analysis.cli`).
"""

from repro.scenarios.spec import (
    BUDGETS,
    ENGINES,
    KINDS,
    MemorySpec,
    ScenarioSpec,
    SchedulerSpec,
    TrafficSpec,
)
from repro.scenarios.result import (
    Block,
    Outcome,
    RESULT_SCHEMA,
    RunResult,
    paper_delta,
    validate_result_dict,
)
from repro.scenarios.registry import (
    Scenario,
    all_scenarios,
    get_scenario,
    register_scenario,
    scenario_names,
    scenarios_of_kind,
)
from repro.scenarios.runner import Runner
from repro.scenarios.presenter import render, render_block
from repro.telemetry import TelemetrySpec

__all__ = [
    "ENGINES",
    "BUDGETS",
    "KINDS",
    "TrafficSpec",
    "MemorySpec",
    "SchedulerSpec",
    "ScenarioSpec",
    "Block",
    "Outcome",
    "RunResult",
    "RESULT_SCHEMA",
    "paper_delta",
    "validate_result_dict",
    "Scenario",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "scenarios_of_kind",
    "all_scenarios",
    "Runner",
    "render",
    "render_block",
    "TelemetrySpec",
]
