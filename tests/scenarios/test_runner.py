"""Runner behavior: knob threading, typed results, JSON round-trip."""

import json

import pytest

from repro.scenarios import (
    Runner,
    RunResult,
    render,
    validate_result_dict,
)


# ------------------------------------------------------------- knobs

def test_seed_override_changes_simulated_values():
    runner = Runner()
    a = runner.run("ablation-history-depth", fast=True, seed=1)
    b = runner.run("ablation-history-depth", fast=True, seed=2)
    assert a.seed == 1 and b.seed == 2
    assert a.metrics != b.metrics


def test_budget_knob_recorded():
    r = Runner().run("ablation-history-depth", fast=True)
    assert r.budget == "fast"
    assert r.wall_clock_s > 0


def test_fast_and_budget_are_exclusive():
    with pytest.raises(ValueError, match="not both"):
        Runner().run("table4", fast=True, budget="full")


def test_closed_form_reports_na_engine():
    r = Runner().run("table4", engine="reference")
    assert r.engine == "n/a"


# ----------------------------------------------------- result round-trip

def test_runresult_json_round_trip_exact():
    for name in ("table3", "table4", "figure1"):
        r = Runner().run(name)
        again = RunResult.from_json(r.to_json())
        assert again == r
        assert render(again) == render(r)


def test_runresult_dict_is_schema_valid():
    r = Runner().run("table3")
    assert validate_result_dict(json.loads(r.to_json())) == []


def test_validate_result_dict_flags_problems():
    d = json.loads(Runner().run("table4").to_json())
    d["engine"] = "warp"
    del d["seed"]
    problems = validate_result_dict(d)
    assert any("engine" in p for p in problems)
    assert any("seed" in p for p in problems)


def test_from_json_rejects_unknown_engine():
    d = json.loads(Runner().run("table4").to_json())
    d["engine"] = "warp"
    with pytest.raises(ValueError, match="engine"):
        RunResult.from_dict(d)


def test_from_json_rejects_unknown_budget():
    d = json.loads(Runner().run("table4").to_json())
    d["budget"] = "leisurely"
    with pytest.raises(ValueError, match="budget"):
        RunResult.from_dict(d)


def test_from_json_rejects_unknown_scenario_name():
    d = json.loads(Runner().run("table4").to_json())
    d["scenario"] = "table9"
    with pytest.raises(ValueError, match="table9"):
        RunResult.from_dict(d)


def test_from_json_rejects_unknown_schema():
    d = json.loads(Runner().run("table4").to_json())
    d["schema"] = 99
    with pytest.raises(ValueError, match="schema"):
        RunResult.from_dict(d)
