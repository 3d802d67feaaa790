"""CLI tests: list / run / sweep, JSON documents."""

import json

import pytest

from repro.analysis.cli import build_parser, main
from repro.scenarios import scenario_names, validate_result_dict


def test_list_shows_every_scenario(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out


def test_list_filters_by_kind(capsys):
    assert main(["list", "--kind", "sweep"]) == 0
    out = capsys.readouterr().out
    assert "sweep-ddr-loss-banks" in out
    assert "table1" not in out


def test_run_single_scenario(capsys):
    assert main(["run", "table4"]) == 0
    assert "Table 4" in capsys.readouterr().out


def test_run_with_engine_and_seed_flags(capsys):
    rc = main(["run", "ablation-history-depth", "--fast",
               "--engine", "reference", "--seed", "7"])
    assert rc == 0
    assert "Ablation A1" in capsys.readouterr().out


def test_sweep_subcommand(capsys):
    assert main(["sweep", "sweep-npu-rate-clock"]) == 0
    assert "clock MHz" in capsys.readouterr().out


def test_sweep_rejects_non_sweep_scenario():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sweep", "table1"])


def test_run_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "table9"])


def test_engine_flag_validated():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "table1", "--engine", "warp"])


def test_json_to_stdout(capsys):
    assert main(["run", "table4", "--quiet", "--json", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["runs"][0]["scenario"] == "table4"


def test_telemetry_flag_lands_snapshot_in_json(capsys):
    rc = main(["run", "overload-taildrop-burst", "--fast", "--quiet",
               "--telemetry", "--json", "-"])
    assert rc == 0
    run = json.loads(capsys.readouterr().out)["runs"][0]
    assert validate_result_dict(run) == []
    tele = run["metrics"]["telemetry"]
    assert tele["schema"] == 1
    assert tele["counters"]["commands"] > 0
    assert "enqueue.e2e" in tele["histograms"]


def test_telemetry_flag_ignored_by_closed_form_scenarios(capsys):
    rc = main(["run", "table4", "--quiet", "--telemetry", "--json", "-"])
    assert rc == 0
    run = json.loads(capsys.readouterr().out)["runs"][0]
    assert "telemetry" not in run["metrics"]


def test_run_all_fast_json_is_schema_valid_for_every_scenario(
        tmp_path, capsys):
    """The acceptance path: every registered scenario runs on the fast
    budget and serializes to a schema-valid document."""
    out = tmp_path / "runs.json"
    rc = main(["run", "all", "--fast", "--quiet", "--json", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    ran = [r["scenario"] for r in doc["runs"]]
    assert ran == scenario_names()
    for run in doc["runs"]:
        assert validate_result_dict(run) == [], run["scenario"]
        assert run["budget"] in ("fast", "full")  # full = no budget knob


def test_list_json_machine_readable(capsys):
    assert main(["list", "--kind", "qos", "--json", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    names = [s["name"] for s in doc["scenarios"]]
    assert names == ["qos-drr", "qos-strict-priority"]
    for entry in doc["scenarios"]:
        assert set(entry) == {"name", "kind", "workload", "title",
                              "description", "supports", "fastpath",
                              "telemetry", "trace", "engine", "budget",
                              "seed"}


def test_list_json_reports_fastpath_capabilities(capsys):
    assert main(["list", "--json", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    by_name = {s["name"]: s for s in doc["scenarios"]}
    assert len(by_name) == len(scenario_names())
    assert by_name["table5"]["fastpath"] == "stream"
    assert by_name["table1"]["fastpath"] == "bank"
    assert by_name["ablation-fifo-depth"]["fastpath"] == "stream"
    assert by_name["table4"]["fastpath"] == "none"


def test_list_json_to_file(tmp_path):
    out = tmp_path / "listing.json"
    assert main(["list", "--kind", "table", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [s["name"] for s in doc["scenarios"]] == [
        "table1", "table2", "table3", "table4", "table5"]


def test_sweep_jobs_matches_serial(tmp_path):
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    args = ["sweep", "sweep-npu-rate-clock", "--fast", "--quiet"]
    assert main(args + ["--json", str(serial)]) == 0
    assert main(args + ["--jobs", "2", "--json", str(parallel)]) == 0
    a = json.loads(serial.read_text())
    b = json.loads(parallel.read_text())

    def strip(doc):
        return [{k: v for k, v in run.items() if k != "wall_clock_s"}
                for run in doc["runs"]]

    assert strip(a) == strip(b)


def test_sweep_jobs_pool_keeps_scenario_order(tmp_path):
    out = tmp_path / "pool.json"
    assert main(["sweep", "all", "--fast", "--quiet", "--jobs", "3",
                 "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    names = [run["scenario"] for run in doc["runs"]]
    assert names == sorted(names) == [
        s for s in scenario_names() if s.startswith("sweep-")]
    for run in doc["runs"]:
        assert validate_result_dict(run) == []


def test_sweep_rejects_bad_jobs():
    with pytest.raises(SystemExit):
        main(["sweep", "sweep-npu-rate-clock", "--jobs", "0"])
