"""The HTTP-independent serving core: submission, execution on the
fault-tolerant pool, cache identity, service metrics."""

import json

import pytest

from repro.monitor.metrics import parse_prometheus_text
from repro.scenarios.result import RunResult, validate_result_dict
from repro.serve.service import ScenarioService
from repro.telemetry.publish import read_frames


@pytest.fixture
def service(tmp_path):
    return ScenarioService(str(tmp_path / "spool"))


def test_submit_unknown_scenario_raises(service):
    with pytest.raises(KeyError, match="unknown scenario"):
        service.submit("no-such-scenario")


def test_submit_resolves_knobs_like_the_runner(service):
    record = service.submit("latency-lqd-burst", engine="reference",
                            seed=7, budget="fast")
    assert record.engine == "reference"
    assert record.seed == 7
    assert record.budget == "fast"
    assert record.state == "pending"
    assert not record.cached
    assert len(record.spec_hash) == 64
    assert len(record.cache_key) == 64


def test_execute_produces_valid_canonical_result(service):
    record = service.submit("latency-lqd-burst", budget="fast")
    done = service.execute(record.run_id)
    assert done.state == "done"
    assert done.result is not None
    assert validate_result_dict(done.result) == []
    assert RunResult.from_dict(done.result).scenario == "latency-lqd-burst"
    # canonical: wall clock scrubbed, no rusage in the document
    assert done.result["wall_clock_s"] == 0.0
    assert "resources" not in done.result["metrics"]
    # the worker streamed frames and ended with the done frame
    frames = read_frames(record.frames_path, strict=True)
    assert frames[-1]["type"] == "done"
    assert frames[-1]["telemetry"] == done.result["metrics"]["telemetry"]


def test_cache_hit_is_byte_identical(service):
    first = service.submit("latency-lqd-burst", budget="fast")
    service.execute(first.run_id)
    second = service.submit("latency-lqd-burst", budget="fast")
    assert second.cached
    assert second.state == "done"
    assert json.dumps(second.result, sort_keys=True) == json.dumps(
        first.result, sort_keys=True)
    # a cached run still streams a well-formed terminal frame
    frames = read_frames(second.frames_path, strict=True)
    assert [f["type"] for f in frames] == ["done"]
    assert frames[0]["telemetry"] == first.result["metrics"]["telemetry"]
    # execute on a cached record is a no-op
    assert service.execute(second.run_id).state == "done"


def test_cache_survives_service_restart(tmp_path):
    cache_dir = str(tmp_path / "cache")
    a = ScenarioService(str(tmp_path / "s1"), cache_dir)
    record = a.submit("table4", budget="fast")
    a.execute(record.run_id)
    b = ScenarioService(str(tmp_path / "s2"), cache_dir)
    again = b.submit("table4", budget="fast")
    assert again.cached
    assert again.result == a.get(record.run_id).result


def test_cold_cache_rerun_is_byte_identical(tmp_path):
    """A second service with its own, empty cache re-simulates the run
    and reproduces the first service's result byte for byte."""
    results = []
    for name in ("a", "b"):
        service = ScenarioService(str(tmp_path / f"spool-{name}"),
                                  cache_dir=str(tmp_path / f"cache-{name}"))
        record = service.submit("latency-lqd-burst", budget="fast")
        assert not record.cached
        results.append(service.execute(record.run_id).result)
    assert json.dumps(results[0], sort_keys=True) == json.dumps(
        results[1], sort_keys=True)


def test_different_knobs_miss_the_cache(service):
    first = service.submit("latency-lqd-burst", budget="fast")
    service.execute(first.run_id)
    assert not service.submit("latency-lqd-burst", budget="fast",
                              seed=99).cached
    assert not service.submit("latency-lqd-burst", budget="fast",
                              engine="reference").cached


def test_injected_crash_exhausts_retries_and_fails(tmp_path):
    from repro.checkpoint.faults import write_plan
    plan = str(tmp_path / "faults.json")
    write_plan(plan, kill={"run-000001": 5})
    service = ScenarioService(str(tmp_path / "spool"), retries=0,
                              backoff_s=0.0, fault_plan=plan)
    record = service.submit("latency-lqd-burst", budget="fast")
    done = service.execute(record.run_id)
    assert done.state == "failed"
    assert done.error is not None
    assert done.result is None
    assert service.result(record.run_id) is None
    values = parse_prometheus_text(service.metrics_text())
    assert values["repro_serve_runs_failed_total"] == 1


def test_injected_crash_is_retried_to_success(tmp_path):
    """One kill + one retry: the pool's fault tolerance carries over
    to served runs, and the retried worker's frame file starts clean
    (truncate-on-open) so the stream still ends in one done frame."""
    from repro.checkpoint.faults import write_plan
    plan = str(tmp_path / "faults.json")
    write_plan(plan, kill={"run-000001": 1})
    service = ScenarioService(str(tmp_path / "spool"), retries=2,
                              backoff_s=0.0, fault_plan=plan)
    record = service.submit("latency-lqd-burst", budget="fast")
    done = service.execute(record.run_id)
    assert done.state == "done"
    frames = read_frames(record.frames_path, strict=True)
    assert [f["type"] for f in frames].count("done") == 1
    assert frames[-1]["telemetry"] == done.result["metrics"]["telemetry"]


def test_metrics_track_the_lifecycle(service):
    record = service.submit("latency-lqd-burst", budget="fast")
    service.execute(record.run_id)
    service.submit("latency-lqd-burst", budget="fast")
    service.record_request(now=1.0)
    service.record_request(now=2.0)
    service.record_stream_frames(3)
    values = parse_prometheus_text(service.metrics_text())
    assert values["repro_serve_runs_submitted_total"] == 2
    assert values["repro_serve_runs_done_total"] == 1
    assert values["repro_serve_runs_failed_total"] == 0
    assert values["repro_serve_cache_hits_total"] == 1
    assert values["repro_serve_cache_misses_total"] == 1
    assert values["repro_serve_requests_total"] == 2
    assert values["repro_serve_requests_per_second"] > 0
    assert values["repro_serve_stream_frames_total"] == 3
    assert values["repro_serve_runs_inflight"] == 0
    wall = values[
        "repro_serve_scenario_latency_lqd_burst_wall_seconds_total"]
    cpu = values[
        "repro_serve_scenario_latency_lqd_burst_cpu_seconds_total"]
    assert wall > 0
    assert cpu >= 0


def test_run_listing_and_lookup(service):
    record = service.submit("table4", budget="fast")
    summaries = service.runs()
    assert len(summaries) == 1
    assert summaries[0]["run_id"] == record.run_id
    assert summaries[0]["state"] == "pending"
    assert service.get(record.run_id) is record
    with pytest.raises(KeyError, match="unknown run"):
        service.get("run-999999")


def test_run_ids_are_sequential(service):
    first = service.submit("table4", budget="fast")
    second = service.submit("table3", budget="fast")
    assert first.run_id == "run-000001"
    assert second.run_id == "run-000002"
