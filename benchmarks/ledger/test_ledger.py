"""Self-test of the performance ledger, collected by the root ``pytest``.

Runs every workload once at smoke size (fast budget, one iteration) and
checks the metric contract of ``BENCHMARK.json``, the module-to-layer
map, the cProfile fold and the verdicts of ``compare``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from benchmarks.ledger import catalogue, cli, compare, layers, worker
from benchmarks.ledger.stats import summarize
from benchmarks.ledger.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
SEED = 2005


@pytest.fixture(scope="module")
def declaration():
    return catalogue.load_declaration()


@pytest.fixture(scope="module")
def smoke_docs(tmp_path_factory):
    return {name: worker.measure(name, SEED, iterations=1, trace=True,
                                 smoke=True,
                                 tmpdir=str(tmp_path_factory.mktemp(name)))
            for name in WORKLOADS}


def test_declaration_matches_the_ledger(declaration):
    assert set(declaration) == {"command", "paths", "run_seconds",
                                "workloads", "end_to_end", "per_layer"}
    assert declaration["paths"] == ["benchmarks/ledger"]
    assert [(w["name"], w["why"]) for w in declaration["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"])
            for m in declaration["per_layer"]} == catalogue.per_layer_metrics()
    bounds = {m["name"]: m["bound"] for m in declaration["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert not set(bounds) & set(catalogue.WORKLOAD_METRICS)
    for m in declaration["end_to_end"] + declaration["per_layer"]:
        assert NAME.match(m["name"]), m
        assert UNIT.match(m["unit"]), m


def test_every_module_maps_to_exactly_one_layer():
    prefixes = [prefix for _name, prefix in layers.LAYERS]
    assert len(set(prefixes)) == len(prefixes)
    assert len(set(layers.LAYER_NAMES)) == len(layers.LAYER_NAMES)
    package = catalogue.ROOT / "src" / "repro"
    modules = [layers.module_of_file(str(p), str(package))
               for p in package.rglob("*.py")]
    assert len(modules) > 100 and None not in modules
    for module in modules:
        matching = [(len(prefix), name) for name, prefix in layers.LAYERS
                    if module == prefix or module.startswith(prefix + ".")]
        longest = max(matching)[0]
        owners = [name for length, name in matching if length == longest]
        assert owners == [layers.layer_of_module(module)], module


def test_fold_charges_builtins_and_stdlib_to_their_caller():
    stream = ("/r/src/repro/engines/stream.py", 1, "_run")
    queue = ("/r/src/repro/queueing/freelist.py", 1, "pop")
    key = ("/r/src/repro/queueing/freelist.py", 9, "key")
    length = ("~", 0, "<built-in method builtins.len>")
    heappush = ("/usr/lib/python3.11/heapq.py", 1, "heappush")
    compare_ = ("~", 0, "<built-in method _operator.lt>")
    ordered = ("~", 0, "<built-in method builtins.sorted>")
    # func -> (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})
    stats = {
        stream: (1, 1, 2.0, 12.0, {}),
        queue: (5, 5, 3.0, 4.0, {stream: (5, 5, 3.0, 4.0)}),
        length: (10, 10, 1.0, 1.0, {queue: (6, 6, 0.6, 0.6),
                                    stream: (4, 4, 0.4, 0.4)}),
        heappush: (2, 2, 2.0, 3.0, {stream: (2, 2, 2.0, 3.0)}),
        compare_: (3, 3, 1.0, 1.0, {heappush: (3, 3, 1.0, 1.0)}),
        ordered: (1, 1, 0.5, 1.0, {stream: (1, 1, 0.5, 1.0)}),
        key: (7, 7, 0.5, 0.5, {ordered: (7, 7, 0.5, 0.5)}),
    }
    layer = {stream[0]: "engines.stream", queue[0]: "queueing"}
    shares, calls = layers.fold(stats, layer.get)
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-12)
    # engines.stream: own 2.0, len 0.4, heapq chain 2.0 + 1.0, sorted 0.5
    assert shares["engines.stream"] == pytest.approx(5.9 / 10.0)
    # queueing: own 3.0 + the key function 0.5, len 0.6
    assert shares["queueing"] == pytest.approx(4.1 / 10.0)
    # 5 direct calls, plus 7 through sorted(), which stream called
    assert calls["queueing"] == 12
    assert calls["engines.stream"] == 0


def test_classifier_maps_files_to_layers(tmp_path):
    package = tmp_path / "src" / "repro"
    own = tmp_path / "benchmarks" / "ledger"
    classify = layers.file_classifier(str(package), str(own))
    assert classify(str(package / "core" / "latency.py")) == "core.latency"
    assert classify(str(package / "core" / "dmc.py")) == "core"
    assert classify(str(package / "apps" / "nat.py")) == "other"
    assert classify(str(package / "__init__.py")) == "other"
    assert classify(str(own / "worker.py")) == "other"
    assert classify("/usr/lib/python3.11/json/encoder.py") is None
    assert classify("~") is None


def _doc(samples, digest="a"):
    return {"workloads": {"w": {"seed": 1, "digest": digest, "metrics": {
        "wall_s": summarize(samples, "s")}}}}


@pytest.mark.parametrize("new, expected", [
    ([0.60, 0.61, 0.59, 0.60, 0.62], "better"),
    ([1.40, 1.41, 1.39, 1.40, 1.42], "worse"),
    ([1.00, 1.01, 0.99, 1.00, 1.02], "same"),
    ([0.50, 1.50, 0.60, 1.40, 1.00], "unresolved"),
])
def test_compare_verdicts(new, expected):
    base = _doc([1.00, 1.01, 0.99, 1.00, 1.02])
    metrics = {"wall_s": catalogue.Metric("s", "lower", 0.10)}
    rows = compare.compare(base, _doc(new), metrics)
    assert [r["verdict"] for r in rows] == [expected]
    assert rows[0]["ratio"] == pytest.approx(
        summarize(new, "s")["value"] / 1.00)


def test_compare_exit_code_and_digest_flag(tmp_path, capsys):
    base, worse = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(_doc([1.0, 1.01, 0.99])))
    worse.write_text(json.dumps(_doc([2.0, 2.01, 1.99], digest="b")))
    assert compare.main([str(base), str(base)]) == 0
    assert compare.main([str(base), str(worse)]) == 1
    assert "DIGEST CHANGED: w" in capsys.readouterr().out


def test_smoke_emits_every_declared_metric(smoke_docs, declaration):
    units = {m["name"]: m["unit"] for m in declaration["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in declaration["per_layer"]}
    for name, doc in smoke_docs.items():
        assert doc["failed"] == 0 and doc["attempted"] >= 1, doc["failures"]
        entry = cli.workload_entry(doc, [0.1], units, layer_units)
        assert entry["correct"]
        for metric, unit in units.items():
            assert entry["metrics"][metric]["unit"] == unit
            assert entry["metrics"][metric]["n"] >= 1
        assert {k: v["unit"] for k, v in entry["layers"].items()} == layer_units
        if name != "serve-closed":
            shares = [v for k, v in doc["layers"].items()
                      if k.endswith(".self_share")]
            assert sum(shares) == pytest.approx(1.0)
            assert doc["layers"]["other.self_share"] < 0.05, name
    serve = smoke_docs["serve-closed"]["layers"]
    assert serve["serve.cache_hit_ratio"] == pytest.approx(10 / 11)
    assert serve["checkpoint.run_tasks.calls"] == 8  # one per spec
    assert smoke_docs["mms-load"]["layers"]["mms.exec_cycles"] > 0
    assert smoke_docs["mms-overload"]["layers"]["policies.drop_rate"] > 0


def test_cli_prints_the_result_line(declaration):
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", "--workload",
         "serve-closed", "--smoke", "--seed", str(SEED)],
        cwd=catalogue.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = declaration["end_to_end"] + declaration["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
