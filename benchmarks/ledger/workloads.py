"""The ledger's workloads: what one iteration runs and how its outputs are checked.

Every workload runs on engine ``fast`` (the default) and takes its inputs
from the seed.  One *operation* is one scenario run, or one request for
``serve-closed``; an operation fails if it raises, if
``validate_result_dict`` rejects its result, or if it breaks a paper gate
(full budget only).  A simulated-results digest is taken per iteration so
the worker can check it never changes within a run.

``repro`` is imported only inside :meth:`setup`, so the orchestrating
process never loads it.
"""

from __future__ import annotations

import contextlib
import cProfile
import dataclasses
import functools
import gc
import hashlib
import io
import json
import math
import os
import random
import statistics
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from benchmarks.ledger.catalogue import SERVE_SPANS
from benchmarks.ledger.layers import LAYER_NAMES, file_classifier, fold

#: Per-cell paper gates: Table 1 conflict columns and Table 2 at the
#: tolerances the tier-1 tests use; Table 5 only up to 4.5 Gbps, since
#: the two higher-load rows miss the paper by 25-36% (a known gap).
TABLE1_TOLERANCE = 0.03
TABLE5_TOLERANCE = 0.15
TABLE5_GATED_MAX_GBPS = 4.5
TABLE2_TOLERANCE = 0.05

#: The scenarios that still resolve to the calendar-queue DES kernel.
KERNEL_SCENARIOS = ("table2", "ablation-multithreading",
                    "sweep-ixp-rate-queues", "ablation-fifo-depth")

#: The eight overload specs (incast is excluded: at 6,000 arrivals and
#: more it raises QueueEmptyError, see README).
OVERLOAD_SCENARIOS = tuple(f"latency-{policy}-{shape}"
                           for policy in ("taildrop", "red", "dt", "lqd")
                           for shape in ("burst", "sustained"))
OVERLOAD_ARRIVALS = 10_000


@dataclasses.dataclass
class Iteration:
    """What one iteration measured and what its checks found."""

    wall_s: float
    attempted: int
    failures: List[str]
    digest: Optional[str] = None
    paper_delta_pct: Optional[float] = None
    uncached_ms: List[float] = dataclasses.field(default_factory=list)
    cached_ms: List[float] = dataclasses.field(default_factory=list)


class Span:
    """Total time and call count of one wrapped function.

    The wrapper goes on the attribute each caller looks up, so calls made
    from the daemon's own threads are counted too (cProfile sees only the
    thread that enabled it)."""

    def __init__(self) -> None:
        self.total_s = 0.0
        self.calls = 0
        self._lock = threading.Lock()

    def wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                with self._lock:
                    self.total_s += elapsed
                    self.calls += 1
        return timed

    def mean_ms(self) -> float:
        return self.total_s * 1000.0 / self.calls if self.calls else 0.0


@contextlib.contextmanager
def patched(owner: Any, attr: str,
            wrap: Callable[[Any], Any]) -> Iterator[None]:
    """Replace ``owner.attr`` by ``wrap(owner.attr)`` for the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrap(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def paper_problems(result: Any) -> List[str]:
    """The paper gates a full-budget result breaks."""
    from repro.analysis import paper_data as paper

    if result.budget != "full":
        return []
    problems = []
    if result.scenario == "table1":
        for banks, row in paper.PAPER_TABLE1.items():
            ours = result.metrics[f"banks{banks}"]
            for col in (0, 2):
                if abs(ours[col] - row[col]) > TABLE1_TOLERANCE:
                    problems.append(f"table1 banks{banks} col {col}: "
                                    f"{ours[col]:.4f} vs {row[col]:.4f}")
    elif result.scenario == "table5":
        for key, delta in result.paper_deltas.items():
            if not (key.startswith("load") and key.endswith(".total")):
                continue
            gbps = float(key[len("load"):-len(".total")])
            if gbps <= TABLE5_GATED_MAX_GBPS and abs(delta) > TABLE5_TOLERANCE:
                problems.append(f"table5 {key}: delta {delta:+.3f}")
    elif result.scenario == "table2":
        for key, delta in result.paper_deltas.items():
            if abs(delta) > TABLE2_TOLERANCE:
                problems.append(f"table2 {key}: delta {delta:+.3f}")
    return problems


class ScenarioWorkload:
    """A workload whose operations are scenario runs.

    Every scenario run goes through ``Runner.run_spec``; the workload
    wraps it to collect each run's result or exception, whichever entry
    point (``Runner.run``, the CLI) started the run."""

    def __init__(self, name: str, why: str, iterations: int, nominal_s: float,
                 build_ops: Callable[[int, bool], List[Callable[[], Any]]],
                 *, paper: bool = False) -> None:
        self.name = name
        self.why = why
        self.iterations = iterations
        self.nominal_s = nominal_s
        self.build_ops = build_ops
        self.paper = paper
        self.ops: List[Callable[[], Any]] = []
        self.last_results: List[Any] = []

    def setup(self, seed: int, smoke: bool, tmpdir: str) -> None:
        from repro.scenarios import scenario_names

        scenario_names()  # builds the registry
        self.ops = self.build_ops(seed, smoke)

    def teardown(self) -> None:
        pass

    def iteration(self, profiler: Any = None) -> Iteration:
        from repro.scenarios.runner import Runner

        outcomes: List[Any] = []

        def record(run_spec: Callable[..., Any]) -> Callable[..., Any]:
            def recorded(runner: Any, spec: Any, **kwargs: Any) -> Any:
                try:
                    result = run_spec(runner, spec, **kwargs)
                except Exception as exc:
                    outcomes.append(exc)
                    raise
                outcomes.append(result)
                return result
            return recorded

        gc.collect()
        with patched(Runner, "run_spec", record):
            if profiler is not None:
                profiler.enable()
            t0 = time.perf_counter()
            for op in self.ops:
                before = len(outcomes)
                try:
                    op()
                except Exception as exc:
                    if not any(isinstance(o, Exception)
                               for o in outcomes[before:]):
                        outcomes.append(exc)
            wall = time.perf_counter() - t0
            if profiler is not None:
                profiler.disable()
        return self._check(wall, outcomes)

    def _check(self, wall: float, outcomes: List[Any]) -> Iteration:
        from repro.scenarios import validate_result_dict
        from repro.serve.cache import canonical_result_dict

        failures: List[str] = []
        docs = []
        deltas: List[float] = []
        results = []
        for out in outcomes:
            if isinstance(out, Exception):
                failures.append(f"{type(out).__name__}: {out}")
                continue
            doc = out.to_dict()
            problems = validate_result_dict(doc) + paper_problems(out)
            if problems:
                failures.append(f"{out.scenario}: {'; '.join(problems)}")
            docs.append(canonical_result_dict(doc))
            deltas.extend(abs(d) for d in out.paper_deltas.values())
            results.append(out)
        self.last_results = results
        text = json.dumps(docs, sort_keys=True)
        return Iteration(
            wall_s=wall, attempted=len(outcomes), failures=failures,
            digest=hashlib.sha256(text.encode("utf-8")).hexdigest(),
            paper_delta_pct=(statistics.fmean(deltas) * 100.0
                             if self.paper and deltas else None))

    def trace(self, smoke: bool) -> Tuple[List[Iteration], Dict[str, float]]:
        """One iteration under cProfile, folded into the layers."""
        import repro

        profiler = cProfile.Profile()
        iteration = self.iteration(profiler)
        profiler.create_stats()
        classify = file_classifier(os.path.dirname(repro.__file__),
                                   os.path.dirname(os.path.abspath(__file__)))
        shares, calls = fold(profiler.stats, classify)
        metrics: Dict[str, float] = {}
        for layer in LAYER_NAMES:
            metrics[f"{layer}.self_share"] = shares[layer]
            metrics[f"{layer}.calls"] = calls[layer]
        metrics.update(self.components())
        return [iteration], metrics

    def components(self) -> Dict[str, float]:
        """Simulated-component metrics of the last iteration."""
        return {}


class MmsLoadWorkload(ScenarioWorkload):
    def components(self) -> Dict[str, float]:
        for result in self.last_results:
            if result.scenario == "table5" and "load4.8" in result.metrics:
                fifo, execute, data = result.metrics["load4.8"][:3]
                return {"mms.fifo_cycles": fifo, "mms.exec_cycles": execute,
                        "mms.data_cycles": data}
        return {}


class OverloadWorkload(ScenarioWorkload):
    """Pushed-out segments are not in the latency family's metrics, so
    the traced iteration reads them off ``run_overload``'s result, as the
    catalog binds it."""

    _pushed_out = 0

    def trace(self, smoke: bool) -> Tuple[List[Iteration], Dict[str, float]]:
        from repro.scenarios import catalog

        self._pushed_out = 0

        def capture(run_overload: Callable[..., Any]) -> Callable[..., Any]:
            def captured(*args: Any, **kwargs: Any) -> Any:
                res = run_overload(*args, **kwargs)
                self._pushed_out += res.pushed_out_segments
                return res
            return captured

        with patched(catalog, "run_overload", capture):
            return super().trace(smoke)

    def components(self) -> Dict[str, float]:
        rates = [r.metrics["drop_rate"] for r in self.last_results]
        if not rates:
            return {}
        return {"policies.drop_rate": statistics.fmean(rates),
                "policies.pushed_out_segments": self._pushed_out}


def _budget(smoke: bool) -> str:
    return "fast" if smoke else "full"


def _runs(names: tuple, smoke_names: tuple
          ) -> Callable[[int, bool], List[Callable[[], Any]]]:
    def build(seed: int, smoke: bool) -> List[Callable[[], Any]]:
        from repro.scenarios import Runner

        runner = Runner()
        return [functools.partial(runner.run, name, seed=seed,
                                  budget=_budget(smoke))
                for name in (smoke_names if smoke else names)]
    return build


def _overload_ops(seed: int, smoke: bool) -> List[Callable[[], Any]]:
    from repro.scenarios import Runner, get_scenario

    runner = Runner()
    ops = []
    for name in OVERLOAD_SCENARIOS:
        spec = get_scenario(name).spec
        traffic = dataclasses.replace(
            spec.traffic,
            num_commands=(OVERLOAD_ARRIVALS, spec.traffic.num_commands[1]))
        spec = dataclasses.replace(spec, traffic=traffic).with_options(
            seed=seed, budget=_budget(smoke))
        ops.append(functools.partial(_run_spec, runner, spec))
    return ops


def _run_spec(runner: Any, spec: Any) -> Any:
    # looked up per call, so the iteration's recording wrapper sees it
    return runner.run_spec(spec)


def _run_cli(main: Callable[[List[str]], int], argv: List[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"repro-analysis {' '.join(argv)} exited {code}")


def _suite_ops(seed: int, smoke: bool) -> List[Callable[[], Any]]:
    from repro.analysis.cli import main

    target = "table4" if smoke else "all"
    return [functools.partial(_run_cli, main,
                              ["run", target, "--fast", "--seed", str(seed)])]


class ServeWorkload:
    """Closed loop against an in-process daemon: one client, one
    connection at a time.

    One iteration is a round over the eight overload specs: for each, one
    uncached full-budget run of the round's fresh seed, then
    ``CACHED_PER_UNCACHED`` resubmits of (spec, seed) pairs already run,
    each of which must hit the cache and return a document byte-identical
    to that pair's fresh run.  The pool notices a finished worker on a
    20 ms poll tick; the specs' compute times (about 22-46 ms) straddle
    it, so a slower or faster host moves the round time smoothly instead
    of flipping whole runs between tick multiples."""

    CACHED_PER_UNCACHED = 10
    TRACED_ITERATIONS = 2
    POLL_S = 0.002
    RUN_DEADLINE_S = 60.0

    def __init__(self, name: str, why: str, iterations: int,
                 nominal_s: float) -> None:
        self.name = name
        self.why = why
        self.iterations = iterations
        self.nominal_s = nominal_s

    def setup(self, seed: int, smoke: bool, tmpdir: str) -> None:
        import asyncio

        from repro.serve import ScenarioService, ServeClient, ServeServer

        self.service = ScenarioService(os.path.join(tmpdir, "spool"),
                                       cache_dir=os.path.join(tmpdir, "cache"))
        self.server = ServeServer(self.service, port=0, jobs=1)
        ready = threading.Event()

        def loop() -> None:
            async def serve() -> None:
                await self.server.start()
                ready.set()
                await self.server.serve_until_shutdown()
            asyncio.run(serve())

        # daemon: a setup that fails below must not hang interpreter exit
        self.thread = threading.Thread(target=loop, name="ledger-serve",
                                       daemon=True)
        self.thread.start()
        if not ready.wait(self.RUN_DEADLINE_S):
            raise RuntimeError("serve daemon did not start")
        self.client = ServeClient("127.0.0.1", self.server.port,
                                  timeout_s=self.RUN_DEADLINE_S)
        self.client.healthz()
        self.budget = _budget(smoke)
        self.next_seed = seed
        self.rng = random.Random(seed)
        self.fresh: Dict[Tuple[str, int], str] = {}
        self.done: List[Tuple[str, int]] = []  # fresh runs, in run order
        self.digest: Optional[str] = None

    def teardown(self) -> None:
        self.client.shutdown()
        self.thread.join(self.RUN_DEADLINE_S)
        if self.thread.is_alive():
            raise RuntimeError("serve daemon did not shut down")

    def _await(self, run_id: str) -> Dict[str, Any]:
        deadline = time.perf_counter() + self.RUN_DEADLINE_S
        while True:
            doc = self.client.status(run_id)
            if "metrics" in doc:  # the 200 answer is the result itself
                return doc
            if doc.get("state") == "failed":
                raise RuntimeError(f"run failed: {doc.get('error')}")
            if time.perf_counter() > deadline:
                raise RuntimeError(f"run {run_id} still {doc.get('state')}")
            time.sleep(self.POLL_S)

    def _request(self, run: Tuple[str, int], fresh: bool) -> tuple:
        """One timed request; ``(ms, document or None, failure or None)``."""
        from repro.serve import ServeError

        scenario, seed = run
        t0 = time.perf_counter()
        try:
            summary = self.client.submit(scenario, seed=seed,
                                         budget=self.budget)
            if summary["cached"] == fresh:
                raise RuntimeError("fresh seed hit the cache" if fresh
                                   else "resubmit missed the cache")
            doc = (self._await(summary["run_id"]) if fresh
                   else self.client.result(summary["run_id"]))
        except (ServeError, OSError, RuntimeError) as exc:
            return math.inf, None, f"{scenario} seed {seed}: {exc}"
        return (time.perf_counter() - t0) * 1000.0, doc, None

    def iteration(self) -> Iteration:
        gc.collect()
        seed = self.next_seed
        self.next_seed += 1
        answers = []
        t0 = time.perf_counter()
        for scenario in OVERLOAD_SCENARIOS:
            run = (scenario, seed)
            answers.append((run, True) + self._request(run, True))
            for _ in range(self.CACHED_PER_UNCACHED):
                pick = self.rng.randrange(len(self.done) + 1)
                old = self.done[pick] if pick < len(self.done) else run
                answers.append((old, False) + self._request(old, False))
        wall = time.perf_counter() - t0

        failures: List[str] = []
        fresh_texts = []
        it = Iteration(wall_s=wall, attempted=len(answers), failures=failures)
        for old, fresh, ms, doc, failure in answers:
            (it.uncached_ms if fresh else it.cached_ms).append(ms)
            if failure is not None:
                failures.append(failure)
                continue
            text = json.dumps(doc, sort_keys=True)
            if fresh:
                self.fresh[old] = text
                self.done.append(old)
                fresh_texts.append(text)
            elif text != self.fresh.get(old):
                failures.append(f"{old[0]} seed {old[1]}: cached result "
                                "differs from the fresh run")
        if self.digest is None:  # the first round's fresh results
            self.digest = hashlib.sha256(
                "\n".join(fresh_texts).encode("utf-8")).hexdigest()
        it.digest = self.digest
        return it

    def trace(self, smoke: bool) -> Tuple[List[Iteration], Dict[str, float]]:
        """``TRACED_ITERATIONS`` iterations (one at smoke size) with every
        layer boundary wrapped."""
        from repro.monitor.metrics import parse_prometheus_text
        from repro.serve import service as service_module

        spans = {name: Span() for name in SERVE_SPANS}
        before = parse_prometheus_text(self.client.metrics_text())
        with contextlib.ExitStack() as stack:
            for owner, attr, span in (
                    (self.service, "submit", "serve.submit"),
                    (self.service, "execute", "serve.execute"),
                    (self.service.cache, "get", "serve.cache_get"),
                    (self.service.cache, "put", "serve.cache_put"),
                    (service_module, "run_tasks", "checkpoint.run_tasks")):
                stack.enter_context(patched(owner, attr, spans[span].wrap))
            iterations = [self.iteration() for _ in
                          range(1 if smoke else self.TRACED_ITERATIONS)]
        after = parse_prometheus_text(self.client.metrics_text())

        def delta(name: str) -> float:
            return after.get(name, 0.0) - before.get(name, 0.0)

        worker_s = sum(
            delta(f"repro_serve_scenario_{s.replace('-', '_')}"
                  "_wall_seconds_total") for s in OVERLOAD_SCENARIOS)
        hits = delta("repro_serve_cache_hits_total")
        misses = delta("repro_serve_cache_misses_total")
        uncached_s = sum(ms for it in iterations
                         for ms in it.uncached_ms) / 1000.0
        metrics: Dict[str, float] = {
            "serve.worker_share": worker_s / uncached_s if uncached_s else 0.0,
            "serve.cache_hit_ratio": (hits / (hits + misses)
                                      if hits + misses else 0.0),
        }
        for name, span in spans.items():
            metrics[f"{name}_ms"] = span.mean_ms()
            metrics[f"{name}.calls"] = span.calls
        return iterations, metrics


#: Every workload with its default timed-iteration count and its nominal
#: iteration time (seconds, 2-core Xeon box).  ``--seconds S`` runs
#: ``round(S / nominal)`` iterations: a count fixed by the arguments, so
#: two commits always do the same work (the serve daemon's memory grows
#: with the requests it has seen).
WORKLOADS: Dict[str, Any] = {wl.name: wl for wl in (
    MmsLoadWorkload(
        "mms-load",
        "Table 5 at full budget on the stream engine: queue ops, the "
        "stream engine and result assembly do nearly all the work",
        15, 0.9, _runs(("table5",), ("table5",)), paper=True),
    OverloadWorkload(
        "mms-overload",
        "eight 2x-oversubscribed latency specs at 10k arrivals: drops, LQD "
        "push-outs, policies and telemetry on the same queue layer",
        8, 1.9, _overload_ops),
    ScenarioWorkload(
        "ddr-banks",
        "Table 1 at full budget on the DDR bank fastpath: all mem, no MMS "
        "or kernel, so queue and engine changes must not move it",
        6, 2.0, _runs(("table1",), ("table1",)), paper=True),
    ScenarioWorkload(
        "kernel-des",
        "the four scenarios that still resolve to the calendar-queue DES "
        "kernel (IXP models); bypasses the stream engine",
        5, 3.0, _runs(KERNEL_SCENARIOS, ("ablation-fifo-depth",)),
        paper=True),
    ServeWorkload(
        "serve-closed",
        "closed-loop client on the serving daemon: 8 uncached latency runs, "
        "each followed by 10 cache hits, per iteration; HTTP, cache and "
        "worker spawn",
        13, 0.65),
    ScenarioWorkload(
        "suite-fast",
        "run all --fast in-process: all 44 scenarios and the presenter, "
        "the repo's named end-to-end number",
        5, 3.0, _suite_ops),
)}
