"""Run the ledger: each workload in its own fresh process, every metric
printed by name with its unit and sample count.

    python -m benchmarks.ledger [--workload NAME ...] [--seed N]
        [--json PATH] [--no-trace] [--seconds S] [--trace 0|1] [--smoke]

Run it from the repository root.  By default each workload times its
default number of iterations, then one traced iteration gives the
per-layer metrics.  ``--seconds S`` times about S seconds of iterations
instead (a count fixed by S, see ``timed_iterations``).  ``--trace 0``
(or ``--no-trace``) skips the traced pass and reports the end-to-end
metrics; ``--trace 1`` reports only the per-layer ones, timing a quarter
of the run untraced for ``trace_overhead``.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from benchmarks.ledger.catalogue import (ROOT, WORKLOAD_METRICS,
                                         load_declaration)
from benchmarks.ledger.stats import percentile, summarize
from benchmarks.ledger.workloads import WORKLOADS

#: Fresh launches per set-up measurement; the median is reported.
SETUP_LAUNCHES = 9
READY_TIMEOUT_S = 60.0
WORKER_TIMEOUT_S = 170.0
#: Scratch space of the worker processes, inside the checkout.
TMP_DIR = ROOT / ".ledger_tmp"
RESULT_SCHEMA = 1


class LedgerError(RuntimeError):
    """A workload process failed to produce a result."""


def _env(tmpdir: str) -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["TMPDIR"] = tmpdir
    # fixed string hashing, so traced call counts repeat exactly
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker_cmd(workload: str, seed: int, *extra: str) -> List[str]:
    return [sys.executable, "-m", "benchmarks.ledger.worker", workload,
            "--seed", str(seed), *extra]


def setup_samples(workload: str, seed: int, launches: int, smoke: bool,
                  env: Dict[str, str]) -> List[float]:
    """Seconds from launching a fresh interpreter to the workload being
    ready, once per launch."""
    cmd = _worker_cmd(workload, seed, "--ready", *(["--smoke"] if smoke else []))
    samples = []
    for _ in range(launches):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
            line = proc.stdout.readline() if ready else b""
            samples.append(time.perf_counter() - t0)
            proc.wait(READY_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise LedgerError(f"{workload}: set-up probe failed "
                              f"(exit {proc.returncode})")
    return samples


def run_worker(workload: str, seed: int, iterations: int, trace: bool,
               smoke: bool, env: Dict[str, str], out: str) -> Dict[str, Any]:
    cmd = _worker_cmd(workload, seed, "--out", out,
                      "--iterations", str(iterations),
                      *(["--trace"] if trace else []),
                      *(["--smoke"] if smoke else []))
    try:
        # the worker's own stdout goes to stderr: ours ends with the result
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise LedgerError(f"{workload}: timed out after "
                          f"{WORKER_TIMEOUT_S:.0f} s") from None
    if proc.returncode != 0:
        raise LedgerError(f"{workload}: worker exited {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        doc: Dict[str, Any] = json.load(fh)
    return doc


def _single(value: float, unit: str, n: int) -> Dict[str, Any]:
    """A metric estimated once per run from ``n`` underlying samples."""
    return {"value": value, "q1": value, "q3": value, "n": n, "unit": unit,
            "samples": [value]}


def workload_entry(doc: Dict[str, Any], setup: Optional[List[float]],
                   units: Dict[str, str],
                   layer_units: Dict[str, str]) -> Dict[str, Any]:
    """One workload's section of the results document."""
    metrics: Dict[str, Any] = {
        "wall_s": summarize(doc["wall_s"], units["wall_s"]),
        "peak_rss_mb": summarize([doc["peak_rss_mb"]], units["peak_rss_mb"]),
    }
    if setup is not None:
        metrics["setup_s"] = summarize(setup, units["setup_s"])
    metrics["error_rate"] = summarize([doc["failed"] / doc["attempted"]],
                                      WORKLOAD_METRICS["error_rate"].unit)
    if doc["paper_delta_pct"]:
        metrics["paper_delta_pct"] = summarize(doc["paper_delta_pct"], "%")
    for kind, pcts in (("uncached", (50, 90)), ("cached", (50, 99))):
        latencies = doc[f"{kind}_ms"]
        for pct in pcts if latencies else ():
            metrics[f"{kind}_p{pct}_ms"] = _single(
                percentile(latencies, pct), "ms", len(latencies))
    entry: Dict[str, Any] = {
        "seed": doc["seed"],
        "iterations": doc["iterations"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "correct": doc["failed"] == 0,
        "digest": doc["digest"],
        "failures": doc["failures"],
        "cold_iter_s": doc["cold_iter_s"],
        "metrics": metrics,
    }
    if doc["uncached_ms"]:
        entry["requests"] = {"uncached_ms": doc["uncached_ms"],
                             "cached_ms": doc["cached_ms"]}
    if doc["layers"] is not None:
        entry["layers"] = {name: {"value": doc["layers"][name], "unit": unit}
                           for name, unit in layer_units.items()}
    return entry


def _git_head() -> Optional[str]:
    """``git rev-parse HEAD``, read from ``.git`` without leaving the
    checkout (None when it is not a git repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(args: argparse.Namespace) -> Dict[str, Any]:
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": _git_head(),
        "loadavg_start": list(os.getloadavg()),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "setup_launches": 1 if args.smoke else SETUP_LAUNCHES,
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_entry(name: str, entry: Dict[str, Any]) -> None:
    ok = entry["attempted"] - entry["failed"]
    print(f"\n== {name}  seed {entry['seed']}  {entry['iterations']} timed "
          f"iterations  ops {ok}/{entry['attempted']} ok  "
          f"digest {(entry['digest'] or '-')[:16]}")
    for failure in entry["failures"]:
        print(f"  FAILED: {failure}")
    for metric, m in entry["metrics"].items():
        print(f"  {metric:<24} {_fmt(m['value']):>12} {m['unit']:<9} "
              f"q1 {_fmt(m['q1'])}  q3 {_fmt(m['q3'])}  n={m['n']}")
    if "layers" in entry:
        print("  per-layer (one traced pass):")
        for metric, m in entry["layers"].items():
            print(f"    {metric:<34} {_fmt(m['value']):>12} {m['unit']}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger",
        description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=2005)
    ap.add_argument("--seconds", type=float, default=None,
                    help="time about this many seconds of iterations "
                         "instead of the workload's default count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics only; 1: per-layer only")
    ap.add_argument("--no-trace", dest="trace", action="store_const",
                    const=0, help="same as --trace 0")
    ap.add_argument("--smoke", action="store_true",
                    help="fast budget, one iteration: checks the plumbing")
    ap.add_argument("--json", dest="json_path", metavar="PATH",
                    help="write every sample and the fingerprint here")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"ledger: no repro sources under {ROOT / 'src'}; run it from "
              "a full checkout", file=sys.stderr)
        return 2
    declaration = load_declaration()
    units = {m["name"]: m["unit"] for m in declaration["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in declaration["per_layer"]}
    want_e2e = args.trace != 1
    want_layers = args.trace != 0
    names = args.workload or list(WORKLOADS)
    doc: Dict[str, Any] = {"schema": RESULT_SCHEMA,
                           "fingerprint": fingerprint(args), "workloads": {}}
    tmp = TMP_DIR / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    env = _env(str(tmp))
    try:
        for name in names:
            setup = (setup_samples(name, args.seed,
                                   1 if args.smoke else SETUP_LAUNCHES,
                                   args.smoke, env)
                     if want_e2e else None)
            raw = run_worker(name, args.seed, timed_iterations(args, name),
                             want_layers, args.smoke, env,
                             str(tmp / f"{name}.json"))
            entry = workload_entry(raw, setup, units, layer_units)
            doc["workloads"][name] = entry
            print_entry(name, entry)
    except LedgerError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if TMP_DIR.is_dir() and not any(TMP_DIR.iterdir()):
            TMP_DIR.rmdir()
    doc["fingerprint"]["loadavg_end"] = list(os.getloadavg())
    doc["fingerprint"]["iterations"] = {
        n: e["iterations"] for n, e in doc["workloads"].items()}
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    declared = ([m["name"] for m in declaration["end_to_end"]] if want_e2e
                else []) + ([m["name"] for m in declaration["per_layer"]]
                            if want_layers else [])
    line = result_line(doc["workloads"], declared)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def timed_iterations(args: argparse.Namespace, workload: str) -> int:
    """How many untraced iterations the worker times.

    ``--seconds S`` becomes a count through the workload's nominal
    iteration time, so the count depends on the arguments only."""
    wl = WORKLOADS[workload]
    if args.smoke:
        return 1
    if args.trace == 1:
        # per-layer only: just enough untraced time for trace_overhead
        seconds = args.seconds / 4 if args.seconds else 0.0
    elif args.seconds:
        seconds = args.seconds
    else:
        return wl.iterations
    return max(1, round(seconds / wl.nominal_s))


def result_line(entries: Dict[str, Any],
                declared: List[str]) -> Dict[str, Any]:
    """The closing JSON object: the declared metrics of every workload,
    prefixed ``<workload>/`` when there is more than one."""
    metrics = {}
    for name, entry in entries.items():
        prefix = "" if len(entries) == 1 else f"{name}/"
        found = {**entry["metrics"], **entry.get("layers", {})}
        for metric in declared:
            metrics[prefix + metric] = {"value": found[metric]["value"],
                                        "unit": found[metric]["unit"]}
    return {
        "correct": all(e["correct"] for e in entries.values()),
        "attempted": sum(e["attempted"] for e in entries.values()),
        "failed": sum(e["failed"] for e in entries.values()),
        "metrics": metrics,
    }
