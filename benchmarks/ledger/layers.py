"""Host-time attribution: fold a cProfile run into the layers of ``src/repro``.

A layer is named after the repository module it covers.  Membership is
by longest module prefix, as in ``repro-lint.toml``: ``repro.core.latency``
belongs to ``core.latency`` and ``repro.core.dmc`` to ``core``.  ``other``
is the ``repro`` prefix itself, so it takes every module no narrower layer
claims (``repro.apps``, ``repro.net``, ``repro.trace``, ``repro.lint``)
and, with it, the benchmark's own code.

C builtins and standard-library functions belong to no layer: their time
is charged to the layer that called them, following stdlib-to-stdlib call
chains up to the first layered caller.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Callable, Dict, FrozenSet, Mapping, Optional, Tuple

#: ``(layer, module prefix)`` pairs; the layer names are the metric stems.
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("engines.stream", "repro.engines.stream"),
    ("engines.harnesses", "repro.engines.harnesses"),
    ("queueing", "repro.queueing"),
    ("core.latency", "repro.core.latency"),
    ("core.workloads", "repro.core.workloads"),
    ("core", "repro.core"),
    ("mem", "repro.mem"),
    ("sim.kernel", "repro.sim.kernel"),
    ("sim.stats", "repro.sim.stats"),
    ("sim", "repro.sim"),
    ("ixp", "repro.ixp"),
    ("npu", "repro.npu"),
    ("policies", "repro.policies"),
    ("telemetry", "repro.telemetry"),
    ("scenarios", "repro.scenarios"),
    ("analysis", "repro.analysis"),
    ("serve", "repro.serve"),
    ("checkpoint", "repro.checkpoint"),
    ("monitor", "repro.monitor"),
    ("other", "repro"),
)

LAYER_NAMES: Tuple[str, ...] = tuple(name for name, _prefix in LAYERS)

#: A cProfile function label: ``(filename, line, function name)``.
Func = Tuple[str, int, str]

#: ``pstats``-shaped profile: ``func -> (cc, nc, tt, ct, callers)`` with
#: ``callers[caller] = (nc, cc, tt, ct)``.
Stats = Mapping[Func, tuple]


def layer_of_module(module: str) -> Optional[str]:
    """The layer owning a dotted module name, by longest prefix."""
    best: Optional[Tuple[str, str]] = None
    for name, prefix in LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[1]):
                best = (name, prefix)
    return best[0] if best is not None else None


def module_of_file(path: str, package_dir: str) -> Optional[str]:
    """``repro.core.dmc`` for ``<package_dir>/core/dmc.py``; None for a
    file outside the package."""
    path = os.path.abspath(path)
    if not path.startswith(package_dir + os.sep) or not path.endswith(".py"):
        return None
    rel = os.path.relpath(path[:-3], os.path.dirname(package_dir))
    parts = rel.split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def file_classifier(package_dir: str,
                    own_dir: str) -> Callable[[str], Optional[str]]:
    """Map a profiled filename to its layer: ``repro`` modules by prefix,
    the benchmark's own files to ``other``, anything else to None."""
    package_dir = os.path.abspath(package_dir)
    own_dir = os.path.abspath(own_dir) + os.sep

    def classify(filename: str) -> Optional[str]:
        module = module_of_file(filename, package_dir)
        if module is not None:
            return layer_of_module(module)
        if os.path.abspath(filename).startswith(own_dir):
            return "other"
        return None

    return classify


def fold(stats: Stats, classify: Callable[[str], Optional[str]]
         ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-layer self-time shares (summing to 1) and call counts.

    An unlayered function's self time is split over its callers in
    proportion to the cumulative time each caller's calls took, and an
    unlayered caller passes its part on the same way.  ``calls`` counts
    calls into a layer's functions from a caller owned by another layer;
    for that count an unlayered caller belongs to whoever made most of
    its calls, so the count is deterministic.
    """
    layer = {func: classify(func[0]) for func in stats}
    owners_memo: Dict[Func, Dict[str, float]] = {}

    def owners(func: Func, visiting: FrozenSet[Func]) -> Dict[str, float]:
        own = layer.get(func)
        if own is not None:
            return {own: 1.0}
        if func in owners_memo:
            return owners_memo[func]
        callers = {c: v for c, v in stats[func][4].items()
                   if c not in visiting and c != func}
        weights = {c: v[3] for c, v in callers.items()}
        if not any(weights.values()):
            weights = {c: float(v[0]) for c, v in callers.items()}
        total = sum(weights.values())
        result: Dict[str, float] = {}
        for caller, weight in weights.items():
            if not weight:
                continue
            for name, frac in owners(caller, visiting | {func}).items():
                result[name] = result.get(name, 0.0) + frac * weight / total
        owners_memo[func] = result or {"other": 1.0}
        return owners_memo[func]

    self_time = dict.fromkeys(LAYER_NAMES, 0.0)
    for func, entry in stats.items():
        for name, frac in owners(func, frozenset()).items():
            self_time[name] += entry[2] * frac
    total = sum(self_time.values())
    shares = {name: (t / total if total else 0.0)
              for name, t in self_time.items()}

    def static_owner(func: Func, visiting: FrozenSet[Func]) -> str:
        own = layer.get(func)
        if own is not None:
            return own
        candidates = [(v[0], c) for c, v in stats[func][4].items()
                      if c not in visiting and c != func]
        if not candidates:
            return "other"
        return static_owner(max(candidates)[1], visiting | {func})

    caller_owner: Dict[Func, str] = {}
    calls: Counter = Counter()
    for func, entry in stats.items():
        own = layer[func]
        if own is None:
            continue
        for caller, v in entry[4].items():
            if caller not in caller_owner:
                caller_owner[caller] = static_owner(caller, frozenset())
            if caller_owner[caller] != own:
                calls[own] += v[0]
    return shares, {name: calls.get(name, 0) for name in LAYER_NAMES}
