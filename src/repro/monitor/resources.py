"""Per-task resource profiling: rusage deltas at task boundaries.

A :class:`ResourceProfiler` samples ``getrusage(RUSAGE_SELF)`` plus a
monotonic wall clock when constructed and again at :meth:`profile`,
reporting the delta as a plain JSON dict::

    {"schema": 1, "cpu_user_s": ..., "cpu_sys_s": ..., "cpu_s": ...,
     "max_rss_kb": ..., "wall_s": ...}

``max_rss_kb`` is the process high-water mark (the kernel reports no
delta for it) -- exactly what a process-per-task pool worker wants,
since the worker process *is* the task.  Optional in-run strides
(:meth:`tick`) fold intermediate samples into a ``"strides"`` list, so
long checkpointed runs can report a resource timeline rather than one
terminal number.

The profiler is slow-path machinery: it is constructed only when
monitoring is enabled (``Runner(... resources=...)``, pool
``resources=True``) and never imported from any hot path --
``tests/scenarios/test_off_path.py`` asserts that.
"""

from __future__ import annotations

import resource
import time
from typing import Any, Dict, List, Mapping, Tuple

#: Schema version of one serialized resource profile.
RESOURCES_SCHEMA = 1

#: Numeric fields every profile (and stride) carries.
_PROFILE_FIELDS = ("cpu_user_s", "cpu_sys_s", "cpu_s", "max_rss_kb",
                   "wall_s")


def _sample() -> Tuple[float, float, int, float]:
    """``(cpu_user_s, cpu_sys_s, max_rss_kb, wall_s)`` right now."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime, ru.ru_stime, ru.ru_maxrss, time.monotonic()


class ResourceProfiler:
    """Delta profiler between construction and :meth:`profile`."""

    def __init__(self) -> None:
        self._t0 = _sample()
        self._strides: List[Dict[str, Any]] = []

    def _delta(self, label: str = "") -> Dict[str, Any]:
        user, sys_, rss, wall = _sample()
        u0, s0, _rss0, w0 = self._t0
        d: Dict[str, Any] = {
            "cpu_user_s": round(user - u0, 6),
            "cpu_sys_s": round(sys_ - s0, 6),
            "cpu_s": round((user - u0) + (sys_ - s0), 6),
            "max_rss_kb": rss,
            "wall_s": round(wall - w0, 6),
        }
        if label:
            d["at"] = label
        return d

    def tick(self, label: str) -> Dict[str, Any]:
        """Record an in-run stride sample (cumulative since start)."""
        stride = self._delta(label)
        self._strides.append(stride)
        return stride

    def profile(self) -> Dict[str, Any]:
        """The terminal profile (cumulative), with any recorded
        strides folded in."""
        prof = self._delta()
        prof["schema"] = RESOURCES_SCHEMA
        if self._strides:
            prof["strides"] = list(self._strides)
        return prof


def validate_resources_dict(d: Mapping[str, Any]) -> List[str]:
    """Schema check of one serialized resource profile."""
    problems: List[str] = []
    if not isinstance(d, Mapping):
        return ["resources is not an object"]
    if d.get("schema") != RESOURCES_SCHEMA:
        problems.append(
            f"schema {d.get('schema')!r} != {RESOURCES_SCHEMA}")
    for key in _PROFILE_FIELDS:
        value = d.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{key!r} missing or not a number")
        elif value < 0:
            problems.append(f"{key!r} is negative")
    if "strides" in d:
        if not isinstance(d["strides"], list):
            problems.append("'strides' not a list")
        else:
            for i, stride in enumerate(d["strides"]):
                if not isinstance(stride, Mapping) or not all(
                        isinstance(stride.get(k), (int, float))
                        and not isinstance(stride.get(k), bool)
                        for k in _PROFILE_FIELDS):
                    problems.append(f"strides[{i}] malformed")
    return problems
