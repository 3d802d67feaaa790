"""Declarative experiment specifications.

A :class:`ScenarioSpec` is a frozen, self-describing value object that
captures everything needed to regenerate one published artifact (a
table, figure, sweep or ablation): the traffic source, the workload, the
memory backend and its :class:`~repro.mem.timing.DdrTiming`, the
scheduler flags, the execution engine, the run-length budget and the
seed.  Execution is decoupled: the spec carries no code -- the registry
(:mod:`repro.scenarios.registry`) binds each spec to an executor, the
:class:`~repro.scenarios.runner.Runner` runs it, and the presenter
renders the typed result.

Run-length knobs are *budgeted pairs* ``(full, fast)``: the ``full``
element aims at repeatable 3-digit numbers, the ``fast`` element at
CI-style wall-clock.  ``spec.pick(pair)`` resolves a pair against the
spec's ``budget``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, FrozenSet, Optional, Tuple, TypeVar

from repro.core.mms import MmsConfig
from repro.mem.timing import DdrTiming
from repro.policies import PolicySpec
from repro.policies.harness import SHAPES
from repro.telemetry import TelemetrySpec
# the probe-layer leaf directly, not the repro.trace package: the spec
# layer must not drag the export/diff tooling into its import graph
from repro.trace.spans import TraceSpec

#: Execution engines every scenario understands.  ``fast`` selects the
#: batched / DES-free implementations (see :data:`FASTPATHS`),
#: ``reference`` the original per-access / DES-kernel executable
#: specifications.  Simulated results are identical either way
#: (asserted by the equivalence tests).
ENGINES: Tuple[str, ...] = ("fast", "reference")

#: Run-length budgets.
BUDGETS: Tuple[str, ...] = ("full", "fast")

#: Artifact categories.  ``overload``, ``qos`` and ``latency`` are
#: beyond-the-paper families: buffer-policy loss behavior,
#: egress-scheduling fairness and latency/occupancy *distributions*
#: (telemetry) the paper's tables never measure.
KINDS: Tuple[str, ...] = ("table", "figure", "headline", "sweep", "ablation",
                          "overload", "qos", "latency")

#: What ``engine="fast"`` resolves to for a scenario -- the capability
#: matrix of README "Execution engines":
#:
#: * ``"none"``   -- closed-form / functional; no engine degree of freedom,
#: * ``"bank"``   -- batched DDR bank model (:mod:`repro.mem.fastpath`),
#: * ``"stream"`` -- DES-free MMS command-stream machine
#:   (:mod:`repro.engines`),
#: * ``"ixp"``    -- DES-free IXP1200 machine (:mod:`repro.ixp.machine`),
#: * ``"mixed"``  -- several of the above behind one scenario (e.g. the
#:   headline runs the stream machine and the IXP machine side by side).
FASTPATHS: Tuple[str, ...] = ("none", "bank", "stream", "ixp", "mixed")

_T = TypeVar("_T")

#: A run-length knob: ``(full_value, fast_value)``.
Budgeted = Tuple[_T, _T]


def canonical_value(value: Any) -> Any:
    """Normalize a spec field value to a canonical JSON shape.

    Dataclasses become ``{"__type__": ClassName, <fields>}`` objects (so
    two structurally-equal payloads of *different* spec types can never
    alias), tuples become lists, frozensets become sorted lists, and
    enums collapse to their values.  Dict key order is irrelevant by
    construction: :meth:`ScenarioSpec.spec_hash` serializes with
    ``sort_keys=True``.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        d: dict = {"__type__": type(value).__name__}
        for f in dataclasses.fields(value):
            d[f.name] = canonical_value(getattr(value, f.name))
        return d
    if isinstance(value, dict):
        return {str(k): canonical_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical_value(v) for v in value]
    if isinstance(value, (frozenset, set)):
        return sorted(str(v) for v in value)
    if hasattr(value, "value") and type(value).__module__ != "builtins":
        return canonical_value(value.value)  # enum member
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"spec field value {value!r} has no canonical JSON form")


@dataclass(frozen=True)
class TrafficSpec:
    """The offered traffic / command stream of a scenario.

    Only the fields relevant to a scenario's workload are consulted by
    its executor; the rest keep their neutral defaults.
    """

    #: DDR access-stream length (Table 1 style), as a (full, fast) pair.
    num_accesses: Budgeted[int] = (0, 0)
    #: MMS load-harness volleys and warm-up, as (full, fast) pairs.
    num_volleys: Budgeted[int] = (0, 0)
    warmup_volleys: Budgeted[int] = (0, 0)
    #: MMS saturation command count, as a (full, fast) pair.
    num_commands: Budgeted[int] = (0, 0)
    #: Offered loads in Gbps (Table 5 axis), as a (full, fast) pair of
    #: tuples.
    loads_gbps: Budgeted[Tuple[float, ...]] = ((), ())
    #: IXP queue-count axis, as a (full, fast) pair of tuples.
    queue_counts: Budgeted[Tuple[int, ...]] = ((), ())
    #: IXP microengine counts exercised (not budgeted).
    engine_counts: Tuple[int, ...] = ()
    #: NPU CPU-clock axis in MHz (Section 5.4 rule of thumb).
    clocks_mhz: Tuple[float, ...] = ()
    #: MMS load-harness flow fan-out and burstiness.
    active_flows: int = 512
    burst_len: int = 4
    burst_prob: float = 0.25
    #: Overload traffic shape (one of
    #: :data:`repro.policies.harness.SHAPES`); empty for scenarios
    #: without shaped overload traffic.
    pattern: str = ""

    def __post_init__(self) -> None:
        # A typo'd shape must fail at spec construction, like unknown
        # engines/budgets/scenarios do -- not at run time (or worse,
        # silently, in a hand-built spec that never reaches a harness).
        if self.pattern and self.pattern not in SHAPES:
            raise ValueError(
                f"unknown traffic pattern {self.pattern!r} "
                f"(choose from {SHAPES}, or \"\" for unshaped traffic)")


@dataclass(frozen=True)
class MemorySpec:
    """The memory backend under test."""

    #: Backend family: "ddr" (banked DRAM data memory), "sram"/"zbt"
    #: (pointer memory), "none" for closed-form scenarios.
    backend: str = "ddr"
    #: Bank counts exercised (Table 1 axis; single-element for most).
    banks: Tuple[int, ...] = (8,)
    #: DDR timing facts (paper footnotes 1-2).
    timing: DdrTiming = DdrTiming()


@dataclass(frozen=True)
class SchedulerSpec:
    """Scheduler/policy flags of the scenario."""

    #: DDR front-end: reordering (True) vs serializing (False).
    optimized: bool = True
    #: Model the write-after-read data-bus turnaround.
    model_rw_turnaround: bool = False
    #: Reordering-scheduler issue-history depth (paper uses 3).
    history_depth: int = 3
    #: Ablation A4: prefer same-direction accesses.
    prefer_same_type: bool = False
    #: IXP hardware multithreading ablation.
    multithreading: bool = False
    #: MMS ablation A5: overlap data transfers with pointer work.
    overlap_data: bool = True
    #: Ablation axes (history depths / per-port FIFO depths to sweep).
    history_depths: Tuple[int, ...] = ()
    fifo_depths: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative experiment: everything but the code.

    ``supports`` names the knobs the scenario honors (subset of
    ``{"engine", "seed", "budget", "mms"}``); :meth:`with_options`
    applies overrides for supported knobs and ignores the rest, so a
    uniform CLI invocation like ``run all --engine reference`` is valid
    across closed-form and simulation scenarios alike.
    """

    name: str
    kind: str
    title: str
    workload: str
    description: str = ""
    engine: str = "fast"
    seed: int = 2005
    budget: str = "full"
    traffic: TrafficSpec = TrafficSpec()
    memory: MemorySpec = MemorySpec()
    sched: SchedulerSpec = SchedulerSpec()
    #: Optional MMS build-time configuration (Table 5 style scenarios).
    mms: Optional[MmsConfig] = None
    #: Buffer-management policy (the ``overload-*`` and ``latency-*``
    #: families).
    policy: Optional[PolicySpec] = None
    #: Streaming telemetry (:mod:`repro.telemetry`): None = probes
    #: structurally absent; a :class:`TelemetrySpec` enables the
    #: standard probe and lands its snapshot in
    #: ``RunResult.metrics["telemetry"]``.  The ``latency-*`` family
    #: has it on by default; scenarios declaring ``"telemetry"`` in
    #: ``supports`` accept it as a knob (CLI ``--telemetry``).
    telemetry: Optional[TelemetrySpec] = None
    #: Span tracing (:mod:`repro.trace`): None = tracer structurally
    #: absent; a :class:`TraceSpec` enables the span collector and lands
    #: its snapshot in ``RunResult.metrics["trace"]``.  Off by default
    #: everywhere; scenarios declaring ``"trace"`` in ``supports``
    #: accept it as a knob (CLI ``--trace``).
    trace: Optional[TraceSpec] = None
    supports: FrozenSet[str] = frozenset()
    #: Capability flag: what ``engine="fast"`` resolves to (see
    #: :data:`FASTPATHS`).
    fastpath: str = "none"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r} (choose from {KINDS})")
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r} (choose from {ENGINES})")
        if self.budget not in BUDGETS:
            raise ValueError(
                f"unknown budget {self.budget!r} (choose from {BUDGETS})")
        unknown = self.supports - {"engine", "seed", "budget", "mms",
                                   "telemetry", "trace"}
        if unknown:
            raise ValueError(f"unknown supports entries: {sorted(unknown)}")
        if self.telemetry is not None and "telemetry" not in self.supports:
            raise ValueError(
                "a scenario carrying a TelemetrySpec must declare "
                "'telemetry' in supports")
        if self.trace is not None and "trace" not in self.supports:
            raise ValueError(
                "a scenario carrying a TraceSpec must declare "
                "'trace' in supports")
        if self.fastpath not in FASTPATHS:
            raise ValueError(
                f"unknown fastpath {self.fastpath!r} (choose from "
                f"{FASTPATHS})")
        if ("engine" in self.supports) == (self.fastpath == "none"):
            raise ValueError(
                "fastpath must be 'none' exactly when the scenario has no "
                f"engine knob (got {self.fastpath!r} with supports="
                f"{sorted(self.supports)})")

    # ------------------------------------------------------------ helpers

    def pick(self, pair: Budgeted[_T]) -> _T:
        """Resolve a ``(full, fast)`` run-length pair for this budget."""
        return pair[0] if self.budget == "full" else pair[1]

    def with_options(self, engine: Optional[str] = None,
                     seed: Optional[int] = None,
                     budget: Optional[str] = None,
                     mms: Optional[MmsConfig] = None,
                     telemetry: Optional[TelemetrySpec] = None,
                     trace: Optional[TraceSpec] = None
                     ) -> "ScenarioSpec":
        """A copy with the given knobs applied where supported.

        Knob *values* are always validated -- an unknown engine or
        budget is rejected even when the scenario would ignore the knob
        (a typo must not silently succeed).  Overrides for knobs the
        scenario does not declare in ``supports`` are then ignored --
        the scenario has no such degree of freedom (e.g. Table 4 is
        closed-form), and uniform ``run all`` invocations must stay
        valid.  ``telemetry`` turns probing *on* -- or re-tunes a
        scenario whose telemetry is already on (an explicit spec
        overrides, like every other supported knob).  There is
        deliberately no off-switch: omit the knob to keep the
        scenario's own setting.  ``trace`` follows the identical
        discipline.
        """
        if engine is not None and engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r} (choose from {ENGINES})")
        if budget is not None and budget not in BUDGETS:
            raise ValueError(
                f"unknown budget {budget!r} (choose from {BUDGETS})")
        if telemetry is not None and not isinstance(telemetry, TelemetrySpec):
            raise ValueError(
                f"telemetry must be a TelemetrySpec, got {telemetry!r}")
        if trace is not None and not isinstance(trace, TraceSpec):
            raise ValueError(
                f"trace must be a TraceSpec, got {trace!r}")
        changes = {}
        if engine is not None and "engine" in self.supports:
            changes["engine"] = engine
        if seed is not None and "seed" in self.supports:
            changes["seed"] = seed
        if budget is not None and "budget" in self.supports:
            changes["budget"] = budget
        if mms is not None and "mms" in self.supports:
            changes["mms"] = mms
        if telemetry is not None and "telemetry" in self.supports:
            changes["telemetry"] = telemetry
        if trace is not None and "trace" in self.supports:
            changes["trace"] = trace
        if not changes:
            return self
        return dataclasses.replace(self, **changes)

    @property
    def effective_engine(self) -> str:
        """The engine label results should carry: the selected engine
        for simulation scenarios, ``"n/a"`` for closed-form ones."""
        return self.engine if "engine" in self.supports else "n/a"

    def canonical_dict(self) -> dict:
        """The spec as a canonical JSON-ready object (every field,
        nested sub-specs included, via :func:`canonical_value`)."""
        return canonical_value(self)  # type: ignore[no-any-return]

    def spec_hash(self) -> str:
        """Stable content hash of this resolved spec (hex SHA-256).

        The cache-key primitive of :mod:`repro.serve`: two specs hash
        equal iff every field (engine, seed, budget, traffic, memory,
        scheduler, policy, telemetry, trace, ...) is equal, and the
        hash is insensitive to dict/set ordering (canonical JSON with
        sorted keys).  Any field change -- however deep -- changes the
        hash, so a cached result can never be served for a different
        experiment.
        """
        text = json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()
