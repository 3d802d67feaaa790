"""Versioned, JSON-round-tripping checkpoint envelopes.

A :class:`Checkpoint` freezes one simulation at a rest point (between
engine ``run()`` calls): which execution path produced it (``engine``),
which workload it was running (``workload``), the simulated instant
(``at_ps``), the immutable run parameters (``params`` -- enough to
rebuild the machine and its feeders from scratch), and the mutable
machine state (``state``): an *exact* scalar snapshot of the
:class:`~repro.engines.stream.StreamMms` actors
(:mod:`repro.checkpoint.stream_state`), so restore rebuilds the machine
without re-executing anything.  The continued run is byte-identical
to an unbroken one (asserted by ``tests/checkpoint/``).  The payload
follows the repo's schema discipline (``TELEMETRY_SCHEMA``,
``DOCUMENT_SCHEMA``): a version field plus a dependency-free validator
returning human-readable problems.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping

from repro.checkpoint.atomic import read_json, write_json_atomic
from repro.core.mms import MmsConfig
from repro.core.scheduler import PortConfig
from repro.policies.base import PolicySpec
from repro.telemetry.probe import TelemetrySpec
from repro.trace.spans import TraceSpec

#: Schema version of the serialized checkpoint payload.
CHECKPOINT_SCHEMA = 1

#: Execution paths a checkpoint can originate from (the DES kernel is
#: the unbroken reference and takes no checkpoints).
CHECKPOINT_ENGINES = ("stream",)


class CheckpointError(RuntimeError):
    """A checkpoint could not be taken, validated or restored."""


@dataclass(frozen=True)
class Checkpoint:
    """One frozen simulation rest point (see module docstring)."""

    engine: str
    workload: str
    at_ps: int
    params: Dict[str, Any]
    state: Dict[str, Any]
    schema: int = field(default=CHECKPOINT_SCHEMA)

    def __post_init__(self) -> None:
        if self.engine not in CHECKPOINT_ENGINES:
            raise ValueError(f"unknown checkpoint engine {self.engine!r} "
                             f"(choose from {CHECKPOINT_ENGINES})")
        if self.at_ps < 0:
            raise ValueError(f"at_ps must be >= 0, got {self.at_ps}")

    # ------------------------------------------------------ serialization

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "engine": self.engine,
            "workload": self.workload,
            "at_ps": self.at_ps,
            "params": self.params,
            "state": self.state,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Checkpoint":
        problems = validate_checkpoint_dict(d)
        if problems:
            raise CheckpointError("invalid checkpoint payload: "
                                  + "; ".join(problems))
        return cls(engine=d["engine"], workload=d["workload"],
                   at_ps=d["at_ps"], params=dict(d["params"]),
                   state=dict(d["state"]), schema=d["schema"])

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Checkpoint":
        return cls.from_dict(json.loads(text))

    # --------------------------------------------------------- file I/O

    def save(self, path: str) -> None:
        """Persist atomically (a crash mid-save never corrupts an
        existing checkpoint file)."""
        write_json_atomic(path, self.to_dict())

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        return cls.from_dict(read_json(path))


def validate_checkpoint_dict(d: Mapping[str, Any]) -> List[str]:
    """Schema check of one serialized checkpoint (list of human-readable
    problems; empty = valid).  Dependency-free, like
    :func:`repro.telemetry.validate_telemetry_dict`."""
    problems: List[str] = []
    if not isinstance(d, Mapping):
        return ["checkpoint payload is not an object"]
    if d.get("schema") != CHECKPOINT_SCHEMA:
        problems.append(f"schema {d.get('schema')!r} != {CHECKPOINT_SCHEMA}")
    if d.get("engine") not in CHECKPOINT_ENGINES:
        problems.append(f"engine {d.get('engine')!r} not in "
                        f"{CHECKPOINT_ENGINES}")
    if not isinstance(d.get("workload"), str) or not d.get("workload"):
        problems.append("workload missing or not a string")
    at_ps = d.get("at_ps")
    if not isinstance(at_ps, int) or isinstance(at_ps, bool) or at_ps < 0:
        problems.append("at_ps missing or not a non-negative integer")
    for key in ("params", "state"):
        if not isinstance(d.get(key), Mapping):
            problems.append(f"{key!r} missing or not an object")
    return problems


# ================================================ config serialization
#
# Checkpoint params must rebuild the exact MmsConfig (frozen dataclass
# of scalars plus the PortConfig tuple and the optional PolicySpec), so
# the restored machine is constructed from the identical build -- any
# drift here would silently break the resume-identity guarantee.

_CONFIG_SCALARS = (
    "clock_mhz", "num_flows", "num_segments", "num_descriptors",
    "num_banks", "reorder_window", "dmc_pipeline_ns", "strict_microcode",
    "overlap_data", "policy_seed", "policy_records",
)

_POLICY_FIELDS = ("name", "per_queue_limit", "alpha", "red_min_frac",
                  "red_max_frac", "red_max_p", "red_weight")


def config_to_dict(config: MmsConfig) -> Dict[str, Any]:
    """Serialize an :class:`MmsConfig` (ports and policy included)."""
    d: Dict[str, Any] = {k: getattr(config, k) for k in _CONFIG_SCALARS}
    d["ports"] = [[p.name, p.priority, p.fifo_depth] for p in config.ports]
    d["policy"] = None if config.policy is None else \
        {k: getattr(config.policy, k) for k in _POLICY_FIELDS}
    return d


def config_from_dict(d: Mapping[str, Any]) -> MmsConfig:
    """Rebuild the exact :class:`MmsConfig` from
    :func:`config_to_dict` output (dataclass validation re-runs).  Keys
    of retired fields (``keep_samples``) in older documents are
    ignored."""
    ports = tuple(PortConfig(name=p[0], priority=p[1], fifo_depth=p[2])
                  for p in d["ports"])
    policy = None if d["policy"] is None else PolicySpec(**d["policy"])
    return MmsConfig(ports=ports, policy=policy,
                     **{k: d[k] for k in _CONFIG_SCALARS})


def telemetry_spec_to_dict(spec: TelemetrySpec) -> Dict[str, Any]:
    """Serialize a :class:`TelemetrySpec` for checkpoint params."""
    return {"sample_every": spec.sample_every,
            "percentiles": list(spec.percentiles)}


def telemetry_spec_from_dict(d: Mapping[str, Any]) -> TelemetrySpec:
    return TelemetrySpec(sample_every=d["sample_every"],
                         percentiles=tuple(d["percentiles"]))


def trace_spec_to_dict(spec: TraceSpec) -> Dict[str, Any]:
    """Serialize a :class:`TraceSpec` for checkpoint params."""
    return {"max_spans": spec.max_spans}


def trace_spec_from_dict(d: Mapping[str, Any]) -> TraceSpec:
    return TraceSpec(max_spans=d["max_spans"])
