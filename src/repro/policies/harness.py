"""The overload load harness: drive an MMS past its buffer capacity.

The Table 5 harness keeps the offered load below the MMS saturation
point and the buffer far larger than the backlog -- no loss ever occurs.
This harness does the opposite: a deliberately small segment buffer, a
drain that is slower than the offered traffic, and a policy deciding the
fate of every arrival.  Three traffic shapes cover the canonical
overload situations:

* ``burst``    -- low average load with large synchronized volleys that
  transiently overflow the buffer (drain recovers in between),
* ``sustained``-- steady 2x oversubscription (arrival pacing at twice
  the drain pacing): occupancy climbs and pins at capacity,
* ``incast``   -- many flows converge simultaneously with short
  multi-segment packets (many short queues; victim selection and
  per-queue thresholds behave differently than under ``burst``'s few
  long queues).

Everything runs through the real MMS blocks (port FIFOs, DQM schedule
timing, DMC transfers).  :func:`run_overload` validates its arguments
and delegates to the one overload driver
(:func:`repro.engines.harnesses.drive_overload`), whose ``engine`` knob
works exactly like Table 5's: ``"fast"`` runs the DES-free
command-stream machine on every configuration, ``"reference"`` the
heapq kernel.  The machines are trace-identical, and the policy
decisions are a pure function of (seed, arrival order), so the
drop/accept counters are byte-identical across engines -- asserted by
the equivalence tests, the differential fuzz suite and the
scenario-identity test.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:
    from repro.telemetry.probe import Probe

from repro.core.mms import MmsConfig
from repro.policies.base import PolicySpec

#: Traffic shapes of the overload scenario family.
SHAPES = ("burst", "sustained", "incast")

#: Default overload build: a deliberately tiny shared buffer.
OVERLOAD_MMS_CFG = MmsConfig(num_flows=64, num_segments=96,
                             num_descriptors=96)


@dataclass
class OverloadResult:
    """Loss behavior of one policy under one overload shape."""

    policy: str
    shape: str
    offered_segments: int
    offered_bytes: int
    accepted_segments: int
    accepted_bytes: int
    dropped_segments: int
    dropped_bytes: int
    pushed_out_segments: int
    pushed_out_bytes: int
    dequeued_segments: int
    residual_segments: int
    capacity_segments: int
    elapsed_ps: int
    engine: str = "fast"

    @property
    def drop_rate(self) -> float:
        if self.offered_segments == 0:
            return 0.0
        return self.dropped_segments / self.offered_segments

    def counters(self) -> Dict[str, int]:
        """The drop/accept counters that must be byte-identical across
        engines (everything except wall-clock, which is not simulated
        state)."""
        return {
            "offered_segments": self.offered_segments,
            "offered_bytes": self.offered_bytes,
            "accepted_segments": self.accepted_segments,
            "accepted_bytes": self.accepted_bytes,
            "dropped_segments": self.dropped_segments,
            "dropped_bytes": self.dropped_bytes,
            "pushed_out_segments": self.pushed_out_segments,
            "pushed_out_bytes": self.pushed_out_bytes,
            "dequeued_segments": self.dequeued_segments,
            "residual_segments": self.residual_segments,
            "elapsed_ps": self.elapsed_ps,
        }


def run_overload(policy: PolicySpec, shape: str, *,
                 num_arrivals: int = 1200,
                 active_flows: int = 32,
                 config: MmsConfig = OVERLOAD_MMS_CFG,
                 seed: int = 2005,
                 engine: str = "fast",
                 keep_records: bool = False,
                 probe: Optional["Probe"] = None) -> OverloadResult:
    """Run one (policy, traffic shape) overload experiment.

    ``num_arrivals`` segments are offered across ``active_flows`` flow
    queues by three enqueue ports while one port drains at half the
    offered pace; the policy decides every arrival's fate.  Returns the
    typed loss counters.
    """
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r} (choose from {SHAPES})")
    if num_arrivals < 1:
        raise ValueError(f"num_arrivals must be >= 1, got {num_arrivals}")
    if not 1 <= active_flows <= config.num_flows:
        raise ValueError(
            f"active_flows must be in [1, {config.num_flows}], "
            f"got {active_flows}")
    cfg = dataclasses.replace(config, policy=policy, policy_seed=seed,
                              policy_records=keep_records)

    from repro.engines.harnesses import drive_overload
    return drive_overload(cfg, shape, num_arrivals=num_arrivals,
                          active_flows=active_flows, engine=engine,
                          probe=probe)
