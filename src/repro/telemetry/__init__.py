"""``repro.telemetry``: engine-agnostic streaming observability.

The paper's evaluation reports aggregate access counts and *mean*
command latencies (Tables 4-5), but queue-management behavior under
load is a question about *distributions*: tail latency, occupancy
dynamics, loss provenance.  This package adds a streaming telemetry
layer that answers those questions without storing per-command samples:

* :class:`Probe` -- the observation protocol.  Both execution paths
  (the DES kernels driving :class:`~repro.core.dqm.DataQueueManager`
  and the DES-free :class:`~repro.engines.StreamMms` loop) emit the
  same two event streams: ``on_command`` at every DQM dispatch
  boundary and ``on_records`` with the latency records in delivery
  order.  Because the dispatch/record streams are
  already proven byte-identical across engines (``tests/engines``),
  any deterministic probe observes byte-identical telemetry from
  either engine.
* :class:`Log2Histogram` -- exact streaming counts in log2 buckets,
  with deterministic p50/p90/p99/p99.9/max summaries and no sample
  retention.
* :class:`MmsTelemetry` -- the standard probe: per-class
  (enqueue/dequeue) latency histograms, per-queue/aggregate occupancy
  time-series samplers, and throughput/drop counters with
  :class:`~repro.policies.base.DropRecord` reason provenance.
* :class:`TelemetrySpec` -- the declarative knob carried by
  :class:`~repro.scenarios.ScenarioSpec` and the CLI's ``--telemetry``.

The probes-off contract is *structural absence*, not inertness: when no
probe is installed, the execution hot paths contain no telemetry call
sites at all (the probed dispatch/finalize variants are swapped in only
at construction time), so the fast-path floors are unaffected.
"""

from repro.telemetry.histogram import Log2Histogram
from repro.telemetry.probe import Probe, ProbeChain, TelemetrySpec
from repro.telemetry.collector import (
    TELEMETRY_SCHEMA,
    MmsTelemetry,
    TelemetrySnapshot,
    validate_telemetry_dict,
)

__all__ = [
    "Probe",
    "ProbeChain",
    "TelemetrySpec",
    "Log2Histogram",
    "MmsTelemetry",
    "TelemetrySnapshot",
    "TELEMETRY_SCHEMA",
    "validate_telemetry_dict",
]
