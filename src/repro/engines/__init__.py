"""``repro.engines``: the MMS workload drivers and the DES-free machine.

The simulator stack has had two batched fast paths for a while -- the
calendar-queue DES kernel (:mod:`repro.sim.kernel`) and the DDR bank
model (:mod:`repro.mem.fastpath`).  This package adds the third and
largest: :class:`StreamMms`, a command-stream machine that replays the
MMS/DQM workloads (Table 5, the saturation headline, the overload
family) without a discrete-event kernel while staying trace-identical
to it -- same per-command access records, same drop/accept counters,
same picosecond totals.

Each workload family has one driver (:mod:`repro.engines.harnesses`)
that runs on either machine.  Selection is the existing uniform knob:
``engine="fast"`` on :func:`repro.core.mms.run_load`,
:func:`repro.core.mms.run_saturation` and
:func:`repro.policies.harness.run_overload` picks :class:`StreamMms`
whenever :func:`stream_supports` claims the configuration, and the
calendar-queue kernel otherwise (e.g. the per-port FIFO backpressure
ablation).  ``engine="reference"`` always runs the heapq ordering spec.
Nothing upstream -- ``Runner``, the CLI, sweeps, benchmarks -- changes.
"""

from repro.engines.stream import StreamMms, stream_supports

__all__ = [
    "StreamMms",
    "stream_supports",
]
