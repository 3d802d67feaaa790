"""``repro.engines``: the MMS workload drivers and the DES-free machine.

:class:`StreamMms` is a command-stream machine that replays the MMS/DQM
workloads (Table 5, the saturation headline, the FIFO-depth ablation,
the overload family) without the discrete-event kernel
(:mod:`repro.sim.kernel`) while staying trace-identical to it -- same
per-command access records, same drop/accept counters, same picosecond
totals.

Each workload family has one driver (:mod:`repro.engines.harnesses`)
that runs on either machine.  Selection is the existing uniform knob:
``engine="fast"`` on :func:`repro.core.mms.run_load`,
:func:`repro.core.mms.run_saturation` and
:func:`repro.policies.harness.run_overload` runs :class:`StreamMms` on
every configuration; ``engine="reference"`` runs the DES kernel, the
machine's oracle.
"""

from repro.engines.stream import StreamMms

__all__ = [
    "StreamMms",
]
