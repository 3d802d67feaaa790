"""Shared memory units of the IXP1200 model.

Each unit (scratchpad, SRAM controller, SDRAM controller) serves one
access at a time in FIFO order; the *service* portion occupies the
controller, the *engine overhead* portion is paid by the requesting
microengine after (issue instructions, non-overlapped latency).  With six
engines the controller occupancy is what bounds aggregate throughput --
this is where the 6-engine column of Table 2 comes from.
"""

from __future__ import annotations

from typing import Generator

from repro.sim import Resource, Simulator


class SharedMemoryUnit:
    """A FIFO-served memory controller shared by all microengines.

    ``service_ps`` / ``overhead_ps`` are the picosecond forms of a
    :class:`~repro.ixp.params.MemoryCosts` (see
    :func:`repro.ixp.program.ixp_timing`); ``period_ps`` converts waits
    back to cycles.
    """

    def __init__(self, sim: Simulator, period_ps: int, service_ps: int,
                 overhead_ps: int, name: str) -> None:
        self.sim = sim
        self.period_ps = period_ps
        self.name = name
        self._port = Resource(sim, slots=1, name=f"{name}.port")
        self.total_accesses = 0
        #: controller waits: an integer picosecond sum and its count
        self.wait_total_ps = 0
        self.wait_count = 0
        self._service_ps = service_ps
        self._overhead_ps = overhead_ps

    def access(self) -> Generator:
        """One blocking single-word access from microengine code.

        ``yield from unit.access()`` -- queues for the controller, holds
        it for the service time, then pays the engine-side overhead.
        """
        t0 = self.sim.now
        yield from self._port.acquire()
        self.wait_total_ps += self.sim.now - t0
        self.wait_count += 1
        yield self._service_ps
        self._port.release()
        yield self._overhead_ps
        self.total_accesses += 1

    @property
    def utilization(self) -> float:
        """Fraction of simulated time the controller was busy."""
        return self._port.busy.mean

    @property
    def mean_wait_cycles(self) -> float:
        if self.wait_count == 0:
            return 0.0
        return self.wait_total_ps / (self.wait_count * self.period_ps)
