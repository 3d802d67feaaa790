"""Whole-IXP1200 simulation: microengines contending on shared memories.

One process per microengine executes the per-packet program in a loop
(backlogged input -- Table 2 reports the *maximum rate serviced*).  All
engines share the queue regime's memory controller; contention emerges
from the simulation rather than from a fitted degradation factor.
Optional hardware multithreading (ablation) runs several program contexts
per engine, releasing the engine during memory waits but paying the
context switch the paper says eats the benefit.

:class:`IxpSystem` writes the model as generator processes on the DES
kernel and is the executable specification; :func:`simulate_ixp`'s
default ``engine="fast"`` replays it without a kernel
(:class:`~repro.ixp.machine.IxpMachine`), with equal results.
"""

from __future__ import annotations

from typing import Optional

from repro.ixp.machine import IxpMachine, IxpSimResult
from repro.ixp.memory_units import SharedMemoryUnit
from repro.ixp.params import IxpParams
from repro.ixp.program import IxpTiming, PacketProgram, ixp_timing
from repro.sim import Resource, Simulator


class IxpSystem:
    """The modelled IXP1200 on the DES kernel: engines + the shared unit."""

    def __init__(self, num_queues: int, num_engines: int,
                 params: IxpParams = IxpParams(),
                 multithreading: bool = False) -> None:
        self.timing: IxpTiming = ixp_timing(num_queues, num_engines, params)
        self.params = params
        self.num_engines = num_engines
        self.multithreading = multithreading
        self.sim = Simulator()
        self.program: PacketProgram = self.timing.program
        self._unit = SharedMemoryUnit(
            self.sim, self.timing.period_ps, self.timing.service_ps,
            self.timing.overhead_ps, self.program.regime.unit)
        self._done = [0] * num_engines
        for e in range(num_engines):
            if multithreading:
                self._spawn_threaded_engine(e)
            else:
                self.sim.spawn(self._engine_body(e), name=f"me{e}")

    # ------------------------------------------------------------ engines

    def _engine_body(self, idx: int):
        """Single-threaded microengine: block on every memory access."""
        work_ps = self.timing.work_ps
        accesses = self.timing.accesses
        unit_access = self._unit.access
        done = self._done
        while True:
            yield work_ps
            for _ in range(accesses):
                yield from unit_access()
            done[idx] += 1

    def _spawn_threaded_engine(self, idx: int) -> None:
        """Hardware-multithreaded engine (ablation): contexts share the
        engine pipeline, swapping on memory waits at a context-switch
        cost.  Reference [10] in the paper: 'the overhead for the context
        switch ... exceeds the memory latency'."""
        engine = Resource(self.sim, slots=1, name=f"me{idx}")
        for t in range(self.params.threads_per_engine):
            self.sim.spawn(self._thread_body(idx, engine),
                           name=f"me{idx}.t{t}")

    def _thread_body(self, idx: int, engine: Resource):
        work_ps = self.timing.work_ps
        ctx_ps = self.timing.ctx_ps
        accesses = self.timing.accesses
        unit_access = self._unit.access
        done = self._done
        while True:
            yield from engine.acquire()
            yield work_ps
            for _ in range(accesses):
                # swap out while the access is in flight
                engine.release()
                yield from unit_access()
                yield from engine.acquire()
                yield ctx_ps
            engine.release()
            done[idx] += 1

    # ---------------------------------------------------------------- run

    def run(self, duration_ps: Optional[int] = None) -> IxpSimResult:
        """Run the saturated system and report the serviced rate.

        ``duration_ps`` defaults to the time for ~400 packets per engine
        in the unloaded model (enough for a stable steady-state mean).
        """
        if duration_ps is None:
            duration_ps = self.timing.default_duration_ps
        start = self.sim.now
        self.sim.run(until_ps=start + duration_ps)
        return IxpSimResult(
            num_queues=self.program.num_queues,
            num_engines=self.num_engines,
            multithreading=self.multithreading,
            packets=sum(self._done),
            duration_ps=self.sim.now - start,
            unit_utilization=self._unit.utilization,
            mean_controller_wait_cycles=self._unit.mean_wait_cycles,
            engine="reference",
        )


def simulate_ixp(num_queues: int, num_engines: int,
                 params: IxpParams = IxpParams(),
                 multithreading: bool = False,
                 duration_ps: Optional[int] = None,
                 engine: str = "fast") -> IxpSimResult:
    """One Table 2 cell: maximum serviced rate for a configuration.

    ``engine="fast"`` runs the DES-free :class:`IxpMachine`;
    ``"reference"`` runs :class:`IxpSystem` on the DES kernel, the
    machine's oracle.
    """
    if engine == "fast":
        return IxpMachine(num_queues, num_engines, params=params,
                          multithreading=multithreading).run(duration_ps)
    if engine != "reference":
        raise ValueError(f"unknown engine {engine!r} "
                         "(choose 'fast' or 'reference')")
    system = IxpSystem(num_queues, num_engines, params=params,
                       multithreading=multithreading)
    return system.run(duration_ps=duration_ps)
