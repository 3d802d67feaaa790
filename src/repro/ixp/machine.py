"""The DES-free IXP1200 machine.

:class:`IxpMachine` replays the closed loop of
:class:`~repro.ixp.system.IxpSystem` -- every microengine (or hardware
thread) does its per-packet work, then queues its blocking accesses at
the regime's shared memory unit -- without the discrete-event kernel.
The generator bodies become a handful of resume points ("wake kinds")
over per-context scalars, the two FIFO :class:`~repro.sim.Resource` s
(the unit port, plus the per-engine pipeline when multithreading is on)
become a busy flag and a waiter deque each, and the whole run is one
loop over a ``(time_ps, seq, kind, ctx)`` wake heap.

The machine keeps the kernel's ordering contract, so every
:class:`IxpSimResult` field is *equal* to the heapq generator model:

* spawn order is first-step order at t=0;
* every ``yield <int>`` and every gate trigger is one push with
  ``seq += 1``;
* a release that hands the port or pipeline to a waiter resumes that
  waiter at the release instant, after the wakes already queued for it;
* an immediate grant runs in the same step, without a yield;
* ``run(until)`` stops at the first wake strictly past the horizon.

Nothing in the loop draws a random number, so a saturated run settles
into a repeating period.  At each ``_WORK_DONE`` of context 0 the
machine keys its state relative to ``now`` -- the wake heap in pop
order, the port and pipeline flags and waiters, ``left``, and the
access-start and busy-change times -- and stores the accumulators
beside it.  On the first repeat, with period ``T`` since the matching
snapshot, it jumps ``(until - now) // T - 1`` whole periods: every
pending time shifts by the same amount (which keeps the heap's order)
and each accumulator gains that many per-period deltas.  The last
period or more is stepped, so the horizon and its tie rules are the
stepped run's.  A run whose transient outlasts the horizon (1024
queues on six multithreaded engines) steps throughout.

The statistics are integers so that a jump is exact: the controller
wait is a picosecond sum divided once at the end (the reference
:class:`~repro.ixp.memory_units.SharedMemoryUnit` keeps the same sum),
and the port busy integral is the integer form of
:meth:`repro.sim.stats.TimeWeighted.record`'s, which stays exact in its
float (``tests/ixp/test_machine.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Deque, List, Optional, Tuple

from repro.ixp.params import IxpParams
from repro.ixp.program import IxpTiming, ixp_timing
from repro.sim.clock import SEC

# Wake kinds: where a context resumes.
_START = 0          # first step at t=0
_WORK_DONE = 1      # per-packet work finished
_PORT_GRANTED = 2   # a port release handed the unit to this context
_SERVICE_DONE = 3   # controller occupancy over: release the port
_OVERHEAD_DONE = 4  # engine-side access cost paid
_ENGINE_TOP = 5     # pipeline granted before the packet's work
_ENGINE_MID = 6     # pipeline granted after an access
_CTX_DONE = 7       # context switch back onto the pipeline paid


@dataclass
class IxpSimResult:
    """Outcome of one Table 2 cell."""

    num_queues: int
    num_engines: int
    multithreading: bool
    packets: int
    duration_ps: int
    unit_utilization: float
    mean_controller_wait_cycles: float
    #: Engine the run used: "fast" = the DES-free :class:`IxpMachine`,
    #: "reference" = :class:`~repro.ixp.system.IxpSystem` on the DES
    #: kernel.  Simulated results are identical.
    engine: str = "fast"

    @property
    def pps(self) -> float:
        if self.duration_ps == 0:
            return 0.0
        return self.packets * SEC / self.duration_ps

    @property
    def kpps(self) -> float:
        return self.pps / 1e3

    @property
    def mpps(self) -> float:
        return self.pps / 1e6

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IxpSimResult(q={self.num_queues}, engines={self.num_engines}, "
            f"{self.kpps:.0f} Kpps)"
        )


class IxpMachine:
    """The modelled IXP1200 as a kernel-free replay of :class:`IxpSystem`."""

    def __init__(self, num_queues: int, num_engines: int,
                 params: IxpParams = IxpParams(),
                 multithreading: bool = False) -> None:
        self.timing: IxpTiming = ixp_timing(num_queues, num_engines, params)
        self.num_engines = num_engines
        self.multithreading = multithreading
        self.threads_per_engine = params.threads_per_engine

    def run(self, duration_ps: Optional[int] = None) -> IxpSimResult:
        """Run the saturated system for ``duration_ps`` (default:
        :attr:`IxpTiming.default_duration_ps`) and report the rate."""
        timing = self.timing
        until = (timing.default_duration_ps if duration_ps is None
                 else duration_ps)
        work_ps = timing.work_ps
        service_ps = timing.service_ps
        overhead_ps = timing.overhead_ps
        ctx_ps = timing.ctx_ps
        accesses = timing.accesses
        threaded = self.multithreading
        threads = self.threads_per_engine if threaded else 1
        contexts = self.num_engines * threads
        owner = [c // threads for c in range(contexts)]
        done = [0] * self.num_engines
        left = [0] * contexts   # accesses still to issue this packet
        t0 = [0] * contexts     # start of the pending port acquire
        # unit port: FIFO Resource(slots=1)
        port_busy = False
        port_waiters: Deque[int] = deque()
        busy_value = 0
        busy_last = 0
        integral = 0
        wait_count = 0
        wait_total = 0
        # per-engine pipeline (multithreaded mode)
        pipe_busy = [False] * self.num_engines
        pipe_waiters: List[Deque[Tuple[int, int]]] = [
            deque() for _ in range(self.num_engines)]
        # state key -> accumulators at context 0's work completions,
        # until the first repeat (see the module docstring)
        seen: Optional[dict] = {}

        # spawn: one push per context, in spawn order
        heap = [(0, c + 1, _START, c) for c in range(contexts)]
        seq = contexts
        while heap and heap[0][0] <= until:
            now, _, kind, c = heappop(heap)
            if kind == _SERVICE_DONE:
                # port.release(), then yield overhead
                integral += now - busy_last
                busy_last = now
                if port_waiters:
                    seq += 1
                    heappush(heap, (now, seq, _PORT_GRANTED,
                                    port_waiters.popleft()))
                else:
                    port_busy = False
                    busy_value = 0
                seq += 1
                heappush(heap, (now + overhead_ps, seq, _OVERHEAD_DONE, c))
                continue
            if kind == _PORT_GRANTED:
                wait_count += 1
                wait_total += now - t0[c]
                seq += 1
                heappush(heap, (now + service_ps, seq, _SERVICE_DONE, c))
                continue
            if kind == _OVERHEAD_DONE:
                if threaded:
                    # engine.acquire(), then yield ctx
                    e = owner[c]
                    if pipe_busy[e]:
                        pipe_waiters[e].append((c, _ENGINE_MID))
                    else:
                        pipe_busy[e] = True
                        seq += 1
                        heappush(heap, (now + ctx_ps, seq, _CTX_DONE, c))
                    continue
            elif kind == _WORK_DONE:
                if c == 0 and seen is not None:
                    key = (tuple([(t - now, k, w)
                                  for t, _, k, w in sorted(heap)]),
                           port_busy, tuple(port_waiters), tuple(left),
                           tuple([now - t for t in t0]), now - busy_last,
                           tuple(pipe_busy), tuple(map(tuple, pipe_waiters)))
                    prev = seen.get(key)
                    if prev is None:
                        seen[key] = (now, done[:], wait_count, wait_total,
                                     integral)
                    elif now > prev[0]:  # a zero period cannot be jumped
                        period = now - prev[0]
                        jumps = (until - now) // period - 1
                        if jumps > 0:
                            shift = jumps * period
                            heap = [(t + shift, s, k, w)
                                    for t, s, k, w in heap]
                            t0 = [t + shift for t in t0]
                            busy_last += shift
                            now += shift
                            done = [d + jumps * (d - d0)
                                    for d, d0 in zip(done, prev[1])]
                            wait_count += jumps * (wait_count - prev[2])
                            wait_total += jumps * (wait_total - prev[3])
                            integral += jumps * (integral - prev[4])
                        seen = None
                left[c] = accesses
            elif kind == _ENGINE_MID:
                seq += 1
                heappush(heap, (now + ctx_ps, seq, _CTX_DONE, c))
                continue
            elif kind == _START and threaded:
                e = owner[c]
                if pipe_busy[e]:
                    pipe_waiters[e].append((c, _ENGINE_TOP))
                else:
                    pipe_busy[e] = True
                    seq += 1
                    heappush(heap, (now + work_ps, seq, _WORK_DONE, c))
                continue
            elif kind != _CTX_DONE:  # _ENGINE_TOP, or _START single-threaded
                seq += 1
                heappush(heap, (now + work_ps, seq, _WORK_DONE, c))
                continue

            # Between accesses: after the work, after an access
            # (single-threaded) or after the context switch back.
            if threaded:
                e = owner[c]
                waiters = pipe_waiters[e]
                if waiters:
                    w, resume = waiters.popleft()
                    seq += 1
                    heappush(heap, (now, seq, resume, w))
                else:
                    pipe_busy[e] = False
            if left[c]:
                left[c] -= 1
                t0[c] = now
                if port_busy:
                    port_waiters.append(c)
                else:  # immediate grant: busy.record(1), wait.record(0)
                    port_busy = True
                    busy_value = 1
                    busy_last = now
                    wait_count += 1
                    seq += 1
                    heappush(heap, (now + service_ps, seq, _SERVICE_DONE, c))
                continue
            e = owner[c]
            done[e] += 1
            if threaded:
                if pipe_busy[e]:
                    pipe_waiters[e].append((c, _ENGINE_TOP))
                    continue
                pipe_busy[e] = True
            seq += 1
            heappush(heap, (now + work_ps, seq, _WORK_DONE, c))

        if until > 0:
            utilization = (integral + busy_value * (until - busy_last)) / until
        else:
            utilization = busy_value
        return IxpSimResult(
            num_queues=timing.program.num_queues,
            num_engines=self.num_engines,
            multithreading=threaded,
            packets=sum(done),
            duration_ps=until,
            unit_utilization=utilization,
            mean_controller_wait_cycles=(
                wait_total / (wait_count * timing.period_ps)
                if wait_count else 0.0),
            engine="fast",
        )
