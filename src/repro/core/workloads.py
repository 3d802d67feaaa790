"""Shared feeder definitions for the MMS load experiments.

The Table 5 load harness, the saturation headline and the overload
family each drive the MMS through port feeders.  Those feeders used to
be written against the DES kernel directly (``yield delay`` / ``yield
from mms.submit``); with the batched command-stream engine
(:mod:`repro.engines`) executing the same workloads kernel-free, the
feeder *behavior* must have exactly one definition or the two paths
would drift apart.

A feeder here is a plain generator of **micro-ops**:

* a positive ``int`` -- sleep that many picoseconds,
* a tuple ``(CommandType, flow, dst_flow, eop, length)`` -- submit that
  command to the feeder's port (blocking on port backpressure).

:func:`drive_port` adapts a micro-op generator onto the DES kernel (it
yields exactly what the historical inline feeders yielded, so the
reference event sequence is unchanged); the stream engine consumes the
same generators natively.  Time-dependent pacing reads the current
simulated time through ``now_fn``, which each execution path binds to
its own clock.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, Optional, Protocol, Tuple, Union

from repro.core.commands import Command, CommandType

#: Micro-op vocabulary (see module docstring).
FeederOp = Union[int, Tuple[CommandType, int, Optional[int], bool, int]]


class Counters(Protocol):
    """The counter store the overload feeders share: the slice of
    ``Dict[str, int]`` they use, so a plain dict or a checkpoint
    driver's taped view both fit."""

    def get(self, key: str, default: int, /) -> int: ...

    def __getitem__(self, key: str, /) -> int: ...

    def __setitem__(self, key: str, value: int, /) -> None: ...

#: The dequeue stream of the Table 5 harness lags the enqueue stream by
#: this many volleys, so a small per-flow backlog suffices.
LOAD_LAG_VOLLEYS = 16


def to_command(op: Tuple[CommandType, int, Optional[int], bool, int]
               ) -> Command:
    """Materialize a submit micro-op as a kernel :class:`Command`."""
    kind, flow, dst, eop, length = op
    return Command(type=kind, flow=flow, dst_flow=dst, eop=eop,
                   length=length)


def drive_port(mms, port: int, ops: Iterator[FeederOp]):
    """Kernel adapter: run a micro-op generator as a port process.

    Yields exactly the delays and ``submit`` handshakes the inline
    feeders used to, so swapping them for shared micro-op generators
    leaves the reference kernel's event sequence untouched.
    """
    for op in ops:
        if type(op) is int:
            yield op
        else:
            yield from mms.submit(port, to_command(op))


# ==================================================== Table 5 load feed

def load_feed_ops(now_fn: Callable[[], int], port: int, enqueue: bool,
                  phase: int, num_volleys: int, volley_period_ps: int,
                  active_flows: int, burst_len: int, burst_prob: float,
                  seed: int) -> Iterator[FeederOp]:
    """One Table 5 port: synchronized volleys with geometric bursts.

    With probability ``burst_prob`` a port emits ``burst_len``
    back-to-back commands and skips the corresponding later volleys
    (same average rate, burstier arrivals).  Enqueue ports walk even or
    odd flows by ``phase``; dequeue ports follow ``LOAD_LAG_VOLLEYS``
    behind so the prefilled backlog never underflows.
    """
    rng = random.Random(seed + port)
    enq = CommandType.ENQUEUE
    deq = CommandType.DEQUEUE
    i = 0       # command index (determines flow and rate accounting)
    volley = 0  # wall-clock volley slot
    while i < num_volleys:
        target = volley * volley_period_ps
        now = now_fn()
        if target > now:
            yield target - now
        emit = burst_len if rng.random() < burst_prob else 1
        if emit > num_volleys - i:
            emit = num_volleys - i
        for k in range(emit):
            if enqueue:
                yield (enq, (2 * (i + k) + phase) % active_flows,
                       None, True, 64)
            else:
                yield (deq,
                       (2 * (i + k - LOAD_LAG_VOLLEYS) + phase)
                       % active_flows,
                       None, True, 64)
        i += emit
        volley += emit  # a burst consumes its later volley slots


# ================================================== saturation feed

def saturation_feed_ops(enqueue: bool, phase: int, per_port: int,
                        active_flows: int) -> Iterator[FeederOp]:
    """One headline-saturation port: back-to-back commands, maximum
    rate (the port FIFO's backpressure is the only pacing)."""
    kind = CommandType.ENQUEUE if enqueue else CommandType.DEQUEUE
    for i in range(per_port):
        yield (kind, (2 * i + phase) % active_flows, None, True, 64)


# ==================================================== overload feeds

def overload_feed_ops(shape: str, port: int, per_port: int,
                      active_flows: int, enq_period_ps: int,
                      counters: Counters) -> Iterator[FeederOp]:
    """One overload ingress port, shaped per the scenario family.

    See :mod:`repro.policies.harness` for the shape semantics; the
    feeder marks itself done in ``counters`` so the drain knows when the
    backlog can only shrink.
    """
    enq = CommandType.ENQUEUE
    for i in range(per_port):
        if shape == "burst":
            # volleys of 12 back-to-back arrivals, long idle gaps: the
            # aggregate burst overflows the buffer against the backlog,
            # then the drain catches up
            if i % 12 == 0 and i > 0:
                yield 14 * enq_period_ps
            yield (enq, (3 * i + port) % active_flows, None, True, 64)
        elif shape == "sustained":
            yield enq_period_ps
            yield (enq, (3 * i + port) % active_flows, None, True, 64)
        else:  # incast: flows converge with 3-segment packets, then a
            # short gap lets the drain work -- many short queues rather
            # than burst's few long ones
            seg = i % 3
            if seg == 0 and i > 0 and (i // 3) % 4 == 0:
                yield 10 * enq_period_ps
            yield (enq, (3 * (i // 3) + port) % active_flows,
                   None, seg == 2, 64)
    counters["feeders_done"] = counters.get("feeders_done", 0) + 1


def overload_drain_ops(queued_packets: Callable[[int], int],
                       active_flows: int, drain_period_ps: int,
                       counters: Counters) -> Iterator[FeederOp]:
    """The overload egress port: slow round-robin over backlogged
    flows; terminates once the feeders finished and the backlog is
    gone."""
    deq = CommandType.DEQUEUE
    flow = 0
    while True:
        yield drain_period_ps
        for probe in range(active_flows):
            f = (flow + probe) % active_flows
            if queued_packets(f) > 0:
                flow = (f + 1) % active_flows
                yield (deq, f, None, True, 64)
                counters["dequeued"] += 1
                break
        else:
            if counters.get("feeders_done", 0) == 3:
                return
