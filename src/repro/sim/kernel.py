"""The discrete-event simulation kernel.

A :class:`Simulator` owns an event schedule keyed by ``(time_ps,
sequence)``.  Model behaviour is written as Python generator functions
("processes") that ``yield`` one of:

* an ``int`` -- advance simulated time by that many picoseconds,
* an :class:`Event` -- suspend until the event is triggered; the value the
  event was triggered with becomes the value of the ``yield`` expression,
* a :class:`Process` -- join: suspend until that process terminates; its
  return value becomes the value of the ``yield`` expression,
* ``None`` -- yield the scheduler without advancing time (the process is
  resumed after already-scheduled same-time events).

This is the same programming model as SimPy, reimplemented minimally so
the repo has no runtime dependencies and full control over determinism:
ties are broken by a monotonically increasing sequence number, so two
runs of the same model with the same seeds produce identical traces.

Scheduling
----------

The schedule is one ``heapq`` of ``(time_ps, sequence, process, value)``
entries, so within one timestamp processes resume in push order.
Entries whose process already finished are skipped lazily on pop
(counted in :attr:`Simulator.stale_skips`).  The kernel is the
executable specification the DES-free machines (:mod:`repro.engines`,
:mod:`repro.ixp.machine`) are checked against.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

ProcessBody = Generator[Any, Any, Any]


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (negative delays, double trigger...)."""


class Event:
    """A one-shot synchronization point.

    Processes wait on an event by yielding it; :meth:`trigger` wakes all
    waiters (in wait order) and records the value.  Waiting on an already
    triggered event resumes immediately with the recorded value.
    """

    __slots__ = ("sim", "name", "_waiters", "triggered", "value")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._waiters: list[Process] = []
        self.triggered = False
        self.value: Any = None

    def trigger(self, value: Any = None) -> None:
        """Fire the event, waking every waiting process at the current time."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self.sim._schedule_resume(proc, value)

    def _add_waiter(self, proc: "Process") -> None:
        if self.triggered:
            self.sim._schedule_resume(proc, self.value)
        else:
            self._waiters.append(proc)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "triggered" if self.triggered else f"{len(self._waiters)} waiters"
        return f"Event({self.name!r}, {state})"


class Process:
    """A running generator, owned by a :class:`Simulator`.

    A process is itself waitable: yielding a process from another process
    suspends the caller until the callee returns, and evaluates to the
    callee's return value.
    """

    __slots__ = ("sim", "name", "_body", "done", "result", "_completion")

    def __init__(self, sim: "Simulator", body: ProcessBody, name: str) -> None:
        self.sim = sim
        self.name = name
        self._body = body
        self.done = False
        self.result: Any = None
        self._completion = Event(sim, name=f"{name}.done")

    @property
    def completion(self) -> Event:
        """Event triggered (with the return value) when the process ends."""
        return self._completion

    def _step(self, send_value: Any) -> None:
        try:
            command = self._body.send(send_value)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            self._completion.trigger(stop.value)
            return
        self.sim._dispatch(self, command)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.done else "running"
        return f"Process({self.name!r}, {state})"


class Simulator:
    """Single-``heapq`` discrete-event simulator over integer picosecond
    time; ties at one timestamp resume in push (sequence) order."""

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[tuple[int, int, Process, Any]] = []
        self._seq = 0
        #: entries dropped on pop because their process had already
        #: finished (lazy deletion -- they are never re-sifted)
        self.stale_skips = 0
        self._processes: list[Process] = []

    # ------------------------------------------------------------------ API

    def spawn(self, body: ProcessBody, name: str = "proc") -> Process:
        """Create a process from a generator and schedule its first step now."""
        proc = Process(self, body, name=f"{name}#{self._seq}")
        self._processes.append(proc)
        self._push(self.now, proc, None)
        return proc

    def event(self, name: str = "") -> Event:
        """Create a fresh (untriggered) event bound to this simulator."""
        return Event(self, name)

    def run(self, until_ps: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the schedule empties, ``until_ps`` is reached, or
        ``max_events`` steps executed.  Returns the final simulated time."""
        steps = 0
        while self._heap:
            when, _seq, proc, value = self._heap[0]
            if until_ps is not None and when > until_ps:
                self.now = until_ps
                return self.now
            heapq.heappop(self._heap)
            self.now = when
            if proc.done:
                self.stale_skips += 1
                continue
            proc._step(value)
            steps += 1
            if max_events is not None and steps >= max_events:
                break
        if until_ps is not None and not self._heap:
            self.now = max(self.now, until_ps)
        return self.now

    def run_all(self, limit_ps: int = 10 * 10**12) -> int:
        """Run to completion with a safety time limit (default 10 s)."""
        end = self.run(until_ps=limit_ps)
        if self._heap:
            raise SimulationError(
                f"simulation did not quiesce before {limit_ps} ps "
                f"({len(self._heap)} events pending)"
            )
        return end

    # ----------------------------------------------------------- internals

    def _push(self, when: int, proc: Process, value: Any) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, proc, value))

    def _schedule_resume(self, proc: Process, value: Any) -> None:
        self._push(self.now, proc, value)

    def _dispatch(self, proc: Process, command: Any) -> None:
        if command is None:
            self._push(self.now, proc, None)
        elif isinstance(command, int):
            if command < 0:
                raise SimulationError(
                    f"process {proc.name!r} yielded a negative delay {command}"
                )
            self._push(self.now + command, proc, None)
        elif isinstance(command, Event):
            command._add_waiter(proc)
        elif isinstance(command, Process):
            command._completion._add_waiter(proc)
        else:
            raise SimulationError(
                f"process {proc.name!r} yielded unsupported command "
                f"{command!r} (expected int delay, Event, Process or None)"
            )


def all_of(sim: Simulator, events: Iterable[Event]) -> Event:
    """Return an event that triggers when every event in ``events`` has.

    The combined event's value is the list of individual values, in the
    order the events were given.
    """
    events = list(events)
    combined = sim.event(name="all_of")
    if not events:
        combined.trigger([])
        return combined

    def waiter() -> ProcessBody:
        values = []
        for ev in events:
            value = yield ev
            values.append(value)
        combined.trigger(values)

    sim.spawn(waiter(), name="all_of")
    return combined


def call_at(sim: Simulator, when_ps: int, fn: Callable[[], None]) -> Process:
    """Schedule a plain callback at an absolute simulated time."""
    if when_ps < sim.now:
        raise SimulationError(f"call_at({when_ps}) is in the past (now={sim.now})")

    def body() -> ProcessBody:
        yield when_ps - sim.now
        fn()

    return sim.spawn(body(), name="call_at")
