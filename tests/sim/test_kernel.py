"""Tests for the discrete-event kernel: processes, events, ordering."""

import pytest

from repro.sim import Simulator, SimulationError
from repro.sim.kernel import all_of, call_at


def test_single_process_advances_time():
    sim = Simulator()
    log = []

    def body():
        log.append(sim.now)
        yield 100
        log.append(sim.now)
        yield 250
        log.append(sim.now)

    sim.spawn(body())
    sim.run()
    assert log == [0, 100, 350]

def test_process_return_value_via_join():
    sim = Simulator()
    results = []

    def worker():
        yield 10
        return 42

    def parent():
        proc = sim.spawn(worker(), name="worker")
        value = yield proc
        results.append((sim.now, value))

    sim.spawn(parent())
    sim.run()
    assert results == [(10, 42)]

def test_join_already_finished_process():
    sim = Simulator()
    seen = []

    def worker():
        yield 5
        return "done"

    def parent():
        proc = sim.spawn(worker())
        yield 50  # worker finishes long before we join
        value = yield proc
        seen.append((sim.now, value))

    sim.spawn(parent())
    sim.run()
    assert seen == [(50, "done")]

def test_event_wakes_all_waiters_with_value():
    sim = Simulator()
    ev = sim.event("go")
    woken = []

    def waiter(tag):
        value = yield ev
        woken.append((tag, sim.now, value))

    def trigger():
        yield 30
        ev.trigger("payload")

    sim.spawn(waiter("a"))
    sim.spawn(waiter("b"))
    sim.spawn(trigger())
    sim.run()
    assert woken == [("a", 30, "payload"), ("b", 30, "payload")]

def test_wait_on_triggered_event_resumes_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.trigger(7)
    seen = []

    def body():
        value = yield ev
        seen.append((sim.now, value))

    sim.spawn(body())
    sim.run()
    assert seen == [(0, 7)]

def test_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.trigger()
    with pytest.raises(SimulationError):
        ev.trigger()

def test_same_time_events_fire_in_spawn_order():
    sim = Simulator()
    order = []

    def body(tag):
        yield 100
        order.append(tag)

    for tag in ("first", "second", "third"):
        sim.spawn(body(tag))
    sim.run()
    assert order == ["first", "second", "third"]

def test_yield_none_reschedules_after_same_time_events():
    sim = Simulator()
    order = []

    def yielder():
        order.append("yielder-start")
        yield None
        order.append("yielder-resumed")

    def other():
        order.append("other")
        yield 0

    sim.spawn(yielder())
    sim.spawn(other())
    sim.run()
    assert order.index("other") < order.index("yielder-resumed")

def test_negative_delay_raises():
    sim = Simulator()

    def body():
        yield -5

    sim.spawn(body())
    with pytest.raises(SimulationError):
        sim.run()

def test_negative_delay_raises_under_run_until():
    """The until_ps bound must not mask the negative-delay guard."""
    sim = Simulator()

    def body():
        yield 10
        yield -1

    sim.spawn(body())
    with pytest.raises(SimulationError):
        sim.run(until_ps=1000)

def test_negative_delay_raises_mid_model():
    """A later negative delay fails even after valid same-time traffic."""
    sim = Simulator()

    def good():
        for _ in range(5):
            yield 0

    def bad():
        yield None
        yield -7

    sim.spawn(good())
    sim.spawn(bad())
    with pytest.raises(SimulationError):
        sim.run(until_ps=100)

def test_stale_entries_skipped_lazily():
    """Resumes for already-finished processes are dropped on pop (lazy
    deletion) and counted, never executed."""
    sim = Simulator()
    ran = []

    def body():
        ran.append(sim.now)
        yield 10

    proc = sim.spawn(body())
    sim.run()
    assert proc.done
    # schedule a resume for the dead process directly (kernel internals)
    sim._push(sim.now + 5, proc, None)
    assert len(sim._heap) == 1
    sim.run()
    assert sim.stale_skips == 1
    assert len(sim._heap) == 0
    assert ran == [0]

def test_bad_yield_type_raises():
    sim = Simulator()

    def body():
        yield "not a command"

    sim.spawn(body())
    with pytest.raises(SimulationError):
        sim.run()

def test_run_until_stops_clock_at_bound():
    sim = Simulator()

    def body():
        while True:
            yield 1000

    sim.spawn(body())
    sim.run(until_ps=5500)
    assert sim.now == 5500

def test_run_all_raises_if_not_quiescent():
    sim = Simulator()

    def forever():
        while True:
            yield 1_000_000

    sim.spawn(forever())
    with pytest.raises(SimulationError):
        sim.run_all(limit_ps=10_000_000)

def test_all_of_collects_values_in_order():
    sim = Simulator()
    evs = [sim.event(f"e{i}") for i in range(3)]
    seen = []

    def trigger(i, delay):
        yield delay
        evs[i].trigger(i * 10)

    def waiter():
        values = yield all_of(sim, evs)
        seen.append((sim.now, values))

    # trigger out of order: e2 at 10, e0 at 20, e1 at 30
    sim.spawn(trigger(2, 10))
    sim.spawn(trigger(0, 20))
    sim.spawn(trigger(1, 30))
    sim.spawn(waiter())
    sim.run()
    assert seen == [(30, [0, 10, 20])]

def test_all_of_empty_triggers_immediately():
    sim = Simulator()
    seen = []

    def waiter():
        values = yield all_of(sim, [])
        seen.append(values)

    sim.spawn(waiter())
    sim.run()
    assert seen == [[]]

def test_call_at_runs_callback_at_time():
    sim = Simulator()
    hits = []
    call_at(sim, 123, lambda: hits.append(sim.now))
    sim.run()
    assert hits == [123]

def test_call_at_past_raises():
    sim = Simulator()

    def body():
        yield 100
        call_at(sim, 50, lambda: None)

    sim.spawn(body())
    with pytest.raises(SimulationError):
        sim.run()

def test_determinism_two_identical_runs():
    def build():
        sim = Simulator()
        trace = []

        def ping(tag, period):
            while sim.now < 1000:
                trace.append((sim.now, tag))
                yield period

        sim.spawn(ping("a", 70))
        sim.spawn(ping("b", 110))
        sim.run(until_ps=1000)
        return trace

    assert build() == build()
