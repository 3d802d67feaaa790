"""The one-pass result folds equal the two-breakdown fold they replace.

``assemble_load_result`` and ``assemble_saturation_result`` fold a
finished run's latency records into an ``MmsLoadResult`` in one pass
with inline Welford mean steps.  The oracle below is the fold they
replaced -- every record through a full-run ``Breakdown`` (one
``RunningStats`` per column), the warm ones through a second -- kept
here so random record lists can pin
the results ``==``, not approximately equal: the warm-window slice, the
empty-window fallback (no warm-up, a window exactly used up by the
warm-up, a run shorter than the warm-up), the elapsed-time anchor and
the probe replay.
"""

from hypothesis import given, strategies as st

from repro.core.commands import CommandType
from repro.core.mms import MmsLoadResult
from repro.engines.harnesses import (
    assemble_load_result,
    assemble_saturation_result,
)
from repro.sim.clock import Clock
from repro.sim.stats import RunningStats

CLOCK = Clock(125)
HORIZON = 10**12


class FakeMachine:
    """The slice of the driver surface the folds read: records in
    delivery order (with the opcode on request), the clock and the
    executed count."""

    def __init__(self, records, commands_executed=0):
        self._records = records
        self.clock = CLOCK
        self.commands_executed = commands_executed

    def latency_records(self, horizon_ps, with_ops=False):
        if with_ops:
            return list(self._records)
        return [r[:5] for r in self._records]


class Breakdown:
    """Per-column running means of latency records (the Table 5
    aggregation the one-pass folds replaced)."""

    def __init__(self):
        self.fifo = RunningStats()
        self.execution = RunningStats()
        self.data = RunningStats()
        self.end_to_end = RunningStats()

    def record_parts(self, fifo_c, exec_c, data_c, e2e_c):
        self.fifo.add(fifo_c)
        self.execution.add(exec_c)
        self.data.add(data_c)
        self.end_to_end.add(e2e_c)

    @property
    def count(self):
        return self.fifo.count


class RecordingProbe:
    def __init__(self):
        self.records = []

    def on_record(self, time_ps, op, fifo_c, exec_c, data_c, e2e_c):
        self.records.append((time_ps, fifo_c, exec_c, data_c, e2e_c, op))


def oracle_load(records, warmup_volleys, offered_gbps):
    breakdown = Breakdown()
    warm = Breakdown()
    t0 = None
    t_last = 0
    boundary = warmup_volleys * 4
    for time_ps, fifo_c, exec_c, data_c, e2e_c, _op in records:
        breakdown.record_parts(fifo_c, exec_c, data_c, e2e_c)
        t_last = time_ps
        if breakdown.count == boundary:
            t0 = time_ps
        if t0 is not None and breakdown.count > boundary:
            warm.record_parts(fifo_c, exec_c, data_c, e2e_c)
    use = warm if warm.count else breakdown
    return MmsLoadResult(
        offered_gbps=offered_gbps,
        completed_ops=use.count,
        elapsed_ps=t_last - (t0 or 0),
        fifo_cycles=use.fifo.mean,
        execution_cycles=use.execution.mean,
        data_cycles=use.data.mean,
        end_to_end_cycles=use.end_to_end.mean,
    )


def oracle_saturation(records, commands_executed):
    breakdown = Breakdown()
    for _time_ps, fifo_c, exec_c, data_c, e2e_c, _op in records:
        breakdown.record_parts(fifo_c, exec_c, data_c, e2e_c)
    return MmsLoadResult(
        offered_gbps=float("inf"),
        completed_ops=breakdown.count,
        elapsed_ps=round(commands_executed * breakdown.execution.mean
                         * CLOCK.period_ps),
        fifo_cycles=breakdown.fifo.mean,
        execution_cycles=breakdown.execution.mean,
        data_cycles=breakdown.data.mean,
        end_to_end_cycles=breakdown.end_to_end.mean,
    )


CYCLES = st.floats(min_value=0.0, max_value=5e3, allow_nan=False,
                   allow_infinity=False)


@st.composite
def record_lists(draw, min_size=0, max_size=60):
    """Delivery-ordered records: non-decreasing times (ties allowed,
    time 0 included), arbitrary non-negative cycle counts."""
    steps = draw(st.lists(st.integers(0, 50_000), min_size=min_size,
                          max_size=max_size))
    records = []
    t = 0
    for step in steps:
        t += step
        records.append((t, draw(CYCLES), draw(CYCLES), draw(CYCLES),
                        draw(CYCLES),
                        draw(st.sampled_from(list(CommandType)))))
    return records


@st.composite
def load_cases(draw):
    """``(records, warmup_volleys)`` over the warm-window edge cases:
    no warm-up, a warm-up that uses up every record exactly, a run
    shorter than the warm-up, a warm-up that leaves a warm window, and
    any warm-up at all."""
    mode = draw(st.sampled_from(["zero", "exact", "short", "warm", "any"]))
    records = draw(record_lists(min_size=5 if mode == "warm" else 0))
    n = len(records)
    if mode == "warm":
        return records, draw(st.integers(1, (n - 1) // 4))
    if mode == "zero":
        return records, 0
    if mode == "exact":
        records = records[:n - n % 4]
        return records, len(records) // 4
    if mode == "short":
        return records, n // 4 + 1
    return records, draw(st.integers(0, n // 4 + 2))


@given(load_cases(), st.floats(0.1, 10.0), st.booleans())
def test_load_fold_equals_two_breakdown_oracle(case, offered, probed):
    records, warmup = case
    probe = RecordingProbe() if probed else None
    got = assemble_load_result(FakeMachine(records), probe, HORIZON,
                               warmup, offered)
    assert got == oracle_load(records, warmup, offered)
    if probed:
        assert probe.records == records


@given(record_lists(), st.integers(0, 10_000), st.booleans())
def test_saturation_fold_equals_breakdown_oracle(records, executed,
                                                 probed):
    probe = RecordingProbe() if probed else None
    got = assemble_saturation_result(FakeMachine(records, executed),
                                     probe, HORIZON)
    assert got == oracle_saturation(records, executed)
    if probed:
        assert probe.records == records


def test_warm_window_skips_the_warmup_records():
    """Two warm-up volleys (8 records) then a 3-record warm window: the
    means cover the window alone, timed from the last warm-up record."""
    records = [(1000 * (i + 1), 100.0, 10.0, 30.0, 140.0,
                CommandType.DEQUEUE) for i in range(8)]
    records += [(9000, 1.0, 11.0, 29.0, 41.0, CommandType.ENQUEUE),
                (9500, 2.0, 12.0, 30.0, 44.0, CommandType.ENQUEUE),
                (9900, 3.0, 10.0, 31.0, 44.0, CommandType.READ)]
    got = assemble_load_result(FakeMachine(records), None, HORIZON, 2, 4.0)
    assert (got.completed_ops, got.elapsed_ps) == (3, 9900 - 8000)
    assert (got.fifo_cycles, got.execution_cycles, got.data_cycles,
            got.end_to_end_cycles) == (2.0, 11.0, 30.0, 43.0)
    assert got == oracle_load(records, 2, 4.0)


def test_warmup_exactly_consumed_times_from_the_last_record():
    """n == warmup * 4: the warm window is empty, so the row folds every
    record, and elapsed runs from the last warm-up record (itself)."""
    records = [(1000 * (i + 1), 1.0, 10.0, 30.0, 45.0, CommandType.ENQUEUE)
               for i in range(8)]
    got = assemble_load_result(FakeMachine(records), None, HORIZON, 2, 4.0)
    assert got.completed_ops == 8
    assert got.elapsed_ps == 0
    assert got == oracle_load(records, 2, 4.0)


def test_empty_run_folds_to_zeros():
    got = assemble_load_result(FakeMachine([]), None, HORIZON, 3, 4.0)
    assert (got.completed_ops, got.elapsed_ps, got.fifo_cycles,
            got.end_to_end_cycles) == (0, 0, 0.0, 0.0)
    assert got == oracle_load([], 3, 4.0)
