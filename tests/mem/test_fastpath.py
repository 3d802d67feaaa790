"""Engine equivalence for the batched DDR fast path.

The batched engine must produce results *field-for-field identical* to
the reference generator/DdrModel walk -- same RNG bit stream, same issue
slots, same stall decomposition -- across bank counts, seeds, history
depths and both ablation flags.  ``ScheduleResult`` is a dataclass, so
``==`` compares every field including the per-port issue counts.  The
fast schedulers must also leave a caller's RNG exactly where single
``randrange`` calls would, and both engines must reject the same bad
cells instead of hanging.
"""

import random
import signal
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem import (
    DdrTiming,
    fast_reordering,
    fast_serializing,
    fast_throughput_loss,
    simulate_throughput_loss,
)
from repro.mem.fastpath import bank_draws
from repro.scenarios import Runner

#: 2, 3 and 12 reject draws at non-power-of-two rates.
BANKS = (1, 2, 3, 4, 8, 12, 16)

#: Access counts around the 4096-word draw round.
CHUNK_EDGE_ACCESSES = (0, 1, 4095, 4096, 4097)


@pytest.mark.parametrize("optimized", (False, True))
@pytest.mark.parametrize("rw", (False, True))
@pytest.mark.parametrize("banks", BANKS)
def test_fast_engine_bit_identical(banks, optimized, rw):
    kw = dict(num_banks=banks, optimized=optimized, model_rw_turnaround=rw,
              num_accesses=4000, seed=2005)
    ref = simulate_throughput_loss(engine="reference", **kw)
    fast = simulate_throughput_loss(engine="fast", **kw)
    assert fast == ref
    assert fast.loss == ref.loss

@pytest.mark.parametrize("seed", (0, 1, 42, 2005))
def test_fast_engine_seed_sweep(seed):
    kw = dict(num_banks=8, optimized=True, model_rw_turnaround=True,
              num_accesses=3000, seed=seed)
    assert (simulate_throughput_loss(engine="fast", **kw)
            == simulate_throughput_loss(engine="reference", **kw))

@pytest.mark.parametrize("history_depth", (0, 1, 2, 3))
def test_fast_engine_history_ablation(history_depth):
    """Ablation A1: shallow scheduler history must degrade identically."""
    kw = dict(num_banks=8, optimized=True, model_rw_turnaround=True,
              num_accesses=3000, seed=11, history_depth=history_depth)
    assert (simulate_throughput_loss(engine="fast", **kw)
            == simulate_throughput_loss(engine="reference", **kw))

def test_fast_engine_rw_grouping_ablation():
    """Ablation A4: read/write grouping preference must match."""
    kw = dict(num_banks=8, optimized=True, model_rw_turnaround=True,
              num_accesses=3000, seed=11, prefer_same_type=True)
    assert (simulate_throughput_loss(engine="fast", **kw)
            == simulate_throughput_loss(engine="reference", **kw))

def test_fast_engine_custom_timing():
    timing = DdrTiming(access_cycle_ns=40, bank_busy_ns=240,
                       write_after_read_penalty_cycles=2)
    kw = dict(num_banks=8, optimized=True, model_rw_turnaround=True,
              num_accesses=2000, seed=3, timing=timing)
    assert (simulate_throughput_loss(engine="fast", **kw)
            == simulate_throughput_loss(engine="reference", **kw))

def test_fast_throughput_loss_direct_entry_point():
    assert (fast_throughput_loss(8, optimized=True, model_rw_turnaround=False,
                                 num_accesses=2000)
            == simulate_throughput_loss(8, optimized=True,
                                        model_rw_turnaround=False,
                                        num_accesses=2000,
                                        engine="reference"))

def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        simulate_throughput_loss(8, optimized=True, model_rw_turnaround=False,
                                 num_accesses=100, engine="turbo")

def test_run_table1_engines_agree():
    """The full Table 1 scenario returns identical values on both engines."""
    fast = Runner().run("table1", fast=True, engine="fast")
    ref = Runner().run("table1", fast=True, engine="reference")
    assert fast.metrics == ref.metrics


@pytest.mark.parametrize("optimized", (False, True))
@pytest.mark.parametrize("banks", (1, 3, 16))
@pytest.mark.parametrize("accesses", CHUNK_EDGE_ACCESSES)
def test_fast_engine_across_draw_rounds(accesses, banks, optimized):
    """Runs that end on, before and after a draw-round edge match."""
    kw = dict(num_banks=banks, optimized=optimized, model_rw_turnaround=True,
              num_accesses=accesses, seed=7)
    assert (simulate_throughput_loss(engine="fast", **kw)
            == simulate_throughput_loss(engine="reference", **kw))


@pytest.mark.parametrize("banks", (1, 2, 3, 12, 2**31 + 1, 2**32 - 1))
def test_bank_draws_are_the_randrange_stream(banks):
    rng, oracle = random.Random(5), random.Random(5)
    drawn = [b for chunk in bank_draws(rng, banks, 9000) for b in chunk]
    assert drawn == [oracle.randrange(banks) for _ in range(9000)]
    assert rng.getstate() == oracle.getstate()


@pytest.mark.parametrize("banks", (1, 3, 8))
@pytest.mark.parametrize("accesses", CHUNK_EDGE_ACCESSES)
def test_fast_engines_leave_the_rng_where_single_draws_do(accesses, banks):
    """Serializing consumes one draw per access; reordering adds the
    four initial port heads."""
    for run, draws in ((fast_serializing, accesses),
                       (fast_reordering, accesses + 4)):
        rng, oracle = random.Random(2005), random.Random(2005)
        run(banks, accesses, rng)
        for _ in range(draws):
            oracle.randrange(banks)
        assert rng.getstate() == oracle.getstate(), run.__name__


@settings(max_examples=100, deadline=None)
@given(banks=st.integers(1, 16), accesses=st.integers(0, 600),
       seed=st.integers(0, 2**16), optimized=st.booleans(),
       depth=st.integers(0, 8),
       busy_ns=st.sampled_from(range(40, 321, 40)),
       penalty=st.integers(0, 3), rw=st.booleans(), grouping=st.booleans())
def test_fast_engine_matches_reference_property(banks, accesses, seed,
                                                optimized, depth, busy_ns,
                                                penalty, rw, grouping):
    timing = DdrTiming(bank_busy_ns=busy_ns,
                       write_after_read_penalty_cycles=penalty)
    kw = dict(num_banks=banks, optimized=optimized, model_rw_turnaround=rw,
              num_accesses=accesses, seed=seed, timing=timing,
              history_depth=depth, prefer_same_type=grouping)
    assert (simulate_throughput_loss(engine="fast", **kw)
            == simulate_throughput_loss(engine="reference", **kw))


@contextmanager
def _deadline(seconds):
    """Fail with ``TimeoutError`` instead of hanging past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


#: (num_banks, num_accesses, the bad value the error must name)
BAD_CELLS = (
    (0, 100, 0),
    (-3, 100, -3),
    (2**32, 100, 2**32),
    (8, -5, -5),
)


@pytest.mark.parametrize("engine", ("fast", "reference"))
@pytest.mark.parametrize("optimized", (False, True))
@pytest.mark.parametrize("banks,accesses,bad", BAD_CELLS)
def test_bad_cell_rejected_by_both_engines(banks, accesses, bad, optimized,
                                           engine):
    with _deadline(10), pytest.raises(ValueError, match=f"got {bad}$"):
        simulate_throughput_loss(banks, optimized=optimized,
                                 model_rw_turnaround=True,
                                 num_accesses=accesses, engine=engine)


@pytest.mark.parametrize("run", (fast_serializing, fast_reordering))
@pytest.mark.parametrize("banks,accesses,bad", BAD_CELLS)
def test_bad_cell_rejected_by_fast_entry_points(banks, accesses, bad, run):
    with _deadline(10), pytest.raises(ValueError, match=f"got {bad}$"):
        run(banks, accesses, random.Random(1))
