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
from repro.mem.ddr import DdrModel, MemOp
from repro.mem.fastpath import _PAPER_PORT_IS_WRITE, bank_draws
from repro.mem.patterns import paper_port_patterns
from repro.mem.sched import PortSpec, run_reordering, run_serializing
from repro.scenarios import all_scenarios

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

#: Every scenario that runs on the batched DDR bank engine.
BANK_SCENARIOS = tuple(name for name, scenario in all_scenarios().items()
                       if scenario.spec.fastpath == "bank")


def test_bank_scenarios_include_table1_and_its_ablations():
    assert set(BANK_SCENARIOS) >= {"table1", "sweep-ddr-loss-banks",
                                   "ablation-history-depth",
                                   "ablation-rw-grouping"}


@pytest.mark.parametrize("optimized", (False, True))
@pytest.mark.parametrize("banks", (1, 3, 16))
@pytest.mark.parametrize("accesses", CHUNK_EDGE_ACCESSES)
def test_fast_engine_across_draw_rounds(accesses, banks, optimized):
    """Runs that end on, before and after a draw-round edge match."""
    kw = dict(num_banks=banks, optimized=optimized, model_rw_turnaround=True,
              num_accesses=accesses, seed=7)
    assert (simulate_throughput_loss(engine="fast", **kw)
            == simulate_throughput_loss(engine="reference", **kw))


@pytest.mark.parametrize("banks", (1, 2, 3, 5, 12, 16, 255, 256, 257,
                                   1000, 2**31 + 1, 2**31 + 5, 2**32 - 1))
def test_bank_draws_are_the_randrange_stream(banks):
    """Up to 255 banks a draw is read from the word's top byte, above
    that from the whole word; both give the single-call stream and
    leave the RNG where single calls do."""
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


def _reference(banks, accesses, rng, optimized, timing=DdrTiming(), rw=True,
               depth=3, grouping=False):
    """The reference walk over the paper's ports, drawing from ``rng``."""
    ddr = DdrModel(timing=timing, num_banks=banks, model_rw_turnaround=rw)
    ports = [PortSpec(name=str(p), pattern=pattern)
             for p, pattern in enumerate(paper_port_patterns(rng, banks))]
    if optimized:
        return run_reordering(ddr, ports, accesses, history_depth=depth,
                              prefer_same_type=grouping)
    return run_serializing(ddr, ports, accesses)


def test_paper_port_layout_is_write_read_write_read():
    """The serializing loop walks (read, write) pairs after the first
    write: it holds only while the paper's ports are W, R, W, R."""
    patterns = paper_port_patterns(random.Random(0), 8)
    ops = tuple(next(pattern).op is MemOp.WRITE for pattern in patterns)
    assert ops == _PAPER_PORT_IS_WRITE == (True, False, True, False)


#: Every pair/tail parity up to 9 accesses, then both parities on each
#: side of one and two 4096-word draw rounds.
SERIALIZING_ACCESSES = tuple(range(10)) + (4095, 4096, 4097, 8191, 8192,
                                           8193)


@pytest.mark.parametrize("rw", (False, True))
@pytest.mark.parametrize("banks", (1, 3, 8, 300))
@pytest.mark.parametrize("accesses", SERIALIZING_ACCESSES)
def test_serializing_pairs_and_tail_match_the_reference(accesses, banks, rw):
    timing = DdrTiming(write_after_read_penalty_cycles=2)
    ref_rng, fast_rng = random.Random(13), random.Random(13)
    ref = _reference(banks, accesses, ref_rng, False, timing=timing, rw=rw)
    fast = fast_serializing(banks, accesses, fast_rng, timing=timing,
                            model_rw_turnaround=rw)
    assert fast == ref
    assert fast_rng.getstate() == ref_rng.getstate()


@settings(max_examples=150, deadline=None)
@given(banks=st.integers(1, 300), accesses=st.integers(0, 600),
       seed=st.integers(0, 2**16), optimized=st.booleans(),
       busy=st.integers(1, 8), penalty=st.integers(0, 5),
       depth=st.integers(0, 7), rw=st.booleans(), grouping=st.booleans())
def test_fast_engine_matches_reference_property(banks, accesses, seed,
                                                optimized, busy, penalty,
                                                depth, rw, grouping):
    """Both schedulers, over DDR timings of 1-8 busy cycles and 0-5
    turnaround cycles, equal the reference and leave the caller's RNG
    where it does."""
    timing = DdrTiming(bank_busy_ns=40 * busy,
                       write_after_read_penalty_cycles=penalty)
    ref_rng, fast_rng = random.Random(seed), random.Random(seed)
    ref = _reference(banks, accesses, ref_rng, optimized, timing=timing,
                     rw=rw, depth=depth, grouping=grouping)
    if optimized:
        fast = fast_reordering(banks, accesses, fast_rng, timing=timing,
                               model_rw_turnaround=rw, history_depth=depth,
                               prefer_same_type=grouping)
    else:
        fast = fast_serializing(banks, accesses, fast_rng, timing=timing,
                                model_rw_turnaround=rw)
    assert fast == ref
    assert fast_rng.getstate() == ref_rng.getstate()
