"""The DES-free IXP machine against the generator model.

``simulate_ixp(engine="fast")`` runs :class:`repro.ixp.IxpMachine`;
``engine="reference"`` runs :class:`repro.ixp.IxpSystem` on the DES
kernel.  Every :class:`IxpSimResult` field except the engine label must
be equal (``==``, floats included), not merely close.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ixp import IxpParams, IxpSystem, MemoryCosts, simulate_ixp
from repro.ixp.program import ixp_timing

TABLE2_CELLS = [(q, e) for q in (16, 128, 1024) for e in (1, 6)]
GRID_QUEUES = (8, 16, 32, 64, 128, 256, 512, 1024, 2048)


def fields(result):
    doc = dataclasses.asdict(result)
    doc.pop("engine")
    return doc


def assert_engines_equal(*args, **kwargs):
    fast = simulate_ixp(*args, engine="fast", **kwargs)
    ref = simulate_ixp(*args, engine="reference", **kwargs)
    assert fast.engine == "fast" and ref.engine == "reference"
    assert fields(fast) == fields(ref), (args, kwargs)
    return fast


def test_table2_cells_equal_across_engines():
    """The six Table 2 cells at the default duration, both modes."""
    for queues, engines in TABLE2_CELLS:
        for multithreading in (False, True):
            assert_engines_equal(queues, engines,
                                 multithreading=multithreading)


@pytest.mark.parametrize("multithreading", [False, True])
@pytest.mark.parametrize("engines", [1, 6])
def test_queue_grid_equal_across_engines(engines, multithreading):
    """The rest of the sweep grid, at a shortened duration."""
    for queues in GRID_QUEUES:
        if (queues, engines) in TABLE2_CELLS:
            continue
        assert_engines_equal(queues, engines, multithreading=multithreading,
                             duration_ps=40_000_000)


def test_horizon_on_a_packet_completion_counts_it():
    """One uncontended engine completes a packet every unloaded packet
    time; a horizon exactly on the third completion includes it."""
    timing = ixp_timing(16, 1, IxpParams())
    packet_ps = timing.default_duration_ps // 400
    on = assert_engines_equal(16, 1, duration_ps=3 * packet_ps)
    before = assert_engines_equal(16, 1, duration_ps=3 * packet_ps - 1)
    assert (on.packets, before.packets) == (3, 2)


@pytest.mark.parametrize("multithreading", [False, True])
def test_horizon_on_a_contended_wake_instant(multithreading):
    """A horizon landing on a pending wake of the kernel model."""
    system = IxpSystem(1024, 6, multithreading=multithreading)
    system.run(duration_ps=3_000_000)
    # the earliest live pending resume (finished processes' entries are
    # skipped on pop, so they schedule nothing)
    tie = min(when for when, _seq, proc, _value in system.sim._heap
              if not proc.done)
    assert tie > 3_000_000
    assert_engines_equal(1024, 6, multithreading=multithreading,
                         duration_ps=tie)


costs = st.builds(MemoryCosts, service_cycles=st.integers(0, 12),
                  engine_overhead_cycles=st.integers(0, 30))


@settings(max_examples=40, deadline=None)
@given(queues=st.sampled_from([4, 100, 700]),
       engines=st.integers(1, 6),
       multithreading=st.booleans(),
       threads=st.integers(1, 4),
       ctx_cycles=st.integers(0, 40),
       alu_cycles=st.integers(0, 60),
       scratch=costs, sram=costs, sdram=costs,
       duration_ps=st.integers(0, 6_000_000))
def test_small_params_equal_across_engines(queues, engines, multithreading,
                                           threads, ctx_cycles, alu_cycles,
                                           scratch, sram, sdram, duration_ps):
    params = IxpParams(threads_per_engine=threads,
                       context_switch_cycles=ctx_cycles,
                       base_alu_cycles=alu_cycles,
                       scratch=scratch, sram=sram, sdram=sdram)
    assert_engines_equal(queues, engines, params=params,
                         multithreading=multithreading,
                         duration_ps=duration_ps)


def test_fast_engine_builds_no_simulator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the fast IXP path built a simulator")

    monkeypatch.setattr("repro.sim.kernel.Simulator.__init__", refuse)
    for multithreading in (False, True):
        result = simulate_ixp(128, 6, multithreading=multithreading,
                              engine="fast")
        assert result.packets > 0 and result.engine == "fast"


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_engine_count_validated_on_both_engines(engine):
    for engines in (0, 7):
        with pytest.raises(ValueError, match="num_engines"):
            simulate_ixp(16, engines, engine=engine)
