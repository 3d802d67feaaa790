"""The DES-free IXP machine against the generator model.

``simulate_ixp(engine="fast")`` runs :class:`repro.ixp.IxpMachine`;
``engine="reference"`` runs :class:`repro.ixp.IxpSystem` on the DES
kernel.  Every :class:`IxpSimResult` field except the engine label must
be equal (``==``, floats included), not merely close.
"""

import dataclasses
import heapq

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
    """The rest of the 36-cell sweep grid, at the default duration: with
    the Table 2 cells above, every cell the ``table2``,
    ``ablation-multithreading`` and ``sweep-ixp-rate-queues`` scenarios
    run, each across a period jump but one."""
    for queues in GRID_QUEUES:
        if (queues, engines) in TABLE2_CELLS:
            continue
        assert_engines_equal(queues, engines, multithreading=multithreading)


def stepped_wakes(queues, engines, multithreading):
    """Wakes a full stepping run pops: the kernel model's pushes less
    what is still pending (no process ever finishes, so no stale
    entries)."""
    system = IxpSystem(queues, engines, multithreading=multithreading)
    system.run()
    assert system.sim.stale_skips == 0
    return system.sim._seq - len(system.sim._heap)


def machine_pops(monkeypatch, queues, engines, multithreading):
    pops = []

    def counting(heap):
        pops.append(None)
        return heapq.heappop(heap)

    monkeypatch.setattr("repro.ixp.machine.heappop", counting)
    simulate_ixp(queues, engines, multithreading=multithreading)
    return len(pops)


def test_periodic_cell_jumps_to_the_horizon(monkeypatch):
    """Cell (16, 6) repeats within a few packets: the machine pops under
    5% of the ~103k wakes a stepping run would."""
    full = stepped_wakes(16, 6, False)
    assert full > 100_000
    assert machine_pops(monkeypatch, 16, 6, False) < 0.05 * full


def test_aperiodic_cell_steps_in_full(monkeypatch):
    """1024 queues on six multithreaded engines is still in its transient
    at the horizon: no snapshot repeats, so every wake is stepped."""
    assert (machine_pops(monkeypatch, 1024, 6, True)
            == stepped_wakes(1024, 6, True))


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


def test_jump_keys_on_access_start_times():
    """Here two snapshots agree in everything but how long the port
    waiters have waited; keyed without the access-start times, the jump
    extrapolates a wrong wait sum."""
    params = IxpParams(threads_per_engine=2, base_alu_cycles=5,
                       bitmap_word_cycles=2, context_switch_cycles=10,
                       scratch=MemoryCosts(2, 26), sram=MemoryCosts(0, 25),
                       sdram=MemoryCosts(6, 25))
    assert_engines_equal(2048, 6, params=params, multithreading=True)


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
       duration_ps=st.integers(0, 80_000_000))
def test_small_params_equal_across_engines(queues, engines, multithreading,
                                           threads, ctx_cycles, alu_cycles,
                                           scratch, sram, sdram, duration_ps):
    """Random small configurations; about half of the horizons reach
    past the first repeated state, so the jump runs as often as not."""
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
