"""Tests for the whole-IXP simulation (Table 2 reproduction)."""

import pytest

from repro.ixp import IxpSystem, simulate_ixp

# Table 2 of the paper: maximum serviced rate (Kpps).
PAPER_TABLE2 = {
    (16, 1): 956,
    (16, 6): 5600,
    (128, 1): 390,
    (128, 6): 2300,
    (1024, 1): 60,
    (1024, 6): 300,
}

def test_one_engine_rates_match_paper():
    for (queues, engines), want in PAPER_TABLE2.items():
        if engines != 1:
            continue
        got = simulate_ixp(queues, engines).kpps
        assert got == pytest.approx(want, rel=0.05), (queues, engines)

def test_six_engine_rates_match_paper():
    for (queues, engines), want in PAPER_TABLE2.items():
        if engines != 6:
            continue
        got = simulate_ixp(queues, engines).kpps
        assert got == pytest.approx(want, rel=0.10), (queues, engines)

def test_paper_conclusion_1k_queues_below_150mbps():
    """Section 4: 'the whole of the IXP cannot support more than 150Mbps
    ... even if only 1K queues are needed'."""
    from repro.net import pps_to_gbps
    r = simulate_ixp(1024, 6)
    assert pps_to_gbps(r.pps, 64) < 0.170

def test_scaling_sublinear_when_controller_saturates():
    one = simulate_ixp(1024, 1).pps
    six = simulate_ixp(1024, 6).pps
    assert six < 6 * one * 0.95  # visibly below linear
    assert six > 3 * one         # but still far better than one engine

def test_scaling_near_linear_in_scratch_regime():
    one = simulate_ixp(16, 1).pps
    six = simulate_ixp(16, 6).pps
    assert six > 5.5 * one

def test_utilization_grows_with_engines():
    u1 = simulate_ixp(128, 1).unit_utilization
    u6 = simulate_ixp(128, 6).unit_utilization
    assert u6 > u1 * 3

def test_more_queues_lower_rate():
    rates = [simulate_ixp(q, 1).pps for q in (16, 128, 1024)]
    assert rates == sorted(rates, reverse=True)

def test_multithreading_does_not_help_sram_regime():
    """The paper's [10]-based claim: context-switch overhead eats the
    latency-hiding benefit for queue management."""
    plain = simulate_ixp(128, 6, multithreading=False).pps
    threaded = simulate_ixp(128, 6, multithreading=True).pps
    assert threaded < plain * 1.10

def test_engine_count_validation():
    with pytest.raises(ValueError):
        IxpSystem(16, 0)
    with pytest.raises(ValueError):
        IxpSystem(16, 7)

def test_determinism():
    a = simulate_ixp(128, 6)
    b = simulate_ixp(128, 6)
    assert a.packets == b.packets
    assert a.duration_ps == b.duration_ps

def test_result_accessors():
    r = simulate_ixp(16, 1)
    assert r.kpps == pytest.approx(r.pps / 1e3)
    assert r.mpps == pytest.approx(r.pps / 1e6)
    assert r.packets > 0

def test_engine_knob_rejects_unknown():
    for engine in ("turbo", "calendar", "heapq"):
        with pytest.raises(ValueError, match="unknown engine"):
            simulate_ixp(16, 1, engine=engine)
