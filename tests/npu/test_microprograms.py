"""Tests for the Table 3 reproduction (software queue-manager costs)."""

import pytest

from repro.npu import CopyStrategy, NpuParams, QueueSwModel


@pytest.fixture(scope="module")
def model():
    return QueueSwModel()

@pytest.fixture(scope="module")
def params():
    return NpuParams()

# ------------------------------------------------------ Table 3 baseline

def test_dequeue_free_list_is_34_cycles(model, params):
    assert model.free_pop.cpu_cycles(params) == 34

def test_free_pop_is_derived_from_two_plb_reads(model):
    """The cost model counts the accesses of a live free-list pop."""
    assert model.free_pop.plb_reads == 2

def test_enqueue_segment_first_is_46_cycles(model, params):
    assert model.link_first.cpu_cycles(params) == 46

def test_enqueue_segment_rest_is_68_cycles(model, params):
    """Table 3 footnote: '46 for the first segment of the packet, 68 for
    the rest'."""
    assert model.link_rest.cpu_cycles(params) == 68

def test_dequeue_segment_is_52_cycles(model, params):
    assert model.unlink.cpu_cycles(params) == 52

def test_enqueue_free_list_is_42_cycles(model, params):
    assert model.free_push.cpu_cycles(params) == 42

def test_copy_segment_word_is_136_cycles(model, params):
    assert model.copy_cost(CopyStrategy.WORD).cpu_cycles(params) == 136

def test_enqueue_totals_match_table3(model):
    assert model.enqueue_cycles(CopyStrategy.WORD, first_segment=True) == 216
    assert model.enqueue_cycles(CopyStrategy.WORD, first_segment=False) == 238

def test_dequeue_total_matches_table3(model):
    assert model.dequeue_cycles(CopyStrategy.WORD) == 230

# ------------------------------------------------- Section 5.3 variants

def test_line_copy_is_24_cycles(model, params):
    """'the total number of cycles to copy a segment becomes
    TC = 2*(9+3) = 24 cycles'."""
    assert model.copy_cost(CopyStrategy.LINE).cpu_cycles(params) == 24

def test_line_totals_near_paper(model):
    """Paper: enqueue/dequeue become 128 and 118 cycles.  Ours derive to
    126/118 (the paper's enqueue includes 2 cycles we cannot attribute;
    see EXPERIMENTS.md)."""
    enq = model.enqueue_cycles(CopyStrategy.LINE, first_segment=False)
    deq = model.dequeue_cycles(CopyStrategy.LINE)
    assert deq == 118
    assert abs(enq - 128) <= 2

def test_dma_setup_cost_is_16_cpu_cycles(model, params):
    assert model.copy_cost(CopyStrategy.DMA).cpu_cycles(params) == 16

# ------------------------------------------------------------ throughput

def test_baseline_supports_full_duplex_100mbps_and_no_more(model):
    """Section 5.3: 'all the available processing capacity of the
    PowerPC core has to be used so as to support a full duplex 100Mbps
    line'."""
    gbps = model.full_duplex_gbps(CopyStrategy.WORD)
    assert 0.095 <= gbps <= 0.125

def test_line_transactions_reach_about_200mbps(model):
    """Section 5.3: 'the 100MHz PowerPC would sustain up to about
    200 Mbps throughput'."""
    gbps = model.full_duplex_gbps(CopyStrategy.LINE)
    assert 0.18 <= gbps <= 0.23

def test_line_transactions_roughly_double_word_throughput(model):
    line = model.full_duplex_gbps(CopyStrategy.LINE)
    word = model.full_duplex_gbps(CopyStrategy.WORD)
    assert line > 1.8 * word

def test_dma_throughput_similar_to_line(model):
    """Section 5.3: 'the overall throughput does not increase
    significantly' with DMA..."""
    line = model.full_duplex_gbps(CopyStrategy.LINE)
    dma = model.full_duplex_gbps(CopyStrategy.DMA)
    assert dma == pytest.approx(line, rel=0.15)

def test_dma_frees_cpu_headroom(model):
    """...'but in this configuration the processor has additional
    available processing power ... due to the offloading'."""
    word = model.cpu_headroom_fraction(CopyStrategy.WORD, 0.1)
    dma = model.cpu_headroom_fraction(CopyStrategy.DMA, 0.1)
    assert dma > word + 0.3

def test_rule_of_thumb_clock_proportionality(model):
    """Section 5.4: 'the clock frequency of the system is proportional
    to the network bandwidth supported'."""
    at_100 = model.full_duplex_gbps(CopyStrategy.WORD, clock_mhz=100)
    at_400 = model.full_duplex_gbps(CopyStrategy.WORD, clock_mhz=400)
    assert at_400 == pytest.approx(4 * at_100)

def test_costs_scale_with_plb_timing():
    slow = NpuParams(plb=__import__("repro.npu.params", fromlist=["PlbTiming"])
                     .PlbTiming(single_read_cycles=16, single_write_cycles=12))
    m = QueueSwModel(slow)
    assert m.free_pop.cpu_cycles(slow) > 34
