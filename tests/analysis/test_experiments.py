"""End-to-end tests of the published artifacts and the analysis CLI.

These keep the paper-tracking assertions on the scenario results
(:class:`repro.scenarios.Runner`) and exercise the CLI front-end.
"""

import pytest

from repro.analysis import PAPER_TABLE1, PAPER_TABLE2, PAPER_TABLE4, PAPER_TABLE5
from repro.analysis.cli import build_parser, main
from repro.scenarios import Runner, all_scenarios, render


def test_table1_report_matches_paper_conflict_columns():
    result = Runner().run("table1", fast=True)
    for banks, row in PAPER_TABLE1.items():
        ours = result.metrics[f"banks{banks}"]
        # serializing and optimized conflict-only columns track closely
        assert ours[0] == pytest.approx(row[0], abs=0.03)
        assert ours[2] == pytest.approx(row[2], abs=0.03)


def test_table3_report_exact():
    result = Runner().run("table3")
    assert result.metrics["enqueue_word"] == 216
    assert result.metrics["dequeue_word"] == 230
    assert result.metrics["line_copy"] == 24
    assert "Table 3" in render(result)


def test_table4_report_exact():
    result = Runner().run("table4")
    for name, want in PAPER_TABLE4.items():
        assert result.metrics[name] == want


def test_table2_report_tracks_every_paper_cell():
    result = Runner().run("table2", fast=True)
    for (queues, engines), want in PAPER_TABLE2.items():
        got = result.metrics[f"q{queues}_e{engines}"]
        assert got == pytest.approx(want, rel=0.12), (queues, engines)


def test_table5_report_tracks_the_paper_rows():
    result = Runner().run("table5", fast=True)
    # execution delay is the paper's 10.5 at every load
    for fifo, execution, data, total in result.metrics.values():
        assert execution == pytest.approx(10.5, abs=0.01)
    # the linear-region totals track the paper; the knee rows near
    # saturation are calibration-sensitive and not gated here
    for load, row in PAPER_TABLE5.items():
        if load <= 4.5:
            total = result.metrics[f"load{load}"][3]
            assert total == pytest.approx(row[3], rel=0.15), load
    low = result.metrics["load1.6"]
    high = result.metrics["load6.14"]
    assert low[3] == pytest.approx(58.5, abs=6)
    assert high[0] > low[0]          # fifo delay grows with load
    assert high[2] > low[2] - 0.5    # data delay grows with load


def test_headline_report_matches_the_paper_claims():
    result = Runner().run("headline", fast=True)
    assert result.metrics["mms_gbps"] == pytest.approx(6.1, rel=0.05)
    # Section 4: the IXP cannot support more than ~150 Mbps at 1K queues
    assert result.metrics["ixp_1k_mbps"] < 170


def test_fifo_depth_ablation_delay_grows_with_depth():
    result = Runner().run("ablation-fifo-depth", fast=True)
    fifo = {d: result.metrics[f"depth{d}"][0] for d in (1, 2, 4, 8)}
    assert fifo[8] > fifo[1]
    # the calibrated depth-2 point sits in the paper's regime (~68)
    assert 30 <= fifo[2] <= 110


def test_history_depth_ablation_three_is_exactly_sufficient():
    """'Remembers the last 3 accesses': shallower history stalls on busy
    banks, deeper history buys nothing."""
    result = Runner().run("ablation-history-depth", fast=True)
    losses = {d: result.metrics[f"depth{d}"] for d in (0, 1, 3, 8)}
    assert losses[3] == pytest.approx(0.046, abs=0.02)
    assert losses[0] > losses[3] + 0.1
    assert losses[1] > losses[3] - 0.005
    assert losses[8] == pytest.approx(losses[3], abs=0.01)


def test_rw_grouping_ablation_cuts_stalls_at_every_bank_count():
    result = Runner().run("ablation-rw-grouping", fast=True)
    for banks in (4, 8, 16):
        base_loss, grouped_loss, base_stalls, grouped_stalls = \
            result.metrics[f"banks{banks}"]
        assert grouped_stalls < base_stalls, banks
        assert grouped_loss <= base_loss + 0.005, banks


def test_multithreading_ablation_does_not_help_the_sram_regime():
    result = Runner().run("ablation-multithreading", fast=True)
    plain, threaded = result.metrics["q128"]
    assert threaded < plain * 1.10


def test_overlap_ablation_serializing_delays_completion():
    """Index 3 is the paper's additive total, which the overlap does not
    move; index 4 is the true submit-to-completion latency, which it
    does."""
    result = Runner().run("ablation-overlap", fast=True)
    overlapped = result.metrics["overlapped"]
    serialized = result.metrics["serialized"]
    assert serialized[4] > overlapped[4] + 5
    assert serialized[3] == pytest.approx(overlapped[3], abs=3)


def test_figures_render():
    assert "PowerPC" in render(Runner().run("figure1"))
    assert "DMC" in render(Runner().run("figure2"))


def test_legacy_registry_covers_all_artifacts():
    """Every published table, figure and the headline is a registered
    scenario."""
    assert {
        "table1", "table2", "table3", "table4", "table5",
        "figure1", "figure2", "headline",
    } <= set(all_scenarios())


def test_cli_parser():
    args = build_parser().parse_args(["run", "table4"])
    assert args.command == "run"
    assert args.scenario == "table4"
    assert not args.fast
    args = build_parser().parse_args(["run", "all", "--fast"])
    assert args.fast
    args = build_parser().parse_args(
        ["run", "table1", "--engine", "reference", "--seed", "7"])
    assert args.engine == "reference"
    assert args.seed == 7


def test_cli_main_runs_table4(capsys):
    rc = main(["run", "table4"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "Table 4" in captured.out


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "table9"])
