"""Tests for the Figure 1 platform drawing."""

from repro.npu import figure1_diagram


def test_figure1_diagram_mentions_all_blocks():
    art = figure1_diagram()
    for block in ("PowerPC", "PLB", "DDR", "ZBT", "MAC", "DP-BRAM", "OCM"):
        assert block in art
