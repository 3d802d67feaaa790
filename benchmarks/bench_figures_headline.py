"""Benchmarks F2/H1: the Figure 2 MMS build and the cross-cutting
headline claims."""

import pytest

from benchmarks.bench_common import emit
from repro.core import MMS
from repro.scenarios import Runner, render


def test_bench_figure2_mms_build(benchmark):
    """Construct the full Figure 2 MMS at paper scale (32 K flows)."""
    mms = benchmark.pedantic(MMS, iterations=1, rounds=3)
    emit(render(Runner().run("figure2")))
    assert mms.pqm.num_flows == 32 * 1024

def test_bench_headline_claims(benchmark):
    result = benchmark.pedantic(
        lambda: Runner().run("headline", fast=True), iterations=1, rounds=1)
    emit(render(result))
    assert result.metrics["mms_gbps"] == pytest.approx(6.1, rel=0.05)
    assert result.metrics["ixp_1k_mbps"] < 170
