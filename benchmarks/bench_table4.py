"""Benchmark T4: regenerate Table 4 (MMS command latencies) and measure
end-to-end command execution in the assembled MMS.
"""

import pytest

from benchmarks.bench_common import emit
from repro.analysis import PAPER_TABLE4
from repro.core import MMS, Command, CommandType, MmsConfig
from repro.scenarios import Runner, render

CFG = MmsConfig(num_flows=256, num_segments=4096, num_descriptors=2048)


def test_bench_table4_full(benchmark):
    result = benchmark.pedantic(
        lambda: Runner().run("table4"), iterations=1, rounds=5)
    emit(render(result))
    for name, want in PAPER_TABLE4.items():
        assert result.metrics[name] == want

def test_bench_command_stream_execution(benchmark):
    """Timed execution of a 400-command mixed stream through the DQM."""

    def run_stream():
        mms = MMS(CFG)
        mms.prefill(range(32), packets_per_flow=8)

        def feeder():
            for i in range(200):
                yield from mms.submit(0, Command(type=CommandType.ENQUEUE,
                                                 flow=i % 32, eop=True))
                yield from mms.submit(1, Command(type=CommandType.DEQUEUE,
                                                 flow=i % 32))

        mms.sim.spawn(feeder())
        mms.sim.run()
        return mms

    mms = benchmark.pedantic(run_stream, iterations=1, rounds=3)
    assert mms.commands_executed == 400
    # mixed enqueue/dequeue stream: the 10.5-cycle average
    records = mms.latency_records(mms.now)
    mean_exec = sum(r[2] for r in records) / len(records)
    assert mean_exec == pytest.approx(10.5, abs=0.01)
