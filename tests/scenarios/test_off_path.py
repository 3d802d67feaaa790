"""Telemetry, tracing and monitoring stay off the hot path when disabled,
and leave simulated results untouched when enabled.

A per-command ``if probe is not None`` creeping back into the execute
path would pass any same-code timing comparison; these structural
checks are what fail instead.
"""

import os
import subprocess
import sys

from repro.core.dqm import DataQueueManager
from repro.core.mms import MMS, MmsConfig
from repro.engines import StreamMms
from repro.monitor.events import EventSink, read_events
from repro.monitor.resources import validate_resources_dict
from repro.scenarios import Runner
from repro.telemetry import MmsTelemetry
from repro.trace import TraceCollector, TraceSpec

CFG = MmsConfig(num_flows=16, num_segments=64, num_descriptors=64)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def test_probes_off_dqm_carries_no_probed_variants():
    dqm = MMS(CFG).dqm
    assert "_dispatch" not in dqm.__dict__
    assert "_finalize" not in dqm.__dict__


def test_probed_dqm_binds_the_probed_dispatch_and_plain_finalize():
    for probe in (MmsTelemetry(), TraceCollector(TraceSpec())):
        dqm = MMS(CFG, probe=probe).dqm
        assert dqm._dispatch.__func__ is DataQueueManager._dispatch_probed, \
            type(probe).__name__
        assert "_finalize" not in dqm.__dict__, type(probe).__name__


def test_probes_off_stream_machine_has_no_probe():
    assert StreamMms(CFG).probe is None


def test_monitor_is_structurally_absent_from_plain_runs():
    """A plain run must not merely skip monitoring but never import it."""
    code = (
        "import sys\n"
        "from repro.scenarios import Runner\n"
        "Runner().run('table5', engine='fast')\n"
        "offenders = sorted(m for m in sys.modules\n"
        "                   if m == 'repro.monitor'\n"
        "                   or m.startswith('repro.monitor.'))\n"
        "assert not offenders, offenders\n"
        "print('structurally absent')\n"
    )
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=REPO_ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "structurally absent" in proc.stdout


def test_instrumented_table5_leaves_metrics_unperturbed(tmp_path):
    runner = Runner()
    plain = runner.run("table5", fast=True, engine="fast").metrics

    probed = dict(runner.run("table5", fast=True, engine="fast",
                             telemetry=True).metrics)
    assert probed.pop("telemetry")
    assert probed == plain

    traced = dict(runner.run("table5", fast=True, engine="fast",
                             trace=True).metrics)
    spans = sum(t["counters"]["spans"] for t in traced.pop("trace").values())
    assert spans > 0
    assert traced == plain

    events_file = str(tmp_path / "events.jsonl")
    with EventSink(events_file) as sink:
        monitored = dict(Runner(events=sink).run(
            "table5", fast=True, engine="fast", resources=True).metrics)
    assert validate_resources_dict(monitored.pop("resources")) == []
    assert monitored == plain
    events = read_events(events_file, strict=True)
    assert any(e.kind == "run" and e.action == "finish" for e in events)
