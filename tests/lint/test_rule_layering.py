"""R2 fixtures: the layer DAG, the Probe crossing, relative imports."""

from __future__ import annotations

import textwrap

from repro.lint import lint_source
from repro.lint.rules.layering import LayeringRule

RULE = [LayeringRule()]


def lint(src, path, config):
    return lint_source(textwrap.dedent(src), path, config, RULE)


def test_hot_importing_checkpoint_flagged(config):
    findings = lint(
        """
        from repro.checkpoint import Checkpoint
        """, "repro/engines/stream.py", config)
    assert len(findings) == 1
    assert findings[0].symbol == "repro.checkpoint"
    assert "'hot'" in findings[0].message and "'slow'" in findings[0].message


def test_hot_importing_scenarios_and_collector_flagged(config):
    findings = lint(
        """
        import repro.scenarios.spec
        from repro.telemetry.collector import MmsTelemetry
        """, "repro/sim/kernel.py", config)
    assert [f.symbol for f in findings] == [
        "repro.scenarios.spec", "repro.telemetry.collector"]


def test_probe_module_is_the_sanctioned_crossing(config):
    findings = lint(
        """
        from repro.telemetry.probe import Probe, TelemetrySpec
        from repro.telemetry.histogram import Log2Histogram
        """, "repro/core/mms.py", config)
    assert findings == []


def test_package_level_telemetry_import_still_flagged_from_hot(config):
    # `from repro.telemetry import probe` executes the package __init__
    # (which pulls in the collector) -- only the direct module path is
    # sanctioned.
    findings = lint(
        """
        from repro.telemetry import probe
        """, "repro/core/mms.py", config)
    assert [f.symbol for f in findings] == ["repro.telemetry"]


def test_relative_import_resolved_against_module(config):
    # from within repro/queueing/foo.py, `from ..checkpoint import x`
    # resolves to repro.checkpoint
    findings = lint(
        """
        from ..checkpoint import atomic
        """, "repro/queueing/foo.py", config)
    assert [f.symbol for f in findings] == ["repro.checkpoint"]


def test_intra_hot_imports_clean(config):
    findings = lint(
        """
        from repro.queueing.freelist import FreeList
        from repro.mem.timing import DdrTiming
        from .fifo import Fifo
        """, "repro/sim/resource.py", config)
    assert findings == []


def test_slow_layer_may_import_everything(config):
    findings = lint(
        """
        from repro.engines.stream import StreamMms
        from repro.telemetry.collector import MmsTelemetry
        from repro.scenarios.spec import ScenarioSpec
        import repro.checkpoint
        """, "repro/analysis/cli.py", config)
    assert findings == []


def test_platform_layer_may_not_import_slow(config):
    findings = lint(
        """
        from repro.scenarios import registry
        """, "repro/npu/microprograms.py", config)
    assert len(findings) == 1
    assert "'platform'" in findings[0].message


def test_unlayered_module_unconstrained(config):
    findings = lint(
        """
        import repro.checkpoint
        """, "scripts/tooling.py", config)
    assert findings == []


def test_stdlib_imports_never_flagged(config):
    findings = lint(
        """
        import heapq
        from collections import deque
        """, "repro/sim/kernel.py", config)
    assert findings == []
