"""Human-readable run reports from result/trace documents.

:func:`render_report` turns any document the CLI produces -- a
``run``/``sweep`` document, a single serialized
:class:`~repro.scenarios.RunResult`, a ``checkpoint-run`` envelope or a
raw trace snapshot -- into a terminal summary: the run header, the
telemetry percentiles (PR 5's distributions), the trace attribution
(where the time went, per component) and the drop provenance.  It is
the triage entry point: one ``repro-analysis report results.json``
instead of spelunking nested JSON.
"""

from __future__ import annotations

from typing import Any, List, Mapping

#: Histogram keys worth a summary line, in display order.
_REPORT_HISTOGRAMS = ("all.e2e", "all.fifo", "enqueue.e2e", "dequeue.e2e")


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def _telemetry_lines(t: Mapping[str, Any], indent: str) -> List[str]:
    counters = t.get("counters", {})
    lines = [f"{indent}telemetry: {counters.get('commands', 0)} commands, "
             f"{counters.get('dropped_commands', 0)} dropped"]
    hists = t.get("histograms", {})
    for name in _REPORT_HISTOGRAMS:
        h = hists.get(name)
        if not isinstance(h, Mapping) or not h.get("count"):
            continue
        summary = h.get("percentiles", {})
        cells = "  ".join(f"{k}={_fmt(v)}" for k, v in summary.items())
        lines.append(f"{indent}  {name:<14} {cells}  (cycles, "
                     f"n={h['count']})")
    occ = t.get("occupancy", {})
    if occ:
        lines.append(
            f"{indent}  occupancy: peak {occ.get('peak_total', 0)} segments "
            f"@ {occ.get('peak_time_ps', -1)} ps, "
            f"final {occ.get('final_total', 0)}")
    return lines


def _trace_lines(t: Mapping[str, Any], indent: str) -> List[str]:
    counters = t.get("counters", {})
    lines = [f"{indent}trace: {counters.get('dispatched', 0)} dispatched, "
             f"{counters.get('completed', 0)} completed, "
             f"{counters.get('spans', 0)} spans"]
    attribution = t.get("attribution", {})
    shares = attribution.get("shares", {})
    if attribution.get("total_ps"):
        lines.append(
            f"{indent}  attribution: "
            f"fifo {shares.get('fifo', 0.0) * 100:.1f}%  "
            f"dqm {shares.get('dqm', 0.0) * 100:.1f}%  "
            f"dmc+ddr {shares.get('dmc_ddr', 0.0) * 100:.1f}%  "
            f"(total {attribution['total_ps']} ps)")
    drops = counters.get("drops_by_reason", {})
    if drops:
        cells = "  ".join(f"{k}={v}" for k, v in sorted(drops.items()))
        lines.append(f"{indent}  drops: {cells}")
    truncated = (counters.get("truncated_commands", 0)
                 + counters.get("truncated_spans", 0))
    if truncated:
        lines.append(f"{indent}  (span retention capped: {truncated} "
                     f"rows beyond max_spans not retained)")
    return lines


def _per_load(payload: Mapping[str, Any]) -> bool:
    """A multi-load block (table5 style) vs a single snapshot."""
    return isinstance(payload, Mapping) and "schema" not in payload


def _result_lines(result: Mapping[str, Any]) -> List[str]:
    wall = result.get("wall_clock_s")
    header = (f"== {result.get('scenario', '?')} "
              f"({result.get('kind', '?')})  "
              f"engine={result.get('engine', '?')} "
              f"seed={result.get('seed', '?')} "
              f"budget={result.get('budget', '?')}")
    if isinstance(wall, (int, float)):
        header += f"  wall={wall:.2f}s"
    lines = [header]
    metrics = result.get("metrics", {})
    if not isinstance(metrics, Mapping):
        return lines
    scalars = {k: v for k, v in metrics.items()
               if isinstance(v, (int, float, str, bool))}
    if scalars:
        cells = "  ".join(f"{k}={_fmt(v)}" for k, v in sorted(
            scalars.items()))
        lines.append(f"  metrics: {cells}")
    for key, renderer in (("telemetry", _telemetry_lines),
                          ("trace", _trace_lines)):
        payload = metrics.get(key)
        if not isinstance(payload, Mapping):
            continue
        if _per_load(payload):
            for load in sorted(payload):
                lines.append(f"  [{load}]")
                lines.extend(renderer(payload[load], "    "))
        else:
            lines.extend(renderer(payload, "  "))
    return lines


def render_report(doc: Mapping[str, Any], source: str = "") -> str:
    """The report text for one loaded JSON document (see module
    docstring for the accepted shapes)."""
    if not isinstance(doc, Mapping):
        raise ValueError("document is not a JSON object")
    lines: List[str] = []
    if source:
        lines.append(f"report: {source}")
    if "spans" in doc and "attribution" in doc:
        lines.extend(_trace_lines(doc, ""))
        return "\n".join(lines)
    if "runs" in doc and isinstance(doc["runs"], list):
        results = [r for r in doc["runs"] if isinstance(r, Mapping)]
        failures = doc.get("failures", [])
    elif "result" in doc and isinstance(doc["result"], Mapping) \
            and "metrics" not in doc["result"]:
        # checkpoint-run envelope: the result is a flat counters dict
        lines.append(f"== {doc.get('scenario', '?')}  "
                     f"engine={doc.get('engine', '?')}  "
                     f"checkpoints={len(doc.get('checkpoints', []))}")
        cells = "  ".join(f"{k}={_fmt(v)}"
                          for k, v in sorted(doc["result"].items()))
        if cells:
            lines.append(f"  counters: {cells}")
        return "\n".join(lines)
    elif "result" in doc and isinstance(doc["result"], Mapping):
        results = [doc["result"]]
        failures = []
    elif "metrics" in doc:
        results = [doc]
        failures = []
    else:
        raise ValueError(
            "document is neither a result, a run document, nor a trace")
    for result in results:
        lines.extend(_result_lines(result))
    if failures:
        lines.append(f"failures: {len(failures)}")
        for f in failures:
            if isinstance(f, Mapping):
                lines.append(f"  {f.get('name', '?')}: "
                             f"{f.get('reason', '?')}")
    if not results and not failures:
        raise ValueError("document carries no runs")
    return "\n".join(lines)
