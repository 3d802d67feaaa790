"""The standard MMS probe and its typed, JSON-round-tripping snapshot.

:class:`MmsTelemetry` consumes the two probe channels
(:class:`~repro.telemetry.probe.Probe`) and aggregates:

* **latency histograms** -- one :class:`Log2Histogram` per
  ``<class>.<component>`` key, where the class is ``enqueue`` /
  ``dequeue`` / ``other`` (by command type) plus the ``all`` aggregate,
  and the components are ``e2e`` (true submit-to-completion cycles) and
  ``fifo`` (FIFO wait cycles) -- the distributions behind the paper's
  Table 5 means;
* **occupancy series** -- the aggregate buffer occupancy sampled every
  ``sample_every`` dispatched commands (peaks tracked at *every*
  command), plus per-queue occupancy peaks;
* **throughput/drop counters** -- per-opcode dispatch counts and
  policy-drop counts keyed by the
  :class:`~repro.policies.base.DropRecord` reason the policy attached
  to the rejected arrival.

Everything is a deterministic fold over the probe streams, so the
snapshot of a ``fast``-engine run is byte-identical to the
``reference`` run's (the engine-identity contract of
``tests/engines``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.core.commands import CommandType
from repro.policies.base import DroppedSegment
from repro.telemetry.histogram import Log2Histogram
from repro.telemetry.probe import Probe, TelemetrySpec

#: Schema version of the serialized telemetry payload.
TELEMETRY_SCHEMA = 1


class MmsTelemetry(Probe):
    """The standard telemetry probe (see module docstring)."""

    def __init__(self, spec: TelemetrySpec = TelemetrySpec()) -> None:
        self.spec = spec
        self.histograms: Dict[str, Log2Histogram] = {}
        # counters channel
        self.commands = 0
        self.by_op: Dict[str, int] = {}
        self.dropped_commands = 0
        self.drops_by_reason: Dict[str, int] = {}
        # occupancy channel
        self.series: List[Tuple[int, int]] = []
        self.peak_total = 0
        self.peak_time_ps = -1
        self.final_total = 0
        self.queue_peaks: Dict[int, int] = {}

    # ------------------------------------------------------ probe channel

    def on_command(self, time_ps: int, op: CommandType, flow: int,
                   result: object, queue_depth: int,
                   total_segments: int) -> None:
        n = self.commands
        self.commands = n + 1
        key = op.value
        self.by_op[key] = self.by_op.get(key, 0) + 1
        if isinstance(result, DroppedSegment):
            self.dropped_commands += 1
            reason = result.reason
            self.drops_by_reason[reason] = \
                self.drops_by_reason.get(reason, 0) + 1
        if n % self.spec.sample_every == 0:
            self.series.append((time_ps, total_segments))
        if total_segments > self.peak_total:
            self.peak_total = total_segments
            self.peak_time_ps = time_ps
        self.final_total = total_segments
        if queue_depth > self.queue_peaks.get(flow, -1):
            self.queue_peaks[flow] = queue_depth

    def on_records(self, records: Sequence[tuple]) -> None:
        """Fold the delivery-ordered records: one bulk add per histogram,
        each fed its samples in delivery order."""
        if not records:
            return
        self._fold("all", records)
        # classes by opcode identity (no Enum hashing per record)
        enq, deq = CommandType.ENQUEUE, CommandType.DEQUEUE
        for label, members in (
                ("enqueue", [rec for rec in records if rec[5] is enq]),
                ("dequeue", [rec for rec in records if rec[5] is deq]),
                ("other", [rec for rec in records
                           if rec[5] is not enq and rec[5] is not deq])):
            if members:
                self._fold(label, members)

    def _fold(self, label: str, records: Sequence[tuple]) -> None:
        hists = self.histograms
        for component, column in (("e2e", 4), ("fifo", 1)):
            key = f"{label}.{component}"
            if key not in hists:
                hists[key] = Log2Histogram()
            hists[key].add_many([rec[column] for rec in records])

    # ------------------------------------------------- snapshot/restore

    def state_dict(self) -> Dict[str, Any]:
        """Exact JSON-serializable snapshot of the fold state.

        Unlike :meth:`snapshot` (the *published* summary, which rounds
        nothing but fixes the percentile set), this captures everything
        needed to *continue* the fold mid-run: restoring it into a
        fresh probe of the same :class:`TelemetrySpec` and feeding the
        remaining probe stream yields a byte-identical final snapshot
        (the :mod:`repro.checkpoint` resume-identity contract).
        """
        return {
            "sample_every": self.spec.sample_every,
            "commands": self.commands,
            "by_op": dict(self.by_op),
            "dropped_commands": self.dropped_commands,
            "drops_by_reason": dict(self.drops_by_reason),
            "series": [[t, v] for t, v in self.series],
            "peak_total": self.peak_total,
            "peak_time_ps": self.peak_time_ps,
            "final_total": self.final_total,
            "queue_peaks": {str(q): v for q, v in self.queue_peaks.items()},
            "histograms": {k: self.histograms[k].to_dict()
                           for k in sorted(self.histograms)},
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Restore :meth:`state_dict` output (see its contract)."""
        if state["sample_every"] != self.spec.sample_every:
            raise ValueError(
                f"telemetry state was folded with sample_every="
                f"{state['sample_every']}, this probe uses "
                f"{self.spec.sample_every}")
        self.commands = state["commands"]
        self.by_op = dict(state["by_op"])
        self.dropped_commands = state["dropped_commands"]
        self.drops_by_reason = dict(state["drops_by_reason"])
        self.series = [(t, v) for t, v in state["series"]]
        self.peak_total = state["peak_total"]
        self.peak_time_ps = state["peak_time_ps"]
        self.final_total = state["final_total"]
        self.queue_peaks = {int(q): v
                            for q, v in state["queue_peaks"].items()}
        self.histograms = {k: Log2Histogram.from_dict(h)
                           for k, h in state["histograms"].items()}

    # ----------------------------------------------------------- snapshot

    def snapshot(self) -> "TelemetrySnapshot":
        return TelemetrySnapshot(
            schema=TELEMETRY_SCHEMA,
            counters={
                "commands": self.commands,
                "by_op": {k: self.by_op[k] for k in sorted(self.by_op)},
                "dropped_commands": self.dropped_commands,
                "drops_by_reason": {k: self.drops_by_reason[k]
                                    for k in sorted(self.drops_by_reason)},
            },
            histograms={k: self.histograms[k].to_dict(self.spec.percentiles)
                        for k in sorted(self.histograms)},
            occupancy={
                "sample_every": self.spec.sample_every,
                "series": [[t, v] for t, v in self.series],
                "peak_total": self.peak_total,
                "peak_time_ps": self.peak_time_ps,
                "final_total": self.final_total,
                "queue_peaks": {str(q): self.queue_peaks[q]
                                for q in sorted(self.queue_peaks)},
            },
        )


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Typed, immutable view of one telemetry fold.

    ``to_dict`` / ``from_dict`` round-trip exactly (floats included --
    JSON preserves Python float reprs), so a snapshot can travel inside
    :attr:`~repro.scenarios.RunResult.metrics` and be compared
    byte-for-byte across engines.
    """

    schema: int
    counters: Dict[str, Any]
    histograms: Dict[str, Any]
    occupancy: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "counters": self.counters,
            "histograms": self.histograms,
            "occupancy": self.occupancy,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TelemetrySnapshot":
        problems = validate_telemetry_dict(d)
        if problems:
            raise ValueError("invalid telemetry payload: "
                             + "; ".join(problems))
        return cls(schema=d["schema"],
                   counters=dict(d["counters"]),
                   histograms={k: dict(v)
                               for k, v in d["histograms"].items()},
                   occupancy=dict(d["occupancy"]))

    # -------------------------------------------------------- convenience

    def percentile(self, histogram: str, p: float) -> float:
        """Recompute a percentile from the serialized buckets (matches
        the stored summary for the spec's percentiles)."""
        return Log2Histogram.from_dict(
            self.histograms[histogram]).percentile(p)


def validate_telemetry_dict(d: Mapping[str, Any]) -> List[str]:
    """Schema check of one serialized telemetry payload (list of
    human-readable problems; empty = valid).  Dependency-free, like
    :func:`repro.scenarios.validate_result_dict`."""
    problems: List[str] = []
    if not isinstance(d, Mapping):
        return ["telemetry payload is not an object"]
    if d.get("schema") != TELEMETRY_SCHEMA:
        problems.append(f"schema {d.get('schema')!r} != {TELEMETRY_SCHEMA}")
    for key in ("counters", "histograms", "occupancy"):
        if not isinstance(d.get(key), Mapping):
            problems.append(f"{key!r} missing or not an object")
    if isinstance(d.get("histograms"), Mapping):
        for name, h in d["histograms"].items():
            if not isinstance(h, Mapping):
                problems.append(f"histograms[{name!r}] malformed")
                continue
            for key, types in (("count", int), ("sum", (int, float)),
                               ("min", (int, float)), ("max", (int, float)),
                               ("buckets", Mapping)):
                if not isinstance(h.get(key), types):
                    problems.append(f"histograms[{name!r}].{key} malformed")
            if isinstance(h.get("buckets"), Mapping):
                total = 0
                for b, n in h["buckets"].items():
                    if not str(b).isdigit() or not isinstance(n, int):
                        problems.append(
                            f"histograms[{name!r}].buckets[{b!r}] malformed")
                    else:
                        total += n
                if isinstance(h.get("count"), int) and total != h["count"]:
                    problems.append(
                        f"histograms[{name!r}] bucket counts != count")
    occ = d.get("occupancy")
    if isinstance(occ, Mapping):
        for key, types in (("sample_every", int), ("series", list),
                           ("peak_total", int), ("peak_time_ps", int),
                           ("final_total", int), ("queue_peaks", Mapping)):
            if not isinstance(occ.get(key), types):
                problems.append(f"occupancy.{key} malformed")
        if isinstance(occ.get("series"), list):
            for i, pair in enumerate(occ["series"]):
                if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                        or not all(isinstance(x, int) for x in pair)):
                    problems.append(f"occupancy.series[{i}] malformed")
                    break
    return problems
