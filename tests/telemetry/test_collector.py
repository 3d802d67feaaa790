"""Unit tests for the standard MMS probe and its snapshot schema."""

import json

import pytest

from repro.core.commands import CommandType
from repro.policies.base import DroppedSegment
from repro.telemetry import (
    MmsTelemetry,
    TelemetrySnapshot,
    TelemetrySpec,
    validate_telemetry_dict,
)

ENQ = CommandType.ENQUEUE
DEQ = CommandType.DEQUEUE
MOVE = CommandType.MOVE


# ------------------------------------------------------------- spec

def test_spec_validation():
    TelemetrySpec(sample_every=1, percentiles=(1.0, 100.0))
    with pytest.raises(ValueError, match="sample_every"):
        TelemetrySpec(sample_every=0)
    with pytest.raises(ValueError, match="percentiles"):
        TelemetrySpec(percentiles=())
    with pytest.raises(ValueError, match="percentiles"):
        TelemetrySpec(percentiles=(0.0,))
    with pytest.raises(ValueError, match="percentiles"):
        TelemetrySpec(percentiles=(101.0,))


# ------------------------------------------------------ command channel

def test_command_channel_counters_and_occupancy():
    tel = MmsTelemetry(TelemetrySpec(sample_every=2))
    tel.on_command(100, ENQ, 3, 17, queue_depth=1, total_segments=1)
    tel.on_command(200, ENQ, 3, 18, queue_depth=2, total_segments=2)
    tel.on_command(300, ENQ, 4,
                   DroppedSegment(queue=4, length=64, reason="buffer full"),
                   queue_depth=0, total_segments=2)
    tel.on_command(400, DEQ, 3, object(), queue_depth=1, total_segments=1)
    snap = tel.snapshot()
    c = snap.counters
    assert c["commands"] == 4
    assert c["by_op"] == {"dequeue": 1, "enqueue": 3}
    assert c["dropped_commands"] == 1
    assert c["drops_by_reason"] == {"buffer full": 1}
    occ = snap.occupancy
    # stride 2: commands 0 and 2 sampled
    assert occ["series"] == [[100, 1], [300, 2]]
    assert occ["peak_total"] == 2
    assert occ["peak_time_ps"] == 200  # first time the peak was reached
    assert occ["final_total"] == 1
    assert occ["queue_peaks"] == {"3": 2, "4": 0}


def test_record_channel_histograms_by_class():
    tel = MmsTelemetry()
    tel.on_records([(1000, 2.0, 10.0, 5.0, 14.0, ENQ),
                    (2000, 3.0, 11.0, 6.0, 16.0, DEQ),
                    (3000, 0.0, 8.0, 0.0, 8.0, MOVE)])
    h = tel.snapshot().histograms
    assert set(h) == {"all.e2e", "all.fifo", "enqueue.e2e", "enqueue.fifo",
                      "dequeue.e2e", "dequeue.fifo", "other.e2e",
                      "other.fifo"}
    assert h["all.e2e"]["count"] == 3
    assert h["enqueue.e2e"]["count"] == 1
    assert h["enqueue.e2e"]["max"] == 14.0
    assert h["dequeue.fifo"]["max"] == 3.0
    assert h["other.e2e"]["sum"] == 8.0


def test_channels_are_independent():
    """Folding the channels in either order yields the same snapshot
    (the stream engine replays records after all commands)."""
    a, b = MmsTelemetry(), MmsTelemetry()
    commands = [(100 * i, ENQ, i % 3, i, 1, i + 1) for i in range(10)]
    records = [(100 * i + 50, 1.0 * i, 10.0, 2.0, 12.0 + i, ENQ)
               for i in range(10)]
    for cmd in commands:
        a.on_command(*cmd)
    a.on_records(records)
    b.on_records(records)
    for cmd in commands:
        b.on_command(*cmd)
    assert a.snapshot().to_dict() == b.snapshot().to_dict()


# ----------------------------------------------------------- snapshot

def _sample_snapshot():
    tel = MmsTelemetry(TelemetrySpec(sample_every=4))
    records = []
    for i in range(50):
        op = ENQ if i % 2 == 0 else DEQ
        tel.on_command(1000 * i, op, i % 5, i, queue_depth=i % 7,
                       total_segments=i % 11)
        records.append((1000 * i + 500, 0.5 * i, 10.5, 3.25, 14.25 + i, op))
    tel.on_records(records)
    return tel.snapshot()


def test_snapshot_json_round_trip_is_exact():
    snap = _sample_snapshot()
    d = snap.to_dict()
    assert validate_telemetry_dict(d) == []
    blob = json.dumps(d)
    back = TelemetrySnapshot.from_dict(json.loads(blob))
    assert back.to_dict() == d
    assert json.dumps(back.to_dict()) == blob


def test_snapshot_keys_deterministically_sorted():
    d = _sample_snapshot().to_dict()
    assert list(d["histograms"]) == sorted(d["histograms"])
    assert list(d["counters"]["by_op"]) == sorted(d["counters"]["by_op"])
    qp = d["occupancy"]["queue_peaks"]
    assert list(qp) == sorted(qp, key=int)


def test_snapshot_percentile_recompute_matches_summary():
    snap = _sample_snapshot()
    for name, h in snap.histograms.items():
        for label, value in h["percentiles"].items():
            if label == "max":
                continue
            p = float(label.lstrip("p"))
            assert snap.percentile(name, p) == value


def test_validate_rejects_malformed_payloads():
    good = _sample_snapshot().to_dict()
    assert validate_telemetry_dict(good) == []
    assert validate_telemetry_dict({"schema": 99}) != []
    bad = json.loads(json.dumps(good))
    first_bucket = next(iter(bad["histograms"]["all.e2e"]["buckets"]))
    bad["histograms"]["all.e2e"]["buckets"][first_bucket] += 1
    assert any("bucket counts" in p for p in validate_telemetry_dict(bad))
    bad2 = json.loads(json.dumps(good))
    bad2["occupancy"]["series"].append([1, 2, 3])
    assert any("series" in p for p in validate_telemetry_dict(bad2))
    with pytest.raises(ValueError, match="invalid telemetry"):
        TelemetrySnapshot.from_dict({"schema": 1})
