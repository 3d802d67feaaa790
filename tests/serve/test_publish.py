"""Frame publication: line-atomic appends, torn-line tolerance,
replay-deterministic frame sequences, the probe-chain hook."""

import json
import os

import pytest

from repro.scenarios.runner import Runner
from repro.telemetry import MmsTelemetry, TelemetrySpec, publish
from repro.telemetry.publish import (
    FRAME_SCHEMA,
    FramePublisher,
    PublishingProbe,
    read_frames,
    validate_frame_dict,
)


@pytest.fixture(autouse=True)
def _no_leaked_publisher():
    yield
    publish.deactivate()


# ------------------------------------------------------- FramePublisher


def test_publisher_appends_one_line_per_frame(tmp_path):
    path = str(tmp_path / "frames.jsonl")
    with FramePublisher(path, every=1) as pub:
        pub.publish({"type": "progress", "commands": 1,
                     "telemetry": {}})
        pub.publish_done("table5", 2, None)
    lines = open(path, encoding="utf-8").read().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["schema"] == FRAME_SCHEMA
    assert [json.loads(li)["frame"] for li in lines] == [0, 1]


def test_publisher_truncates_on_open(tmp_path):
    """A retried worker starts its sequence over -- no stale frames
    from the crashed attempt survive in front of the new ones."""
    path = str(tmp_path / "frames.jsonl")
    with FramePublisher(path, every=1) as pub:
        pub.publish_done("table5", 1, None)
    with FramePublisher(path, every=1) as pub:
        pub.publish_done("table5", 2, None)
    frames = read_frames(path)
    assert len(frames) == 1
    assert frames[0]["commands"] == 2


def test_publisher_rejects_bad_stride(tmp_path):
    with pytest.raises(ValueError, match="every"):
        FramePublisher(str(tmp_path / "f.jsonl"), every=0)


def test_closed_publisher_refuses(tmp_path):
    pub = FramePublisher(str(tmp_path / "f.jsonl"))
    pub.close()
    with pytest.raises(ValueError, match="closed"):
        pub.publish({"type": "done", "scenario": "x", "commands": None,
                     "telemetry": None})
    pub.close()  # idempotent


# ----------------------------------------------------------- read_frames


def test_read_frames_drops_torn_final_line(tmp_path):
    path = str(tmp_path / "frames.jsonl")
    with FramePublisher(path, every=1) as pub:
        pub.publish_done("table5", 1, None)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"schema": 1, "frame": 1, "type": "don')  # torn
    frames = read_frames(path)
    assert len(frames) == 1
    with pytest.raises(ValueError, match="invalid frame line"):
        read_frames(path, strict=True)


def test_read_frames_raises_on_mid_file_garbage(tmp_path):
    path = str(tmp_path / "frames.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("not json\n")
        fh.write('{"schema": 1, "frame": 1, "type": "done", '
                 '"scenario": "x", "commands": null, '
                 '"telemetry": null}\n')
    with pytest.raises(ValueError, match="frames.jsonl:1"):
        read_frames(path)


def test_validate_frame_dict():
    good = {"schema": FRAME_SCHEMA, "frame": 0, "type": "done",
            "scenario": "table5", "commands": None, "telemetry": None}
    assert validate_frame_dict(good) == []
    assert validate_frame_dict([]) == ["frame is not an object"]
    assert any("schema" in p for p in validate_frame_dict(
        {**good, "schema": 99}))
    assert any("type" in p for p in validate_frame_dict(
        {**good, "type": "bogus"}))
    progress = {"schema": FRAME_SCHEMA, "frame": 1, "type": "progress",
                "commands": 256, "telemetry": {}}
    assert validate_frame_dict(progress) == []
    assert any("telemetry" in p for p in validate_frame_dict(
        {**progress, "telemetry": 3}))


# -------------------------------------------------------- the probe hook


def test_probe_publishes_every_n_commands(tmp_path):
    path = str(tmp_path / "frames.jsonl")
    tele = MmsTelemetry(TelemetrySpec())
    with FramePublisher(path, every=2) as pub:
        probe = PublishingProbe(pub, tele)
        for i in range(5):
            probe.on_command(i * 10, None, 0, None, 1, 1)
    frames = read_frames(path, strict=True)
    assert [f["commands"] for f in frames] == [2, 4]
    assert all(f["type"] == "progress" for f in frames)
    assert all(validate_frame_dict(f) == [] for f in frames)


def test_inactive_publisher_publishes_nothing(tmp_path):
    """No activation -> the probe chain gets no publisher probe and a
    plain run writes no frames anywhere."""
    assert publish.active_probe(MmsTelemetry(TelemetrySpec())) is None
    assert publish.active_probe(None) is None


def test_activated_run_streams_frames_and_final_identity(tmp_path):
    path = str(tmp_path / "frames.jsonl")
    pub = FramePublisher(path, every=120)
    publish.activate(pub)
    try:
        result = Runner().run("latency-lqd-burst", budget="fast")
    finally:
        publish.deactivate()
    telemetry = result.metrics["telemetry"]
    pub.publish_done(result.scenario,
                     telemetry["counters"]["commands"], telemetry)
    pub.close()
    frames = read_frames(path, strict=True)
    assert len(frames) >= 3
    assert frames[-1]["type"] == "done"
    assert frames[-1]["telemetry"] == telemetry
    # progress frames are keyed by command count, strictly increasing
    commands = [f["commands"] for f in frames[:-1]]
    assert commands == sorted(commands)
    assert all(c % 120 == 0 for c in commands)


def test_frame_sequence_is_replay_deterministic(tmp_path):
    """Same spec, same publisher stride -> byte-identical progress
    frame sequence."""
    sequences = []
    for attempt in ("a", "b"):
        path = str(tmp_path / f"frames-{attempt}.jsonl")
        publish.activate(FramePublisher(path, every=150))
        try:
            Runner().run("latency-lqd-burst", budget="fast")
        finally:
            publish.deactivate()
        sequences.append(open(path, encoding="utf-8").read())
    assert sequences[0] == sequences[1]
    assert sequences[0]  # non-empty: frames were actually published


def test_frame_sequence_is_byte_identical_across_engines(tmp_path):
    """Both engines feed ``on_command`` live and replay the latency
    records after the run, so mid-run progress frames -- not just the
    terminal telemetry -- are byte-identical across engines."""
    sequences = []
    for engine in ("fast", "reference"):
        path = str(tmp_path / f"frames-{engine}.jsonl")
        publish.activate(FramePublisher(path, every=64))
        try:
            Runner().run("latency-lqd-burst", fast=True, engine=engine)
        finally:
            publish.deactivate()
        sequences.append(open(path, encoding="utf-8").read())
    assert sequences[0] == sequences[1]
    assert len(read_frames(str(tmp_path / "frames-fast.jsonl"))) > 1


def test_publish_is_structurally_absent_from_plain_runs(tmp_path):
    """A plain CLI-style run must not import the serve daemon."""
    import subprocess
    import sys
    code = (
        "import sys\n"
        "from repro.scenarios.runner import Runner\n"
        "Runner().run('latency-lqd-burst', budget='fast')\n"
        "assert 'repro.serve' not in sys.modules\n"
        "assert 'asyncio' not in sys.modules\n"
        "print('structurally absent')\n"
    )
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=os.path.dirname(os.path.dirname(
                              os.path.dirname(__file__))),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "structurally absent" in proc.stdout
