"""Parse-time validation of the pool/checkpoint CLI flags: bad values
die at the parser with messages naming the constraint, never deep in a
half-finished sweep."""

import json

import pytest

from repro.analysis.cli import build_parser, main


@pytest.fixture()
def parser():
    return build_parser()


def _parse_error(parser, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 2           # argparse usage error
    return capsys.readouterr().err


@pytest.mark.parametrize("argv, needle", [
    (["sweep", "all", "--jobs", "0"], "at least one worker"),
    (["sweep", "all", "--jobs", "many"], "must be an integer"),
    (["run", "all", "--jobs", "-3"], "at least one worker"),
    (["sweep", "all", "--timeout", "-5"], "must be positive"),
    (["sweep", "all", "--timeout", "0"], "must be positive"),
    (["sweep", "all", "--timeout", "soon"], "number of seconds"),
    (["sweep", "all", "--retries", "-1"], ">= 0"),
    (["sweep", "all", "--backoff", "-0.5"], ">= 0"),
    (["checkpoint-run", "latency-lqd-burst", "--checkpoint-every", "0"],
     ">= 1 ps"),
    (["checkpoint-run", "latency-lqd-burst", "--checkpoint-every", "x"],
     "picosecond count"),
])
def test_bad_flag_values_fail_at_parse_time(parser, capsys, argv, needle):
    err = _parse_error(parser, capsys, argv)
    assert needle in err


def test_good_flag_values_parse(parser):
    args = parser.parse_args(
        ["sweep", "all", "--jobs", "4", "--timeout", "2.5",
         "--retries", "2", "--backoff", "0.05"])
    assert (args.jobs, args.timeout, args.retries, args.backoff) == \
        (4, 2.5, 2, 0.05)


def test_checkpoint_run_needs_scenario_or_resume(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["checkpoint-run"])
    assert "scenario name or --resume-from" in str(exc.value)


def test_checkpoint_run_has_no_engine_flag(capsys):
    """Only the stream engine checkpoints, so ``--engine`` is gone: the
    reference kernel is the unbroken oracle, not a checkpoint engine."""
    with pytest.raises(SystemExit) as exc:
        main(["checkpoint-run", "latency-lqd-burst", "--fast",
              "--engine", "reference"])
    assert exc.value.code == 2           # argparse usage error
    assert "unrecognized arguments: --engine" in capsys.readouterr().err


def test_checkpoint_run_rejects_unknown_scenario(parser, capsys):
    err = _parse_error(parser, capsys, ["checkpoint-run", "no-such"])
    assert "invalid choice" in err


def test_checkpoint_run_round_trip_smoke(tmp_path, capsys):
    """End-to-end through main(): run fresh with periodic checkpoints,
    resume the last one, and get the identical summary."""
    ckpt_dir = str(tmp_path / "ckpts")
    fresh_json = str(tmp_path / "fresh.json")
    main(["checkpoint-run", "latency-lqd-burst", "--fast", "--quiet",
          "--checkpoint-every", "400000000", "--checkpoint-dir", ckpt_dir,
          "--json", fresh_json])
    capsys.readouterr()
    files = sorted((tmp_path / "ckpts").glob("*.json"),
                   key=lambda p: int(p.stem.rsplit("-", 1)[1]))
    assert files, "periodic checkpointing produced no files"

    resumed_json = str(tmp_path / "resumed.json")
    main(["checkpoint-run", "--resume-from", str(files[-1]),
          "--quiet", "--json", resumed_json])
    capsys.readouterr()

    fresh = json.load(open(fresh_json))
    resumed = json.load(open(resumed_json))
    assert fresh["result"] == resumed["result"]
    assert fresh["engine"] == resumed["engine"]
    assert fresh["scenario"] == resumed["scenario"] == "latency-lqd-burst"
    assert resumed["checkpoints"] == []      # resume ran straight through
