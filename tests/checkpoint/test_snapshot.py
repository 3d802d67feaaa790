"""Checkpoint envelope, config serialization, state-dict round trips
and the feeder tape semantics."""

import json

import pytest

from repro.checkpoint import (
    CHECKPOINT_SCHEMA,
    Checkpoint,
    CheckpointError,
    config_from_dict,
    config_to_dict,
    telemetry_spec_from_dict,
    telemetry_spec_to_dict,
    validate_checkpoint_dict,
)
from repro.checkpoint.feeders import (
    CountedFeeder,
    CounterView,
    Tape,
    TapeMismatchError,
)
from repro.core.mms import MmsConfig
from repro.policies import PolicySpec, make_policy
from repro.telemetry import MmsTelemetry, TelemetrySpec


def _checkpoint(**overrides):
    kwargs = dict(engine="stream", workload="script", at_ps=123,
                  params={"p": 1}, state={"s": 2})
    kwargs.update(overrides)
    return Checkpoint(**kwargs)


# ------------------------------------------------------------ envelope

def test_checkpoint_json_round_trip(tmp_path):
    ck = _checkpoint()
    again = Checkpoint.from_json(ck.to_json())
    assert again == ck
    path = str(tmp_path / "ck.json")
    ck.save(path)
    assert Checkpoint.load(path) == ck
    assert ck.schema == CHECKPOINT_SCHEMA


def test_checkpoint_rejects_bad_engine_and_clock():
    with pytest.raises(ValueError, match="unknown checkpoint engine"):
        _checkpoint(engine="quantum")
    with pytest.raises(ValueError, match="at_ps"):
        _checkpoint(at_ps=-1)


@pytest.mark.parametrize("mutate, problem", [
    (lambda d: d.update(schema=99), "schema"),
    (lambda d: d.update(engine="x"), "engine"),
    (lambda d: d.update(workload=""), "workload"),
    (lambda d: d.update(at_ps=True), "at_ps"),
    (lambda d: d.update(at_ps="soon"), "at_ps"),
    (lambda d: d.update(params=None), "params"),
    (lambda d: d.pop("state"), "state"),
])
def test_validate_checkpoint_dict_names_the_problem(mutate, problem):
    d = _checkpoint().to_dict()
    mutate(d)
    problems = validate_checkpoint_dict(d)
    assert problems and any(problem in p for p in problems)
    with pytest.raises(CheckpointError, match="invalid checkpoint"):
        Checkpoint.from_dict(d)


def test_validate_accepts_well_formed():
    assert validate_checkpoint_dict(_checkpoint().to_dict()) == []


# ------------------------------------------------- config round trips

def test_config_round_trip_is_exact():
    cfg = MmsConfig(num_flows=64, num_segments=96, num_descriptors=96,
                    policy=PolicySpec("dynamic-threshold", alpha=0.75),
                    policy_seed=17, policy_records=True)
    d = json.loads(json.dumps(config_to_dict(cfg)))
    assert config_from_dict(d) == cfg


def test_config_round_trip_no_policy():
    cfg = MmsConfig(num_flows=16, num_segments=4096, num_descriptors=2048)
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_telemetry_spec_round_trip():
    spec = TelemetrySpec(sample_every=8, percentiles=(50.0, 99.9))
    d = json.loads(json.dumps(telemetry_spec_to_dict(spec)))
    assert telemetry_spec_from_dict(d) == spec


# --------------------------------------------- policy state round trip

def _exercised_policy(name):
    """A policy mid-overload (books populated, records accrued, RED's
    RNG advanced), plus its build spec."""
    from repro.checkpoint import StreamRun, overload_params

    spec = PolicySpec(name, alpha=0.75) if name == "dynamic-threshold" \
        else PolicySpec(name)
    cfg = MmsConfig(num_flows=64, num_segments=96, num_descriptors=96,
                    policy=spec, policy_seed=11, policy_records=True)
    run = StreamRun.fresh(
        "overload",
        overload_params(cfg, "burst", num_arrivals=180, active_flows=16))
    run.run(run.horizon // 2)
    return run.eng.policy, spec, cfg


@pytest.mark.parametrize("name", ["taildrop", "red", "dynamic-threshold",
                                  "lqd"])
def test_policy_state_dict_round_trip(name):
    pol, spec, cfg = _exercised_policy(name)
    assert pol.stats.offered_segments > 0
    state = json.loads(json.dumps(pol.state_dict()))
    twin = make_policy(spec, cfg.num_segments, seed=cfg.policy_seed,
                       keep_records=True)
    twin.load_state(state)
    assert twin.state_dict() == pol.state_dict()
    assert twin.stats.records == pol.stats.records   # typed DropRecords


def test_red_rng_state_survives_round_trip():
    """RED's probabilistic drops depend on its private RNG: after a
    round trip the *future* random draws must line up exactly."""
    pol, spec, cfg = _exercised_policy("red")
    twin = make_policy(spec, cfg.num_segments, seed=cfg.policy_seed)
    twin.load_state(json.loads(json.dumps(pol.state_dict())))
    assert twin._rng.getstate() == pol._rng.getstate()
    assert twin.avg == pol.avg
    assert [twin._rng.random() for _ in range(5)] == \
        [pol._rng.random() for _ in range(5)]


# ------------------------------------------- telemetry state round trip

def test_telemetry_state_round_trip_continues_identically():
    from repro.core.commands import CommandType

    def drive(tel, lo, hi):
        records = []
        for i in range(lo, hi):
            op = CommandType.ENQUEUE if i % 3 else CommandType.DEQUEUE
            tel.on_command(i * 100, op, i % 5, None, i % 4, i % 7)
            records.append((i * 100, 2.0, 10.5 + i % 9, 4.0, 16.5 + i % 9,
                            op))
        tel.on_records(records)

    whole = MmsTelemetry(TelemetrySpec(sample_every=4))
    drive(whole, 0, 500)

    first = MmsTelemetry(TelemetrySpec(sample_every=4))
    drive(first, 0, 250)
    second = MmsTelemetry(TelemetrySpec(sample_every=4))
    second.load_state(json.loads(json.dumps(first.state_dict())))
    drive(second, 250, 500)
    assert json.dumps(second.snapshot().to_dict()) == \
        json.dumps(whole.snapshot().to_dict())


def test_telemetry_load_state_rejects_stride_mismatch():
    a = MmsTelemetry(TelemetrySpec(sample_every=4))
    b = MmsTelemetry(TelemetrySpec(sample_every=8))
    with pytest.raises(ValueError, match="sample_every"):
        b.load_state(a.state_dict())


# ------------------------------------------------------- feeder tapes

def test_tape_records_then_replays():
    clock = iter([10, 20, 30])
    tape = Tape()
    fn = tape.wrap(lambda: next(clock))
    assert [fn(), fn()] == [10, 20]

    tape2 = Tape(tape.log)
    tape2.start_replay()
    dead = tape2.wrap(lambda: (_ for _ in ()).throw(AssertionError))
    assert [dead(), dead()] == [10, 20]   # served from the log
    tape2.end_replay()


def test_tape_replay_mismatches_raise():
    tape = Tape([1])
    tape.start_replay()
    tape.observe(None)
    with pytest.raises(TapeMismatchError, match="asked for another"):
        tape.observe(None)
    short = Tape([1, 2])
    short.start_replay()
    short.observe(None)
    with pytest.raises(TapeMismatchError, match="consumed 1 of 2"):
        short.end_replay()


def test_counter_view_suppresses_writes_during_replay():
    store = {"n": 5}
    tape = Tape()
    view = CounterView(store, tape)
    view["n"] = view["n"] + 1          # live read-modify-write
    assert store["n"] == 6

    restored = {"n": 6}
    tape2 = Tape(tape.log)
    tape2.start_replay()
    view2 = CounterView(restored, tape2)
    # the replayed += consumes the last tape entry on its *read*; the
    # *write* must still be suppressed (replay is a phase, not
    # tape exhaustion)
    view2["n"] = view2["n"] + 1
    assert restored["n"] == 6
    tape2.end_replay()


def test_counted_feeder_fast_forward_and_finish():
    def gen(counters):
        yield 1
        yield 2
        counters["done"] = counters.get("done", 0) + 1

    store = {}
    tape = Tape()
    feeder = CountedFeeder(gen(CounterView(store, tape)), tape)
    assert list(feeder) == [1, 2]
    assert feeder.finished and feeder.ops == 2
    assert store == {"done": 1}

    st = feeder.state_dict()
    tape2 = Tape(st["tape"])
    twin = CountedFeeder(gen(CounterView(dict(store), tape2)), tape2)
    twin.fast_forward(st["ops"], st["finished"])
    assert twin.finished
    with pytest.raises(StopIteration):
        next(twin)


def test_counted_feeder_fast_forward_detects_divergence():
    def gen():
        yield 1

    feeder = CountedFeeder(gen(), Tape())
    with pytest.raises(TapeMismatchError, match="finished after 1 of 3"):
        feeder.fast_forward(3, False)

    feeder2 = CountedFeeder(gen(), Tape())
    with pytest.raises(TapeMismatchError, match="yielded another op"):
        feeder2.fast_forward(0, True)
