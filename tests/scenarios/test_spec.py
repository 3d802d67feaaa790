"""Tests for the declarative scenario specifications."""

import dataclasses

import pytest

from repro.core.mms import MmsConfig
from repro.scenarios import ScenarioSpec, TrafficSpec


def _spec(**kw):
    base = dict(name="demo", kind="table", title="Demo", workload="ddr",
                supports=frozenset({"engine", "seed", "budget"}))
    base.update(kw)
    if "fastpath" not in kw:
        # keep the helper consistent with the engine-knob invariant
        base["fastpath"] = "bank" if "engine" in base["supports"] \
            else "none"
    return ScenarioSpec(**base)


def test_spec_is_frozen():
    spec = _spec()
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.engine = "reference"


def test_spec_rejects_unknown_engine():
    with pytest.raises(ValueError, match="engine"):
        _spec(engine="warp")


def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        _spec(kind="poster")


def test_spec_rejects_unknown_budget():
    with pytest.raises(ValueError, match="budget"):
        _spec(budget="leisurely")


def test_spec_rejects_unknown_supports():
    with pytest.raises(ValueError, match="supports"):
        _spec(supports=frozenset({"engine", "turbo"}))


def test_spec_rejects_empty_name():
    with pytest.raises(ValueError, match="name"):
        _spec(name="")


def test_pick_resolves_budget_pairs():
    spec = _spec(traffic=TrafficSpec(num_accesses=(100, 10)))
    assert spec.pick(spec.traffic.num_accesses) == 100
    fast = dataclasses.replace(spec, budget="fast")
    assert fast.pick(fast.traffic.num_accesses) == 10


def test_with_options_applies_supported_knobs():
    spec = _spec()
    out = spec.with_options(engine="reference", seed=7, budget="fast")
    assert (out.engine, out.seed, out.budget) == ("reference", 7, "fast")
    # the original is untouched
    assert (spec.engine, spec.seed, spec.budget) == ("fast", 2005, "full")


def test_with_options_ignores_unsupported_knobs():
    spec = _spec(supports=frozenset())
    out = spec.with_options(engine="reference", seed=7, budget="fast",
                            mms=MmsConfig(num_flows=4, num_segments=4,
                                          num_descriptors=4))
    assert out is spec


def test_with_options_rejects_unknown_engine_even_when_unsupported():
    """A typo must fail loudly, not be silently ignored."""
    for supports in (frozenset(), frozenset({"engine"})):
        spec = _spec(supports=supports)
        with pytest.raises(ValueError, match="engine"):
            spec.with_options(engine="warp")


def test_with_options_rejects_unknown_budget_even_when_unsupported():
    for supports in (frozenset(), frozenset({"budget"})):
        spec = _spec(supports=supports)
        with pytest.raises(ValueError, match="budget"):
            spec.with_options(budget="leisurely")


def test_spec_accepts_overload_kind_and_policy():
    from repro.policies import PolicySpec
    spec = _spec(kind="overload", policy=PolicySpec(name="lqd"))
    assert spec.kind == "overload"
    assert spec.policy.name == "lqd"


def test_with_options_none_is_identity():
    spec = _spec()
    assert spec.with_options() is spec


def test_effective_engine_for_closed_form():
    assert _spec().effective_engine == "fast"
    assert _spec(supports=frozenset()).effective_engine == "n/a"


# ------------------------------------------------- traffic pattern registry

def test_traffic_pattern_accepts_known_shapes_and_empty():
    from repro.policies.harness import SHAPES
    assert TrafficSpec().pattern == ""
    for shape in SHAPES:
        assert TrafficSpec(pattern=shape).pattern == shape


def test_traffic_pattern_rejects_typos_at_construction():
    with pytest.raises(ValueError, match="unknown traffic pattern"):
        TrafficSpec(pattern="bursty")
    # the error is helpful: it lists the registry of known shapes
    with pytest.raises(ValueError, match="burst.*sustained.*incast"):
        TrafficSpec(pattern="sustaned")


# ------------------------------------------------------- telemetry knob

def test_telemetry_requires_supports_declaration():
    from repro.telemetry import TelemetrySpec
    with pytest.raises(ValueError, match="telemetry"):
        _spec(telemetry=TelemetrySpec())
    spec = _spec(telemetry=TelemetrySpec(),
                 supports=frozenset({"engine", "telemetry"}))
    assert spec.telemetry is not None


def test_with_options_telemetry_turns_on_where_supported():
    from repro.telemetry import TelemetrySpec
    tele = TelemetrySpec(sample_every=8)
    on = _spec(supports=frozenset({"engine", "telemetry"})) \
        .with_options(telemetry=tele)
    assert on.telemetry is tele
    # unsupported scenarios ignore the knob (uniform `run all --telemetry`)
    off = _spec(supports=frozenset({"engine"})).with_options(telemetry=tele)
    assert off.telemetry is None
    # an explicit spec re-tunes always-on scenarios (overrides, like
    # every other supported knob); omitting the knob keeps their own
    own = _spec(telemetry=TelemetrySpec(),
                supports=frozenset({"engine", "telemetry"}))
    assert own.with_options(telemetry=tele).telemetry is tele
    assert own.with_options().telemetry == TelemetrySpec()


def test_with_options_rejects_non_spec_telemetry():
    spec = _spec(supports=frozenset({"engine", "telemetry"}))
    with pytest.raises(ValueError, match="TelemetrySpec"):
        spec.with_options(telemetry="yes")
