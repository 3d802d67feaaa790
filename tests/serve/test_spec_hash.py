"""``ScenarioSpec.spec_hash()``: the cache-key primitive.

Equal specs must hash equal, any field change must change the hash,
and the canonical form must be insensitive to dict ordering -- the
properties the serving daemon's content-addressed cache rests on.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.scenarios.registry import all_scenarios, get_scenario
from repro.scenarios.spec import (
    ScenarioSpec,
    TrafficSpec,
    canonical_value,
)
from repro.telemetry import TelemetrySpec


def _spec(**overrides):
    base = dict(name="latency-lqd-burst", kind="latency",
                title="t", workload="mms")
    base.update(overrides)
    return ScenarioSpec(**base)


def test_equal_specs_hash_equal():
    assert _spec().spec_hash() == _spec().spec_hash()


def test_hash_is_sha256_hex():
    h = _spec().spec_hash()
    assert len(h) == 64
    assert set(h) <= set("0123456789abcdef")


def test_hash_matches_canonical_json_digest():
    spec = _spec()
    text = json.dumps(spec.canonical_dict(), sort_keys=True,
                      separators=(",", ":"))
    assert spec.spec_hash() == hashlib.sha256(
        text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("field,value", [
    ("name", "latency-red-burst"),
    ("kind", "overload"),
    ("title", "other"),
    ("workload", "ddr"),
    ("description", "changed"),
    ("engine", "reference"),
    ("seed", 7),
    ("budget", "fast"),
    ("traffic", TrafficSpec(pattern="sustained")),
    ("supports", frozenset({"seed"})),
])
def test_any_field_change_changes_the_hash(field, value):
    base = _spec()
    changed = dataclasses.replace(base, **{field: value})
    assert base.spec_hash() != changed.spec_hash(), field


def test_capability_change_changes_the_hash():
    """Growing an engine knob (supports + fastpath move together --
    the spec validates them as a pair) changes the hash."""
    base = _spec()
    changed = dataclasses.replace(base,
                                  supports=frozenset({"engine"}),
                                  fastpath="stream")
    assert base.spec_hash() != changed.spec_hash()


def test_nested_spec_change_changes_the_hash():
    base = get_scenario("latency-lqd-burst").spec
    tuned = base.with_options(telemetry=TelemetrySpec(sample_every=8))
    assert base.spec_hash() != tuned.spec_hash()


@pytest.mark.parametrize("knob", [
    {"engine": "reference"}, {"seed": 99}, {"budget": "fast"},
])
def test_knob_overrides_change_the_hash(knob):
    base = get_scenario("latency-lqd-burst").spec
    assert base.spec_hash() != base.with_options(**knob).spec_hash()


def test_every_registered_scenario_hashes_distinct():
    hashes = {s.spec.spec_hash() for s in all_scenarios().values()}
    assert len(hashes) == len(all_scenarios())


def test_canonical_value_is_dict_order_insensitive():
    a = {"x": 1, "y": [1, 2], "z": {"p": True, "q": None}}
    b = {"z": {"q": None, "p": True}, "y": [1, 2], "x": 1}
    dump = lambda v: json.dumps(canonical_value(v), sort_keys=True)  # noqa: E731
    assert dump(a) == dump(b)


def test_canonical_value_sorts_sets_and_tags_dataclasses():
    assert canonical_value(frozenset({"b", "a"})) == ["a", "b"]
    doc = canonical_value(TrafficSpec())
    assert doc["__type__"] == "TrafficSpec"


def test_canonical_value_rejects_opaque_objects():
    with pytest.raises(TypeError, match="canonical JSON form"):
        canonical_value(object())


def test_hash_survives_registry_round_trip():
    """The registered spec and an identical with_options copy agree."""
    spec = get_scenario("table5").spec
    assert spec.spec_hash() == spec.with_options().spec_hash()
