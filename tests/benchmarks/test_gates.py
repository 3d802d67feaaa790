"""The gate verdict (``benchmarks/gates.py``): each floor and the exit
code, on synthetic readings -- never by timing anything."""

import pytest

from benchmarks.gates import GATES, report, verdict

PASSING = {
    "table1_speedup": 15.0,
    "table5_stream_speedup": 3.6,
    "table2_speedup": 100.0,
    "serve_cached_rps": 300.0,
}

#: A reading just below each floor.
JUST_PAST = {
    "table1_speedup": 10.99,
    "table5_stream_speedup": 2.99,
    "table2_speedup": 9.99,
    "serve_cached_rps": 19.9,
}


def test_thresholds_are_the_published_ones():
    assert {name: floor for name, floor, _what in GATES} == {
        "table1_speedup": 11.0,
        "table5_stream_speedup": 3.0,
        "table2_speedup": 10.0,
        "serve_cached_rps": 20.0,
    }


def test_passing_readings_have_no_failures():
    assert verdict(PASSING) == []


def test_readings_at_the_threshold_pass():
    at = {name: floor for name, floor, _what in GATES}
    assert verdict(at) == []


@pytest.mark.parametrize("name", sorted(JUST_PAST))
def test_reading_just_past_each_threshold_fails(name):
    (message,) = verdict(dict(PASSING, **{name: JUST_PAST[name]}))
    assert message.startswith(f"{name} = ")
    assert "floor" in message


def test_every_violation_is_reported():
    assert len(verdict(JUST_PAST)) == len(GATES)


def test_report_exit_codes(capsys):
    assert report(PASSING) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert all(f"{name}: " in out for name in PASSING)

    for name, value in JUST_PAST.items():
        assert report(dict(PASSING, **{name: value})) == 1
        assert f"FAIL: {name}" in capsys.readouterr().err
