"""Tests for the packet abstraction."""

import pytest

from repro.net import Packet, SEGMENT_BYTES


def test_segment_count_exact_multiple():
    assert Packet(128).num_segments == 2

def test_segment_count_rounds_up():
    assert Packet(129).num_segments == 3
    assert Packet(1).num_segments == 1

def test_min_ethernet_frame_is_one_segment():
    assert Packet(64).num_segments == 1

def test_segment_lengths_last_short():
    p = Packet(150)
    assert p.segment_lengths() == [64, 64, 22]
    assert sum(p.segment_lengths()) == 150

def test_segment_lengths_full():
    assert Packet(128).segment_lengths() == [64, 64]

def test_pids_unique():
    a, b = Packet(64), Packet(64)
    assert a.pid != b.pid

def test_validation():
    with pytest.raises(ValueError):
        Packet(0)
    with pytest.raises(ValueError):
        Packet(64, flow_id=-1)

def test_segment_bytes_constant():
    assert SEGMENT_BYTES == 64
