"""Packet abstraction shared by every model in the repo.

A :class:`Packet` is deliberately minimal: identity, flow and length.
The models never inspect headers or payload bytes -- the paper's
systems move segments, not semantics -- so neither is stored.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

#: The fixed segment size every system in the paper uses: "the incoming
#: data items are partitioned into fixed size segments of 64 bytes each".
SEGMENT_BYTES = 64

_packet_ids = itertools.count()


@dataclass
class Packet:
    """One network packet.

    Attributes
    ----------
    length_bytes:
        Frame length (Ethernet: 64-1518 for the standard range).
    flow_id:
        The flow/queue this packet belongs to.  "Most modern networking
        technologies share the notion of connections or flows"; queue
        managers map each packet to a flow queue.
    pid:
        Unique packet id (auto-assigned).
    """

    length_bytes: int
    flow_id: int = 0
    pid: int = field(default_factory=lambda: next(_packet_ids))

    def __post_init__(self) -> None:
        if self.length_bytes <= 0:
            raise ValueError(f"length_bytes must be positive, got {self.length_bytes}")
        if self.flow_id < 0:
            raise ValueError(f"flow_id must be >= 0, got {self.flow_id}")

    @property
    def num_segments(self) -> int:
        """Number of 64-byte segments this packet occupies."""
        return -(-self.length_bytes // SEGMENT_BYTES)

    def segment_lengths(self) -> list[int]:
        """Byte length of each segment; only the last may be short."""
        full, rem = divmod(self.length_bytes, SEGMENT_BYTES)
        lengths = [SEGMENT_BYTES] * full
        if rem:
            lengths.append(rem)
        return lengths

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Packet(pid={self.pid}, flow={self.flow_id}, len={self.length_bytes})"
