"""Packet abstraction shared by every model in the repo.

A :class:`Packet` is deliberately minimal: identity, flow, length and a
free-form ``fields`` mapping for application state (MAC addresses, VLAN
tags, IP 5-tuples...).  The models never inspect payload bytes -- the
paper's systems move segments, not semantics -- so no payload is stored.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict

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
    fields:
        Free-form header fields (addresses, tags) a caller may carry
        with the packet; no model in :mod:`repro` reads them.
    """

    length_bytes: int
    flow_id: int = 0
    pid: int = field(default_factory=lambda: next(_packet_ids))
    fields: Dict[str, Any] = field(default_factory=dict)

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

    def with_fields(self, **updates: Any) -> "Packet":
        """Copy of this packet with ``fields`` updated (headers rewritten).

        Identity (pid) is preserved, as the MMS overwrite command
        modifies segments in place.
        """
        merged = dict(self.fields)
        merged.update(updates)
        return Packet(length_bytes=self.length_bytes, flow_id=self.flow_id,
                      pid=self.pid, fields=merged)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Packet(pid={self.pid}, flow={self.flow_id}, len={self.length_bytes})"
