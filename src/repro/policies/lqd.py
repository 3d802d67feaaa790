"""Longest Queue Drop: push out the longest queue's tail to admit.

Matsakis (PAPERS.md) proves LQD 1.5-competitive for shared-memory
switches: when the buffer is full, the arriving segment is admitted by
evicting a buffer from the *tail* of the currently longest queue --
unless the arriving queue is itself (one of) the longest, in which case
the arrival is dropped.  The victim's head (the HOL packet about to be
serviced) survives whenever the victim holds more than one packet -- a
tested invariant; a single-packet victim necessarily loses that packet.

The policy names the victim; the owning queue manager -- the MMS's
two-level :class:`~repro.queueing.packet_queues.PacketQueueManager` --
performs the actual tail push-out of a whole tail packet and reports
what it freed via :meth:`BufferPolicy.record_pushout`.  Queues the
manager cannot push out (nothing published yet) come back in
``exclude``; when no viable victim longer than the arriving queue
remains, the arrival is dropped.
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from repro.policies.base import ACCEPT, BufferPolicy, Decision


class LongestQueueDrop(BufferPolicy):
    """LQD with push-out of the longest queue's tail buffer."""

    name = "lqd"

    def decide(self, queue: int, nbytes: int, exclude: FrozenSet[int],
               blocked: bool) -> Decision:
        # ``blocked`` (descriptor exhaustion) is treated exactly like a
        # full buffer: evicting a tail packet frees its descriptor too.
        if not blocked and self.total_segments < self.capacity:
            return ACCEPT
        victim = self._longest(exclude)
        if victim is None:
            return Decision("drop", reason="lqd: no viable victim")
        if self.queue_length(victim) <= self.queue_length(queue):
            # the arriving queue is (tied for) the longest: dropping the
            # arrival is the LQD-prescribed outcome
            return Decision("drop", reason="lqd: arriving queue longest")
        return Decision("pushout", victim=victim, reason="lqd: longest queue")

    def admit_fast(self, queue: int, nbytes: int) -> bool:
        # below capacity LQD accepts unconditionally; at capacity the
        # victim scan needs the full admission context
        return self.total_segments < self.capacity

    def _longest(self, exclude: FrozenSet[int]) -> Optional[int]:
        """The longest non-excluded, non-empty queue (lowest id on ties,
        for deterministic victim selection).  Single linear scan: this
        runs on every admission once the buffer is full."""
        best: Optional[int] = None
        best_len = 0
        for q, qlen in self.queue_segments.items():
            if qlen <= 0 or q in exclude:
                continue
            if qlen > best_len or (qlen == best_len and best is not None
                                   and q < best):
                best, best_len = q, qlen
        return best
