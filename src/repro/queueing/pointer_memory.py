"""Pointer memory: the queue managers' ZBT SRAM, one word list per region.

Queue managers keep *pointers* in SRAM because "the pointer manipulation
tasks need short accesses compared to the burst data accesses needed for
buffering network packets" (Section 4).  Every data-structure operation
in :mod:`repro.queueing` runs on a :class:`PointerMemory`, which

* lays out named regions (segment links, packet descriptors, queue
  table, free-list anchors) back to back in one address space, each
  backed by its own preallocated Python list of words,
* counts reads and writes on each :class:`Region`,
* records an ordered :class:`AccessRecord` trace of one operation, which
  the platform models convert into cycles (one PLB transaction per
  access on the reference NPU; one pipelined SRAM cycle in the MMS).

There are two ways to access a region.  :meth:`PointerMemory.read` and
:meth:`~PointerMemory.write` bounds-check the index, count the access
and record it while a trace is open.  The MMS queue manager's per-command
hot path instead indexes :attr:`Region.words` directly.  It bumps the
region's counter itself and appends a record only to a trace that
records.  Its direct accesses are passed to :meth:`~PointerMemory.end_trace`,
so a count-only trace has the same length either way.

This is the mechanism that keeps Tables 3 and 4 honest: the cycle counts
are derived from the access sequences of real data-structure code, not
hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

#: Shared count-only traces: a ``range`` is immutable, so one per length
#: serves every operation (the MMS commands make at most 13 accesses).
_SPANS = tuple(range(n) for n in range(16))


class Region:
    """A named window of the pointer SRAM: its words and its counters.

    ``base`` is the region's first global address (regions are laid out
    back to back in :meth:`PointerMemory.add_region` order); ``words``
    is the preallocated backing list, empty until the layout is frozen.
    """

    __slots__ = ("name", "base", "size", "words", "reads", "writes")

    def __init__(self, name: str, base: int, size: int) -> None:
        self.name = name
        self.base = base
        self.size = size
        self.words: List[int] = []
        self.reads = 0
        self.writes = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Region({self.name!r}, base={self.base}, size={self.size}, "
                f"r={self.reads}, w={self.writes})")


@dataclass(frozen=True)
class AccessRecord:
    """One pointer-memory access in an operation trace."""

    kind: str  # "R" or "W"
    region: str
    index: int


class PointerMemory:
    """Region-structured SRAM with per-region counters and op tracing."""

    def __init__(self) -> None:
        self._regions: Dict[str, Region] = {}
        self._next_base = 0
        self._frozen = False
        #: The open trace's records (None: no trace open, or count-only).
        self._trace: Optional[List[AccessRecord]] = None
        #: Method-path accesses of an open count-only trace (None: no
        #: count-only trace open).
        self._trace_n: Optional[int] = None
        #: When True, :meth:`start_trace` records only the access
        #: *count* (``end_trace`` returns a ``range`` of equal length)
        #: instead of materializing :class:`AccessRecord` objects.  The
        #: per-region counters advance identically either way; the
        #: stream engine enables this on its hot path because the
        #: published scenarios consult only trace lengths and counters.
        self.count_only_traces = False

    # ------------------------------------------------------------- layout

    def add_region(self, name: str, words: int) -> Region:
        """Allocate a region; must happen before :meth:`freeze`."""
        if self._frozen:
            raise RuntimeError("layout is frozen; cannot add regions")
        if name in self._regions:
            raise ValueError(f"region {name!r} already exists")
        if words < 1:
            raise ValueError(f"region {name!r}: words must be >= 1, got {words}")
        region = Region(name, self._next_base, words)
        self._regions[name] = region
        self._next_base += words
        return region

    def freeze(self) -> None:
        """Finalize the layout and allocate every region's words."""
        if self._frozen:
            raise RuntimeError("layout already frozen")
        if not self._regions:
            raise RuntimeError("no regions defined")
        for region in self._regions.values():
            region.words = [0] * region.size
        self._frozen = True

    @property
    def total_words(self) -> int:
        return self._next_base

    def region(self, name: str) -> Region:
        return self._regions[name]

    # ------------------------------------------------------------- access

    def read(self, region: str, index: int) -> int:
        r = self._checked(region, index)
        r.reads += 1
        if self._trace is not None:
            self._trace.append(AccessRecord("R", region, index))
        elif self._trace_n is not None:
            self._trace_n += 1
        return r.words[index]

    def write(self, region: str, index: int, value: int) -> None:
        r = self._checked(region, index)
        r.writes += 1
        r.words[index] = value
        if self._trace is not None:
            self._trace.append(AccessRecord("W", region, index))
        elif self._trace_n is not None:
            self._trace_n += 1

    def peek(self, region: str, index: int) -> int:
        """Uncounted, untraced read -- for debug walks and invariant
        checks only; never use from modelled code paths."""
        return self._checked(region, index).words[index]

    # ------------------------------------------------------------ tracing

    def start_trace(self) -> Optional[List[AccessRecord]]:
        """Begin recording accesses of one operation.

        Returns the record list that direct region accesses append to,
        or None under :attr:`count_only_traces`: then only the access
        count is kept and :meth:`end_trace` returns a ``range`` of equal
        length (``len()``-compatible with the record list it replaces).
        A trace left open by an operation that raised is discarded.
        """
        if self.count_only_traces:
            self._trace = None
            self._trace_n = 0
            return None
        trace: List[AccessRecord] = []
        self._trace = trace
        self._trace_n = None
        return trace

    def end_trace(self, direct: int = 0) -> Union[List[AccessRecord], range]:
        """Stop recording and return the ordered access list (or its
        ``range`` stand-in under :attr:`count_only_traces`).

        ``direct`` is the number of accesses the caller made on region
        words directly (it counted and recorded them itself); a
        count-only trace adds them to its length.
        """
        trace, count = self._trace, self._trace_n
        if trace is not None:
            self._trace = None
            return trace
        if count is None:
            raise RuntimeError("end_trace without start_trace")
        self._trace_n = None
        n = count + direct
        return _SPANS[n] if n < len(_SPANS) else range(n)

    # ------------------------------------------------------------- state

    def state_dict(self) -> Dict[str, Dict[str, Any]]:
        """Every region's ``words``, ``reads`` and ``writes`` (copies,
        JSON-ready) -- the whole memory state, for checkpoints and
        identity checks."""
        return {name: {"words": list(r.words), "reads": r.reads,
                       "writes": r.writes}
                for name, r in self._regions.items()}

    def load_state(self, state: Dict[str, Dict[str, Any]]) -> None:
        """Restore :meth:`state_dict` output into this (frozen) layout.  The
        word lists are refilled in place: direct users keep their
        references."""
        if set(state) != set(self._regions):
            raise ValueError(f"state regions {sorted(state)} do not match "
                             f"the layout {sorted(self._regions)}")
        for name, st in state.items():
            r = self._regions[name]
            if len(st["words"]) != r.size:
                raise ValueError(f"region {name!r}: state has "
                                 f"{len(st['words'])} words, layout has "
                                 f"{r.size}")
            r.words[:] = st["words"]
            r.reads = st["reads"]
            r.writes = st["writes"]

    # ----------------------------------------------------------- counters

    @property
    def reads_by_region(self) -> Dict[str, int]:
        return {name: r.reads for name, r in self._regions.items()}

    @property
    def writes_by_region(self) -> Dict[str, int]:
        return {name: r.writes for name, r in self._regions.items()}

    @property
    def total_reads(self) -> int:
        return sum(r.reads for r in self._regions.values())

    @property
    def total_writes(self) -> int:
        return sum(r.writes for r in self._regions.values())

    @property
    def total_accesses(self) -> int:
        return self.total_reads + self.total_writes

    def reset_counters(self) -> None:
        for r in self._regions.values():
            r.reads = 0
            r.writes = 0

    # ---------------------------------------------------------- internals

    def _checked(self, region: str, index: int) -> Region:
        if not self._frozen:
            raise RuntimeError("layout not frozen; call freeze() first")
        r = self._regions[region]
        # guard negatives explicitly: list indexing would wrap them
        if not 0 <= index < r.size:
            raise IndexError(
                f"region {region!r}: index {index} out of range "
                f"[0, {r.size})")
        return r

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PointerMemory({len(self._regions)} regions, "
            f"{self._next_base} words)"
        )
