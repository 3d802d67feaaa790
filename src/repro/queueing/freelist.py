"""The software free list of Section 5.2, over pointer memory.

"A free-list keeps the free parts of the memory, at any given time"
(Section 5.2).  The free list is itself a single-linked list threaded
through the ``next`` words of unused slots, so pop ("Dequeue Free List")
and push ("Enqueue Free List") are the first sub-operations of every
enqueue/dequeue (Table 3 prices them separately).

Two anchor placements, two classes:

* :class:`FreeList` -- the software implementations of Section 5 keep
  the head/tail anchors in SRAM words (the ``globals`` region), so
  consulting them costs loads and stores: pop is R head, R next[head],
  W head; push is R tail, W next[slot], W next[tail], W tail.
* :class:`RegisterFreeList` -- the MMS hardware keeps its anchors in
  on-chip registers, so pop is one read (R next[head]) and push is at
  most two writes.  It runs on every MMS enqueue and dequeue, so it
  works on its region's word list directly; its operations append to
  the caller's record list and return their access counts (see
  :mod:`repro.queueing.pointer_memory`).
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.queueing.pointer_memory import AccessRecord, PointerMemory, Region

#: Null link encoding (no slot 0 ambiguity: we bias stored links by +1).
NIL = 0


class OutOfBuffersError(RuntimeError):
    """Free list exhausted -- the buffer memory is full.

    Carries the occupancy at the moment of exhaustion so overload
    failures are diagnosable: ``slots_in_use`` of ``num_slots``.
    """

    def __init__(self, message: str, slots_in_use: int = -1,
                 num_slots: int = -1) -> None:
        super().__init__(message)
        self.slots_in_use = slots_in_use
        self.num_slots = num_slots


def exhausted(free_count: int, num_slots: int) -> OutOfBuffersError:
    """The error of a pop from an empty free list."""
    in_use = num_slots - free_count
    return OutOfBuffersError(
        f"free list empty: {in_use} of {num_slots} slots in use (install "
        f"a buffer policy to make overload a drop decision)",
        slots_in_use=in_use, num_slots=num_slots)


class FreeList:
    """Single-linked free list of buffer slots with anchors in SRAM.

    Parameters
    ----------
    mem:
        Pointer memory; must contain a ``next`` region of >= ``num_slots``
        words plus a ``globals`` region with two words for the anchors.
    num_slots:
        Total buffer slots managed.
    next_region / globals_region:
        Region names, overridable when several lists share one memory.
    """

    HEAD_WORD = 0
    TAIL_WORD = 1

    def __init__(self, mem: PointerMemory, num_slots: int,
                 next_region: str = "next",
                 globals_region: str = "globals") -> None:
        if num_slots < 1:
            raise ValueError(f"num_slots must be >= 1, got {num_slots}")
        self.mem = mem
        self.num_slots = num_slots
        self.next_region = next_region
        self.globals_region = globals_region
        self.free_count = 0
        self._initialized = False

    # ------------------------------------------------------------ set-up

    def initialize(self) -> None:
        """Chain every slot into the free list (boot-time, not traced).

        The chain ``0 -> 1 -> ... -> n-1`` is one slice assignment,
        counted as the one write per word (plus the two anchor stores)
        that a per-word boot loop would make.
        """
        n = self.num_slots
        nxt = self.mem.region(self.next_region)
        nxt.words[:n - 1] = range(2, n + 1)
        nxt.words[n - 1] = NIL
        nxt.writes += n
        self.mem.write(self.globals_region, self.HEAD_WORD, 1)
        self.mem.write(self.globals_region, self.TAIL_WORD, n)
        self.free_count = n
        self._initialized = True

    # ---------------------------------------------------------- operation

    def pop(self) -> int:
        """Allocate one slot ("Dequeue Free List"): R head, R next[head],
        W head."""
        self._require_init()
        mem = self.mem
        head = mem.read(self.globals_region, self.HEAD_WORD)
        if head == NIL:
            raise exhausted(self.free_count, self.num_slots)
        slot = head - 1
        nxt = mem.read(self.next_region, slot)
        mem.write(self.globals_region, self.HEAD_WORD, nxt)
        if nxt == NIL:
            # list drained: the tail anchor would otherwise go stale
            # and a later push would splice onto an in-use slot
            mem.write(self.globals_region, self.TAIL_WORD, NIL)
        self.free_count -= 1
        return slot

    def push(self, slot: int) -> None:
        """Release one slot ("Enqueue Free List"): R tail, W next[slot],
        W next[tail], W tail.

        Appending at the tail (rather than pushing at the head) matches
        hardware practice: it avoids reusing a just-freed slot whose data
        transfer may still be in flight.
        """
        self._require_init()
        if not 0 <= slot < self.num_slots:
            raise ValueError(f"slot {slot} out of range [0, {self.num_slots})")
        mem = self.mem
        tail = mem.read(self.globals_region, self.TAIL_WORD)
        mem.write(self.next_region, slot, NIL)
        if tail == NIL:
            mem.write(self.globals_region, self.HEAD_WORD, slot + 1)
        else:
            mem.write(self.next_region, tail - 1, slot + 1)
        mem.write(self.globals_region, self.TAIL_WORD, slot + 1)
        self.free_count += 1

    # --------------------------------------------------------- internals

    def _require_init(self) -> None:
        if not self._initialized:
            raise RuntimeError("free list not initialized; call initialize()")


class RegisterFreeList:
    """Single-linked free list over one region, anchors in registers.

    The list manages every slot of ``region`` and is chained at
    construction (boot time, uncounted: ``0 -> 1 -> ... -> n-1`` is one
    slice assignment), so the region's layout must be frozen.
    ``link_mask`` is applied to link words on pop: whole queue chains
    are spliced onto the list (:meth:`push`), and their interior words
    still carry packed metadata above the link field.

    The anchors (``head``/``tail``, encoded ``slot + 1``, NIL when
    empty), ``free`` and ``virgin`` (True while the chain is exactly
    the boot chain, which lets :meth:`reserve` skip the walk) are the
    list's whole state besides its region words.
    """

    __slots__ = ("region", "words", "num_slots", "link_mask",
                 "head", "tail", "free", "virgin")

    def __init__(self, region: Region, link_mask: int) -> None:
        n = region.size
        words = region.words
        if len(words) != n:
            raise RuntimeError("layout not frozen; call freeze() first")
        words[:n - 1] = range(2, n + 1)
        words[n - 1] = NIL
        self.region = region
        self.words = words
        self.num_slots = n
        self.link_mask = link_mask
        self.head = 1
        self.tail = n
        self.free = n
        self.virgin = True

    def pop(self, rec: Optional[List[AccessRecord]]) -> int:
        """Allocate one slot ("Dequeue Free List"): R next[head]."""
        head = self.head
        if head == NIL:
            raise exhausted(self.free, self.num_slots)
        slot = head - 1
        region = self.region
        region.reads += 1
        if rec is not None:
            rec.append(AccessRecord("R", region.name, slot))
        nxt = self.words[slot] & self.link_mask
        self.head = nxt
        if nxt == NIL:
            # list drained: the tail register would otherwise go stale
            # and a later push would splice onto an in-use slot
            self.tail = NIL
        self.free -= 1
        self.virgin = False
        return slot

    def push(self, first: int, last: int, count: int,
             rec: Optional[List[AccessRecord]]) -> int:
        """Release the chain ``first -> ... -> last`` of ``count`` slots
        at the tail ("Enqueue Free List"; one slot is ``first == last``,
        ``count == 1``): W next[last] = NIL, then W next[tail] = first
        unless the list was empty.  O(1) whatever the length -- the MMS
        delete-packet path splices whole packets.  The chain must
        already be linked through the region.  Returns the access count.
        """
        n = self.num_slots
        if not (0 <= first < n and 0 <= last < n):
            raise ValueError(f"chain {first}..{last} out of range [0, {n})")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        words = self.words
        region = self.region
        words[last] = NIL
        tail = self.tail
        self.tail = last + 1
        self.free += count
        self.virgin = False
        if tail == NIL:
            self.head = first + 1
            region.writes += 1
            if rec is not None:
                rec.append(AccessRecord("W", region.name, last))
            return 1
        words[tail - 1] = first + 1
        region.writes += 2
        if rec is not None:
            name = region.name
            rec += (AccessRecord("W", name, last),
                    AccessRecord("W", name, tail - 1))
        return 2

    def reserve(self, count: int) -> List[int]:
        """Allocate ``count`` slots in one bulk walk (= ``count`` pops).

        Follows the chain once (or, on the boot chain, knows its outcome
        in closed form) and counts the one ``next`` read per slot that a
        pop loop makes, so registers and counters end exactly where
        ``count`` :meth:`pop` calls would leave them.  Raises
        :class:`OutOfBuffersError` when fewer than ``count`` slots are
        free (before touching any state).  Setup work, never traced.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if count > self.free:
            in_use = self.num_slots - self.free
            raise OutOfBuffersError(
                f"cannot reserve {count} slots: {in_use} of "
                f"{self.num_slots} in use", slots_in_use=in_use,
                num_slots=self.num_slots)
        if self.virgin:
            # boot chain: slot k links to k + 1
            slots = list(range(count))
            head = count + 1 if count < self.num_slots else NIL
        else:
            words, mask = self.words, self.link_mask
            slots = []
            head = self.head
            for _ in range(count):
                slot = head - 1
                slots.append(slot)
                head = words[slot] & mask
        self.head = head
        if head == NIL:
            self.tail = NIL
        self.free -= count
        self.virgin = False
        self.region.reads += count
        return slots

    def state_dict(self) -> List[Any]:
        """``[head, tail, free, virgin]`` (checkpoint layout)."""
        return [self.head, self.tail, self.free, self.virgin]

    def load_state(self, state: List[Any]) -> None:
        self.head, self.tail, self.free, self.virgin = state
