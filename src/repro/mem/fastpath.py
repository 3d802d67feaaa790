"""Batched fast-path engine for the Table 1 DDR experiments.

The reference drivers in :mod:`repro.mem.sched` walk one
:class:`~repro.mem.ddr.Access` dataclass at a time through
:class:`~repro.mem.ddr.DdrModel` method calls and per-port generator
patterns.  That is the right shape for composability, but Table 1 runs
hundreds of thousands of accesses per cell, and at that volume the
allocation and call overhead dominates the arithmetic.

This module advances the *entire* bank state machine per scheduling
decision in plain local-variable loops, with shortcuts that leave every
simulated value unchanged:

* **O(1) history check.**  Each bank keeps its release slot
  (``bank_free``) and the issue index of its latest issue
  (``last_idx``).  Both are written only at that latest issue, which has
  the largest slot of any of the bank's entries in the reordering
  scheduler's bounded history -- so "some remembered issue to this bank
  is still busy" is exactly "the latest issue is inside the history
  window and still busy".
* **First-eligible scan, idle-slot skip.**  The reordering scan stops
  at the first eligible head (``for ... else``).  Only when every port
  head addresses a bank the history believes busy does it compute the
  earliest release; nothing changes until then, so the scheduler jumps
  straight there, books the gap as no-operation (bank stall) slots and
  issues the first head whose bank frees there, instead of one loop
  turn per slot and a second scan.
* **Paired serializing loop.**  The paper's ports are W, R, W, R, so
  after the first write the serializing scheduler walks (read, write)
  pairs with no per-access port lookup, read/write flag or per-port
  counter.
* **Bulk bank draws.**  :func:`bank_draws` yields the exact stream of
  ``rng.randrange(num_banks)`` results from bulk 32-bit Mersenne words
  and leaves ``rng`` in the state single calls would; up to 255 banks
  it reads each draw from the word's top byte with one
  ``bytes.translate``.

No ``Access`` objects, no DES processes, no per-access method dispatch.

Equivalence is not aspirational: ``tests/mem/test_fastpath.py`` asserts
field-for-field equal :class:`~repro.mem.sched.ScheduleResult` outputs
and the same final RNG state against the reference engine across bank
counts, seeds, history depths, timings and both ablation flags, and
``benchmarks/gates.py`` requires equal Table 1 metrics from both
engines whenever it times the speedup.
"""

from __future__ import annotations

import random
import sys
from array import array
from itertools import chain, islice
from typing import Iterator, List, Sequence, Tuple

from repro.mem.timing import DdrTiming

# Imported late by repro.mem.sched to avoid a cycle; ScheduleResult is
# the shared result type.
from repro.mem import sched as _sched

#: Port operation layout of the paper's 4-port set-up (Section 3,
#: footnote 3): net-write, net-read, cpu-write, cpu-read.
_PAPER_PORT_IS_WRITE: Tuple[bool, ...] = (True, False, True, False)

#: Most Mersenne words one :func:`bank_draws` round takes; bounds the
#: round's word array and draw list (a whole-run draw list costs
#: megabytes at full budget).
_WORDS_PER_ROUND = 4096

#: ``array`` typecode of an unsigned 32-bit word on this platform.
_WORD_TYPECODE = next(t for t in "IL" if array(t).itemsize == 4)


def bank_draws(rng: random.Random, num_banks: int,
               count: int) -> Iterator[Sequence[int]]:
    """Yield sequences holding ``count`` draws of ``rng.randrange(num_banks)``.

    For ``k = num_banks.bit_length() <= 32``, ``randrange`` rejection
    samples ``getrandbits(k)``: the top ``k`` bits of one 32-bit Mersenne
    word, redrawn while ``>= num_banks``.  ``getrandbits(32 * m)`` returns
    ``m`` such words, least significant first, so each round keeps
    ``word >> (32 - k)`` for every word below ``num_banks << (32 - k)``.
    A word gives at most one draw and a round takes no more words than
    draws still owed, so no round overshoots: ``rng`` ends exactly where
    ``count`` single calls leave it.

    When ``k <= 8`` (``num_banks <= 255``) a draw is the top ``k`` bits of
    the word's top byte, and the rejection test reads that byte alone.
    The round's little-endian bytes hold each word's top byte at offset
    3 of its 4, so ``raw[3::4]`` picks them and one ``bytes.translate``
    drops the rejected bytes and shifts the rest, in C.  The byte order
    is fixed by ``to_bytes``, whatever the host's.  Larger bank counts
    take the 32-bit word path.
    """
    k = num_banks.bit_length()
    if k <= 8:
        table = bytes([b >> (8 - k) for b in range(256)])
        reject = bytes([b for b in range(256) if b >> (8 - k) >= num_banks])
    else:
        shift = 32 - k
        limit = num_banks << shift
    need = count
    while need > 0:
        m = need if need < _WORDS_PER_ROUND else _WORDS_PER_ROUND
        raw = rng.getrandbits(32 * m).to_bytes(4 * m, "little")
        if k <= 8:
            drawn: Sequence[int] = raw[3::4].translate(table, reject)
        else:
            words = array(_WORD_TYPECODE, raw)
            if sys.byteorder == "big":
                words.byteswap()
            drawn = [w >> shift for w in words if w < limit]
        need -= len(drawn)
        yield drawn


def fast_serializing(num_banks: int, num_accesses: int,
                     rng: random.Random,
                     timing: DdrTiming = DdrTiming(),
                     model_rw_turnaround: bool = True) -> "_sched.ScheduleResult":
    """Batched round-robin serializing scheduler (reference:
    :func:`repro.mem.sched.run_serializing` over the paper's patterns).

    The loop relies on the paper's port layout, W, R, W, R
    (:data:`_PAPER_PORT_IS_WRITE`): access ``i`` is a write iff ``i`` is
    even, so after the first write the accesses come as (read, write)
    pairs, and a run of even length ends on one more read.  Every write
    but the first follows a read, so its turnaround floor is
    ``next_free + war``; port ``p`` issues ``(n + 3 - p) // 4`` of ``n``
    accesses.  Each wait is the bank's or the turnaround's, so the
    turnaround stalls are the no-operation slots less the bank stalls.

    Consumes exactly ``num_accesses`` bank draws from ``rng``.
    """
    _sched.check_cell_args(num_banks, num_accesses)
    busy = timing.bank_busy_cycles
    war = timing.write_after_read_penalty_cycles if model_rw_turnaround else 0
    draws = chain.from_iterable(bank_draws(rng, num_banks, num_accesses))
    bank_free = [0] * num_banks
    bank_stalls = 0
    next_free = 0
    if num_accesses:
        # the first write: every bank is free and no read came before
        bank_free[draws.__next__()] = busy
        next_free = 1
    pairs = islice(draws, max(num_accesses - 1, 0) // 2 * 2)
    for read_bank, write_bank in zip(pairs, pairs):
        bf = bank_free[read_bank]
        if bf > next_free:
            bank_stalls += bf - next_free
            next_free = bf
        bank_free[read_bank] = next_free + busy
        next_free += 1
        bf = bank_free[write_bank]
        slot = next_free + war
        if bf > next_free:
            bank_stalls += bf - next_free
            if bf > slot:
                slot = bf
        bank_free[write_bank] = slot + busy
        next_free = slot + 1
    if num_accesses and num_accesses % 2 == 0:
        bf = bank_free[draws.__next__()]
        if bf > next_free:
            bank_stalls += bf - next_free
            next_free = bf
        next_free += 1
    nops = next_free - num_accesses
    return _sched.ScheduleResult(
        issued=num_accesses,
        elapsed_slots=next_free,
        nop_slots=nops,
        bank_stall_slots=bank_stalls,
        turnaround_stall_slots=nops - bank_stalls,
        history_miss_slots=0,
        per_port_issued=[(num_accesses + 3 - p) // 4
                         for p in range(len(_PAPER_PORT_IS_WRITE))],
    )


def fast_reordering(num_banks: int, num_accesses: int,
                    rng: random.Random,
                    timing: DdrTiming = DdrTiming(),
                    model_rw_turnaround: bool = True,
                    history_depth: int = _sched.PAPER_HISTORY_DEPTH,
                    prefer_same_type: bool = False) -> "_sched.ScheduleResult":
    """Batched reordering scheduler (reference:
    :func:`repro.mem.sched.run_reordering` over the paper's patterns).

    A head's bank is believed busy iff ``bank_free[b] > slot`` and its
    latest issue index ``last_idx[b]`` is one of the last
    ``history_depth`` issues -- one compare pair per head, whatever the
    depth (depth 0 never matches).  The scan stops at the first
    eligible head; only when no head is eligible does the scheduler
    look up the earliest release among the heads' banks and skip there,
    issuing the first head whose bank frees at that slot.
    Consumes exactly ``num_accesses + 4`` bank draws from ``rng`` (the
    four initial heads, then one refill per issue).
    """
    _sched.check_cell_args(num_banks, num_accesses)
    if history_depth < 0:
        raise ValueError(f"history_depth must be >= 0, got {history_depth}")
    busy = timing.bank_busy_cycles
    war = timing.write_after_read_penalty_cycles
    is_write = _PAPER_PORT_IS_WRITE
    n = len(is_write)
    next_draw = chain.from_iterable(
        bank_draws(rng, num_banks, num_accesses + n)).__next__
    heads: List[int] = [next_draw() for _ in range(n)]
    bank_free = [0] * num_banks
    last_idx = [-1] * num_banks  # issue index of the bank's latest issue
    per_port = [0] * n
    # after[p]: round-robin scan order starting just after port p
    after = [tuple((p + 1 + off) % n for off in range(n)) for p in range(n)]
    order = after[-1]
    group_reads = prefer_same_type and model_rw_turnaround

    issued = 0
    slot = 0
    nop_slots = 0
    bank_stalls = 0
    turnaround_stalls = 0
    history_miss = 0
    last_was_read = False
    last_issue_slot = -1

    while issued < num_accesses:
        # --- eligibility: banks the (bounded) history believes busy -----
        oldest = issued - history_depth  # oldest issue index remembered
        if group_reads and last_was_read:
            # ablation A4: among eligible heads prefer reads (no
            # write-after-read turnaround), in round-robin order
            wake = slot + busy  # above every release: each issue is < slot
            choice = -1
            fallback = -1
            for p in order:
                bank = heads[p]
                bf = bank_free[bank]
                if bf > slot and last_idx[bank] >= oldest:
                    if bf < wake:
                        wake = bf
                elif not is_write[p]:
                    choice = p
                    break
                elif fallback < 0:
                    fallback = p
            if choice < 0:
                choice = fallback
            if choice < 0:
                # "the scheduler sends a no-operation to the memory,
                # losing an access cycle" -- every cycle until a head's
                # bank frees
                nop_slots += wake - slot
                bank_stalls += wake - slot
                slot = wake
                continue
            bank = heads[choice]
            bf = bank_free[bank]
        else:
            # the first eligible head in round-robin order; the earliest
            # release is needed only when every head is blocked
            for choice in order:
                bank = heads[choice]
                bf = bank_free[bank]
                if bf <= slot or last_idx[bank] < oldest:
                    break
            else:
                # every head is blocked: skip to the earliest release,
                # where the first head whose bank frees there issues
                # (the history window has not moved, so no other head
                # became eligible)
                wake = min(map(bank_free.__getitem__, heads))
                nop_slots += wake - slot
                bank_stalls += wake - slot
                slot = wake
                for choice in order:
                    bank = heads[choice]
                    if bank_free[bank] == wake:
                        break
                bf = wake

        write = is_write[choice]

        # --- earliest legal issue slot (bank reuse + turnaround) --------
        issue_slot = bf if bf > slot else slot
        if model_rw_turnaround and write and last_was_read:
            turnaround_free = last_issue_slot + 1 + war
            if turnaround_free > issue_slot:
                issue_slot = turnaround_free
        if issue_slot > slot:
            lost = issue_slot - slot
            if bf > slot:
                history_miss += lost
            else:
                turnaround_stalls += lost
            nop_slots += lost
            slot = issue_slot

        bank_free[bank] = slot + busy
        last_idx[bank] = issued
        per_port[choice] += 1
        heads[choice] = next_draw()
        order = after[choice]
        last_was_read = not write
        last_issue_slot = slot
        issued += 1
        slot += 1

    elapsed = last_issue_slot + 1 if last_issue_slot >= 0 else 0
    return _sched.ScheduleResult(
        issued=issued,
        elapsed_slots=elapsed,
        nop_slots=nop_slots,
        bank_stall_slots=bank_stalls,
        turnaround_stall_slots=turnaround_stalls,
        history_miss_slots=history_miss,
        per_port_issued=per_port,
    )


def fast_throughput_loss(num_banks: int, optimized: bool,
                         model_rw_turnaround: bool,
                         num_accesses: int = 200_000,
                         seed: int = 2005,
                         timing: DdrTiming = DdrTiming(),
                         history_depth: int = _sched.PAPER_HISTORY_DEPTH,
                         prefer_same_type: bool = False) -> "_sched.ScheduleResult":
    """One Table 1 cell on the batched engine.

    Same contract (and bit-identical result) as
    :func:`repro.mem.sched.simulate_throughput_loss` with
    ``engine="reference"``.
    """
    rng = random.Random(seed)
    if optimized:
        return fast_reordering(num_banks, num_accesses, rng, timing=timing,
                               model_rw_turnaround=model_rw_turnaround,
                               history_depth=history_depth,
                               prefer_same_type=prefer_same_type)
    return fast_serializing(num_banks, num_accesses, rng, timing=timing,
                            model_rw_turnaround=model_rw_turnaround)
