"""Batched fast-path engine for the Table 1 DDR experiments.

The reference drivers in :mod:`repro.mem.sched` walk one
:class:`~repro.mem.ddr.Access` dataclass at a time through
:class:`~repro.mem.ddr.DdrModel` method calls and per-port generator
patterns.  That is the right shape for composability, but Table 1 runs
hundreds of thousands of accesses per cell, and at that volume the
allocation and call overhead dominates the arithmetic.

This module advances the *entire* bank state machine per scheduling
decision in plain local-variable loops, with three shortcuts that leave
every simulated value unchanged:

* **O(1) history check.**  Each bank keeps its release slot
  (``bank_free``) and the issue index of its latest issue
  (``last_idx``).  Both are written only at that latest issue, which has
  the largest slot of any of the bank's entries in the reordering
  scheduler's bounded history -- so "some remembered issue to this bank
  is still busy" is exactly "the latest issue is inside the history
  window and still busy".
* **Idle-slot skip.**  When every port head addresses a bank the history
  believes busy, nothing changes until the earliest of those banks is
  released; the scheduler jumps straight there and books the gap as
  no-operation (bank stall) slots, instead of one loop turn per slot.
* **Bulk bank draws.**  :func:`bank_draws` yields the exact stream of
  ``rng.randrange(num_banks)`` results from bulk 32-bit Mersenne words
  and leaves ``rng`` in the state single calls would.

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
from itertools import chain, cycle
from typing import Iterator, List, Tuple

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
               count: int) -> Iterator[List[int]]:
    """Yield lists holding ``count`` draws of ``rng.randrange(num_banks)``.

    For ``k = num_banks.bit_length() <= 32``, ``randrange`` rejection
    samples ``getrandbits(k)``: the top ``k`` bits of one 32-bit Mersenne
    word, redrawn while ``>= num_banks``.  ``getrandbits(32 * m)`` returns
    ``m`` such words, least significant first, so each round keeps
    ``word >> (32 - k)`` for every word below ``num_banks << (32 - k)``.
    A word gives at most one draw and a round takes no more words than
    draws still owed, so no round overshoots: ``rng`` ends exactly where
    ``count`` single calls leave it.
    """
    shift = 32 - num_banks.bit_length()
    limit = num_banks << shift
    need = count
    while need > 0:
        m = need if need < _WORDS_PER_ROUND else _WORDS_PER_ROUND
        words = array(_WORD_TYPECODE,
                      rng.getrandbits(32 * m).to_bytes(4 * m, "little"))
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

    Consumes exactly ``num_accesses`` bank draws from ``rng``.
    """
    _sched.check_cell_args(num_banks, num_accesses)
    busy = timing.bank_busy_cycles
    war = timing.write_after_read_penalty_cycles
    is_write = _PAPER_PORT_IS_WRITE
    nports = len(is_write)
    draws = chain.from_iterable(bank_draws(rng, num_banks, num_accesses))
    bank_free = [0] * num_banks
    per_port = [0] * nports
    bank_stalls = 0
    turnaround_stalls = 0
    next_free = 0
    last_slot = -1
    last_was_read = False
    for port, bank in zip(cycle(range(nports)), draws):
        write = is_write[port]
        bf = bank_free[bank]
        bank_wait = bf - next_free
        if bank_wait < 0:
            bank_wait = 0
        slot = bf if bf > next_free else next_free
        if model_rw_turnaround and write and last_was_read:
            turnaround_free = last_slot + 1 + war
            if turnaround_free > slot:
                slot = turnaround_free
        total_wait = slot - next_free
        bank_stalls += bank_wait if bank_wait < total_wait else total_wait
        if total_wait > bank_wait:
            turnaround_stalls += total_wait - bank_wait
        bank_free[bank] = slot + busy
        last_was_read = not write
        per_port[port] += 1
        last_slot = slot
        next_free = slot + 1
    elapsed = last_slot + 1 if last_slot >= 0 else 0
    return _sched.ScheduleResult(
        issued=num_accesses,
        elapsed_slots=elapsed,
        nop_slots=elapsed - num_accesses,
        bank_stall_slots=bank_stalls,
        turnaround_stall_slots=turnaround_stalls,
        history_miss_slots=0,
        per_port_issued=per_port,
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
    depth (depth 0 never matches).  When no head is eligible the
    scheduler skips to the earliest release among the heads' banks,
    found in the same scan.  Consumes exactly ``num_accesses + 4`` bank
    draws from ``rng`` (the four initial heads, then one refill per
    issue).
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
        wake = slot + busy  # above every release: each issue is < slot
        choice = -1
        if group_reads and last_was_read:
            # ablation A4: among eligible heads prefer reads (no
            # write-after-read turnaround), in round-robin order
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
        else:
            for p in order:
                bank = heads[p]
                bf = bank_free[bank]
                if bf > slot and last_idx[bank] >= oldest:
                    if bf < wake:
                        wake = bf
                else:
                    choice = p
                    break
        if choice < 0:
            # "the scheduler sends a no-operation to the memory, losing
            # an access cycle" -- every cycle until a head's bank frees
            nop_slots += wake - slot
            bank_stalls += wake - slot
            slot = wake
            continue

        bank = heads[choice]
        write = is_write[choice]

        # --- earliest legal issue slot (bank reuse + turnaround) --------
        bf = bank_free[bank]
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
