"""DDR access schedulers compared in Table 1 (paper Section 3).

Two front-ends contend 4 ports (2 write, 2 read) onto one DDR device:

* :func:`run_serializing` -- the baseline: "serializing the accesses from
  the 4 ports in a round-robin manner".  Accesses issue strictly in
  round-robin port order; each waits out whatever bank-conflict and
  turnaround delay it hits.
* :func:`run_reordering` -- the paper's optimization: per-port FIFOs, and
  in every access cycle the scheduler checks the 4 pending heads,
  selects one that addresses a non-busy bank (round-robin among eligible)
  and otherwise burns the cycle with a no-operation.  Bank availability
  comes from "the memory access history (it remembers the last 3
  accesses)".

Both report a :class:`ScheduleResult` whose ``loss`` is directly
comparable with Table 1's *Throughput Loss* columns.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Sequence

from repro.mem.ddr import Access, DdrModel, IssueRecord, MemOp
from repro.mem.patterns import AccessPattern, paper_port_patterns
from repro.mem.timing import DdrTiming

#: History depth of the paper's reordering scheduler.
PAPER_HISTORY_DEPTH = 3


@dataclass(frozen=True)
class PortSpec:
    """A port with its (infinite) access pattern."""

    name: str
    pattern: AccessPattern


@dataclass
class ScheduleResult:
    """Outcome of a scheduling run over ``issued`` accesses.

    ``loss`` is the fraction of access cycles in which no access was
    issued -- the quantity Table 1 reports.
    """

    issued: int
    elapsed_slots: int
    nop_slots: int
    bank_stall_slots: int
    turnaround_stall_slots: int
    history_miss_slots: int
    per_port_issued: List[int] = field(default_factory=list)

    @property
    def loss(self) -> float:
        if self.elapsed_slots == 0:
            return 0.0
        return 1.0 - self.issued / self.elapsed_slots

    @property
    def utilization(self) -> float:
        return 1.0 - self.loss

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScheduleResult(issued={self.issued}, slots={self.elapsed_slots}, "
            f"loss={self.loss:.3f})"
        )


def _num_ports(ports: Sequence[PortSpec]) -> int:
    if not ports:
        raise ValueError("at least one port is required")
    return len(ports)


def run_serializing(ddr: DdrModel, ports: Sequence[PortSpec],
                    num_accesses: int) -> ScheduleResult:
    """Issue accesses in strict round-robin port order (no reordering)."""
    n = _num_ports(ports)
    per_port = [0] * n
    bank_stalls = 0
    turnaround_stalls = 0
    next_free = 0  # one access per slot
    last_slot = -1
    for i in range(num_accesses):
        port = i % n
        access = next(ports[port].pattern)
        # Decompose the stall for reporting: how long the bank alone would
        # have held us vs the issue slot we actually got.
        bank_wait = max(0, ddr.bank_free_slot(access.bank) - next_free)
        slot = ddr.earliest_issue_slot(access, next_free)
        total_wait = slot - next_free
        bank_stalls += min(bank_wait, total_wait)
        turnaround_stalls += max(0, total_wait - bank_wait)
        ddr.issue(access, slot)
        per_port[port] += 1
        last_slot = slot
        next_free = slot + 1
    elapsed = last_slot + 1 if last_slot >= 0 else 0
    return ScheduleResult(
        issued=num_accesses,
        elapsed_slots=elapsed,
        nop_slots=elapsed - num_accesses,
        bank_stall_slots=bank_stalls,
        turnaround_stall_slots=turnaround_stalls,
        history_miss_slots=0,
        per_port_issued=per_port,
    )


def _busy_from_history(history: Deque[IssueRecord], slot: int,
                       bank_busy_cycles: int) -> set[int]:
    """Banks the scheduler believes are busy at ``slot`` given its history."""
    return {
        rec.access.bank
        for rec in history
        if rec.slot + bank_busy_cycles > slot
    }


def run_reordering(ddr: DdrModel, ports: Sequence[PortSpec],
                   num_accesses: int,
                   history_depth: int = PAPER_HISTORY_DEPTH,
                   prefer_same_type: bool = False) -> ScheduleResult:
    """The paper's optimized scheduler: reorder across per-port FIFO heads.

    Parameters
    ----------
    history_depth:
        How many past issues the bank-availability check remembers.  The
        paper uses 3, which (with a 4-slot bank reuse interval and at
        most one issue per slot) is exactly sufficient; smaller depths
        make the scheduler optimistic -- it then attempts accesses to
        still-busy banks and pays the remaining precharge as a stall
        (ablation A1).
    prefer_same_type:
        Ablation A4: among eligible heads, prefer the ones that do not
        incur a write-after-read turnaround.  The paper's scheduler does
        *not* do this (it only minimizes bank conflicts).
    """
    if history_depth < 0:
        raise ValueError(f"history_depth must be >= 0, got {history_depth}")
    n = _num_ports(ports)
    heads: List[Access] = [next(p.pattern) for p in ports]
    per_port = [0] * n
    history: Deque[IssueRecord] = deque(maxlen=history_depth if history_depth else 1)
    if history_depth == 0:
        history = deque(maxlen=1)
        history.clear()

    issued = 0
    slot = 0
    nop_slots = 0
    bank_stalls = 0
    turnaround_stalls = 0
    history_miss = 0
    rr_next = 0
    last_op: Optional[MemOp] = None
    last_issue_slot = -1

    while issued < num_accesses:
        believed_busy = (
            _busy_from_history(history, slot, ddr.timing.bank_busy_cycles)
            if history_depth > 0
            else set()
        )
        eligible = [
            p for p in range(n) if heads[p].bank not in believed_busy
        ]
        if not eligible:
            # "the scheduler sends a no-operation to the memory, losing an
            # access cycle"
            nop_slots += 1
            bank_stalls += 1
            slot += 1
            continue

        choice = _round_robin_pick(
            eligible, rr_next, heads, last_op, prefer_same_type,
            ddr.model_rw_turnaround,
        )
        access = heads[choice]

        issue_slot = ddr.earliest_issue_slot(access, slot)
        if issue_slot > slot:
            # The model says we cannot issue this slot after all: either a
            # turnaround penalty, or (with a shallow history) a bank the
            # scheduler forgot about.  The slots in between are lost.
            actually_banked = ddr.bank_free_slot(access.bank) > slot
            lost = issue_slot - slot
            if actually_banked:
                history_miss += lost
            else:
                turnaround_stalls += lost
            nop_slots += lost
            slot = issue_slot

        ddr.issue(access, slot)
        history.append(IssueRecord(access=access, slot=slot))
        per_port[choice] += 1
        heads[choice] = next(ports[choice].pattern)
        rr_next = (choice + 1) % n
        last_op = access.op
        last_issue_slot = slot
        issued += 1
        slot += 1

    elapsed = last_issue_slot + 1 if last_issue_slot >= 0 else 0
    return ScheduleResult(
        issued=issued,
        elapsed_slots=elapsed,
        nop_slots=nop_slots,
        bank_stall_slots=bank_stalls,
        turnaround_stall_slots=turnaround_stalls,
        history_miss_slots=history_miss,
        per_port_issued=per_port,
    )


def _round_robin_pick(eligible: List[int], rr_next: int, heads: List[Access],
                      last_op: Optional[MemOp], prefer_same_type: bool,
                      turnaround_modeled: bool) -> int:
    """Pick one eligible port, round-robin from ``rr_next``.

    With ``prefer_same_type`` (and turnaround modelled), heads that avoid
    a write-after-read are considered first.
    """
    n = len(heads)
    ordered = sorted(eligible, key=lambda p: (p - rr_next) % n)
    if prefer_same_type and turnaround_modeled and last_op is MemOp.READ:
        no_penalty = [p for p in ordered if heads[p].op is MemOp.READ]
        if no_penalty:
            return no_penalty[0]
    return ordered[0]


def check_cell_args(num_banks: int, num_accesses: int) -> None:
    """Reject a Table 1 cell no engine can run.

    ``num_banks`` must fit one 32-bit Mersenne word (the batched engine
    draws each bank from one word) and ``num_accesses`` must not be
    negative.
    """
    if num_banks < 1:
        raise ValueError(f"num_banks must be >= 1, got {num_banks}")
    if num_banks >= 1 << 32:
        raise ValueError(f"num_banks must be < 2**32, got {num_banks}")
    if num_accesses < 0:
        raise ValueError(f"num_accesses must be >= 0, got {num_accesses}")


def simulate_throughput_loss(num_banks: int, optimized: bool,
                             model_rw_turnaround: bool,
                             num_accesses: int = 200_000,
                             seed: int = 2005,
                             timing: DdrTiming = DdrTiming(),
                             history_depth: int = PAPER_HISTORY_DEPTH,
                             prefer_same_type: bool = False,
                             engine: str = "fast") -> ScheduleResult:
    """One Table 1 cell: throughput loss for a bank count and scheduler.

    Reproduces the paper's set-up: 4 backlogged ports (2 write + 2 read)
    issuing uniformly random bank accesses, serialized round-robin
    (``optimized=False``) or reordered (``optimized=True``).

    ``engine`` selects the execution engine: ``"fast"`` (default) runs
    the batched bank model of :mod:`repro.mem.fastpath`, ``"reference"``
    walks the generator patterns through :class:`DdrModel` one access at
    a time.  Both produce bit-identical results (asserted by
    ``tests/mem/test_fastpath.py``); the reference engine remains the
    executable specification.  Both engines reject the same bad inputs
    (:func:`check_cell_args`) before either is picked.
    """
    check_cell_args(num_banks, num_accesses)
    if engine == "fast":
        from repro.mem.fastpath import fast_throughput_loss
        return fast_throughput_loss(
            num_banks, optimized=optimized,
            model_rw_turnaround=model_rw_turnaround,
            num_accesses=num_accesses, seed=seed, timing=timing,
            history_depth=history_depth, prefer_same_type=prefer_same_type)
    if engine != "reference":
        raise ValueError(
            f"unknown engine {engine!r} (choose 'fast' or 'reference')")
    rng = random.Random(seed)
    ddr = DdrModel(timing=timing, num_banks=num_banks,
                   model_rw_turnaround=model_rw_turnaround)
    patterns = paper_port_patterns(rng, num_banks)
    names = ("net-write", "net-read", "cpu-write", "cpu-read")
    ports = [PortSpec(name=nm, pattern=pat) for nm, pat in zip(names, patterns)]
    if optimized:
        return run_reordering(ddr, ports, num_accesses,
                              history_depth=history_depth,
                              prefer_same_type=prefer_same_type)
    return run_serializing(ddr, ports, num_accesses)
