"""Exact snapshot/restore of the :class:`StreamMms` machine.

The stream engine is a fixed set of scalar actors over plain data
structures -- per-port FIFO deques, the DQM cursor and in-flight
command, the DMC bank/turnaround and wake registers, the wake heap, the
functional :class:`~repro.queueing.PacketQueueManager` state and the
buffer-policy books -- so (unlike the generator-based kernel) its full
state serializes exactly.  Three representation details matter:

* **Command identity.**  Command records are *mutable lists* aliased
  across the structures (a FIFO entry later becomes ``_cur`` and then a
  ``_done`` entry; a command's DMC request list is aliased into
  ``_dmc_queue``).  The snapshot therefore collects every live command
  once, in deterministic order (FIFOs by port, backpressured pending,
  in-flight, done), serializes each exactly once, and stores every
  other occurrence as an index into that table.  Restore rebuilds the
  lists and re-links the aliases, so post-resume mutations (the DMC
  completing a request, the tail finalizing ``_cur``) land in the same
  shared records they would have in an unbroken run.
* **Rest points.**  Snapshots are taken only between ``run()`` calls.
  The engine is then at rest: no actor is mid-step, the pending wakes
  (the over-horizon wake included -- the kernel run contract keeps it
  scheduled) are the heap plus the DMC's one-wake register, and
  feeders are suspended at a micro-op boundary, which is what lets
  :mod:`repro.checkpoint.feeders` fast-forward them.
* **Columnar queue state.**  The queue manager's state is its
  :meth:`~repro.queueing.PacketQueueManager.state_dict`: one word list
  and two counters per pointer-memory region, the free-list registers,
  the per-slot packet id/segment index columns and the per-flow counts.
  Documents written while the pointer memory was one sparse address
  space (``"words"`` keyed by global address, ``"sram_counts"`` and a
  ``"shadow"`` entry per live segment) are converted on restore.
* **One wake list.**  The document stores every pending wake in one
  ``"wakes"`` list of ``[t, seq, kind, arg]`` entries: the register's
  wake is written there as ``[t, seq, kind, null]``, and restore moves
  the DMC-kind entry back into the register and heapifies the rest.
  Documents written when the DMC's wakes still lived on the heap
  therefore load unchanged.

Feeder generators themselves are not serialized here: the snapshot
records each feeder's consumed-op count and observation tape
(requiring the :class:`~repro.checkpoint.feeders.CountedFeeder`
wrapper), and restore re-derives the generators from caller-provided
factories -- see :mod:`repro.checkpoint.runs` for the workload-level
pairing.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify
from typing import Any, Callable, Dict, Iterator, List, Sequence

from repro.checkpoint.feeders import CountedFeeder, Tape
from repro.checkpoint.snapshot import CheckpointError
from repro.core.commands import CommandType
from repro.engines.stream import C_OP, C_REQ, DMC_WAKE_KINDS, StreamMms
from repro.queueing.packet_queues import PacketQueueManager

#: A feeder factory: given the feeder's (restored) observation tape,
#: build the feeder generator with its environment reads wired through
#: that tape.
FeederFactory = Callable[[Tape], Iterator[Any]]


def snapshot_stream(eng: StreamMms) -> Dict[str, Any]:
    """Serialize the complete mutable state of ``eng`` (see module
    docstring).  Requires every feeder to be a
    :class:`CountedFeeder` -- i.e. the run was driven by a
    checkpoint-aware driver, not a plain harness."""
    # ---- command identity table ---------------------------------
    cmds: List[list] = []
    index: Dict[int, int] = {}

    def cmd_id(cmd: list) -> int:
        key = id(cmd)
        idx = index.get(key)
        if idx is None:
            idx = index[key] = len(cmds)
            cmds.append(cmd)
        return idx

    fifo_ids = [[cmd_id(c) for c in fifo] for fifo in eng._fifos]
    pending = [None if p is None else [p[0], cmd_id(p[1])]
               for p in eng._pending]
    cur_id = None if eng._cur is None else cmd_id(eng._cur)
    done_ids = [cmd_id(c) for c in eng._done]

    req_owner = {id(c[C_REQ]): i for i, c in enumerate(cmds)
                 if c[C_REQ] is not None}

    def req_id(req: list) -> int:
        try:
            return req_owner[id(req)]
        except KeyError:
            raise CheckpointError(
                "DMC request not owned by any live command "
                "(engine state is inconsistent)") from None

    serialized_cmds = []
    for c in cmds:
        row = [c[0].value] + list(c[1:C_REQ])
        req = c[C_REQ]
        row.append(None if req is None else list(req))
        serialized_cmds.append(row)

    # ---- feeders ------------------------------------------------
    feeders = []
    for gen, port in zip(eng._feeders, eng._feeder_port):
        if not isinstance(gen, CountedFeeder):
            raise CheckpointError(
                "engine feeders are raw generators (not CountedFeeder): "
                "only runs driven by repro.checkpoint.runs are "
                "checkpointable -- the plain harnesses carry no "
                "checkpoint machinery by design")
        st = gen.state_dict()
        st["port"] = port
        feeders.append(st)

    wakes = [list(w) for w in eng._wakes]
    if eng._dmc_kind is not None:
        wakes.append([eng._dmc_t, eng._dmc_seq, eng._dmc_kind, None])
    state: Dict[str, Any] = {
        "now": eng.now,
        "seq": eng._seq,
        "wakes": wakes,
        "commands": serialized_cmds,
        "fifos": fifo_ids,
        "pending": pending,
        "rr_next": eng._rr_next,
        "serve_waiting": eng._serve_waiting,
        "cur": cur_id,
        "commands_executed": eng.commands_executed,
        "done": done_ids,
        "dmc": {
            "bank_free": list(eng._bank_free),
            "last_islot": eng._last_islot,
            "last_was_read": eng._last_was_read,
            "queue": [req_id(r) for r in eng._dmc_queue],
            "waiting": eng._dmc_kind is None,
            "req": None if eng._dmc_req is None else req_id(eng._dmc_req),
        },
        "pqm": eng.pqm.state_dict(),
        "policy": None if eng.policy is None else eng.policy.state_dict(),
        "feeders": feeders,
    }
    return state


def restore_stream(eng: StreamMms, state: Dict[str, Any],
                   factories: Sequence[FeederFactory]) -> None:
    """Restore :func:`snapshot_stream` output into a *freshly
    constructed* engine of the identical config.

    ``factories`` rebuild the feeder generators, one per recorded
    feeder in attach order; each is fast-forwarded on its restored tape
    to the recorded suspension point.  ``add_feeder`` is deliberately
    bypassed: the restored wake heap already holds every pending feeder
    wake (scheduling new ones would double-run the feeders).
    """
    if eng._feeders or eng._wakes or eng._dmc_kind is not None \
            or eng._done or eng.now != 0:
        raise CheckpointError(
            "restore_stream needs a freshly constructed engine")
    if len(factories) != len(state["feeders"]):
        raise CheckpointError(
            f"checkpoint has {len(state['feeders'])} feeders, caller "
            f"provided {len(factories)} factories")

    # ---- command identity table ---------------------------------
    # (the execution-cycle stamp is derived, not stored: it is the
    # opcode's table value, which the pop instant rewrites anyway)
    cmds: List[list] = []
    for row in state["commands"]:
        op = CommandType(row[0])
        req = row[C_REQ]
        cmds.append([op] + list(row[1:C_REQ])
                    + [None if req is None else list(req),
                       eng._opinfo[op.value][2]])

    eng._fifos = [deque(cmds[i] for i in ids) for ids in state["fifos"]]
    eng._pending = [None if p is None else (p[0], cmds[p[1]])
                    for p in state["pending"]]
    eng._rr_next = state["rr_next"]
    eng._serve_waiting = state["serve_waiting"]
    cur_id = state["cur"]
    eng._cur = None if cur_id is None else cmds[cur_id]
    eng._cur_info = None if eng._cur is None \
        else eng._opinfo[eng._cur[C_OP].value]
    eng.commands_executed = state["commands_executed"]
    eng._done = [cmds[i] for i in state["done"]]

    dmc = state["dmc"]
    eng._bank_free = list(dmc["bank_free"])
    eng._last_islot = dmc["last_islot"]
    eng._last_was_read = dmc["last_was_read"]
    eng._dmc_queue = [_owned_req(cmds, i) for i in dmc["queue"]]
    eng._dmc_req = None if dmc["req"] is None \
        else _owned_req(cmds, dmc["req"])

    # the DMC-kind entry (at most one: the DMC is a singleton) goes
    # back into the register; the rest become the heap
    wakes = [tuple(w) for w in state["wakes"]
             if w[2] not in DMC_WAKE_KINDS]
    dmc_wakes = [w for w in state["wakes"] if w[2] in DMC_WAKE_KINDS]
    if len(dmc_wakes) > 1 or bool(dmc_wakes) == dmc["waiting"]:
        raise CheckpointError(
            f"checkpoint has {len(dmc_wakes)} pending DMC wakes but "
            f"records the DMC as {'idle' if dmc['waiting'] else 'busy'} "
            f"(corrupt checkpoint)")
    if dmc_wakes:
        eng._dmc_t, eng._dmc_seq, eng._dmc_kind, _arg = dmc_wakes[0]
    heapify(wakes)
    eng._wakes = wakes
    eng.now = state["now"]
    eng._seq = state["seq"]

    _restore_pqm(eng.pqm, state["pqm"])
    if (state["policy"] is None) != (eng.policy is None):
        raise CheckpointError(
            "checkpoint and engine disagree about having a policy")
    if eng.policy is not None:
        eng.policy.load_state(state["policy"])

    # ---- feeders (bypassing add_feeder; see docstring) ----------
    for fst, factory in zip(state["feeders"], factories):
        tape = Tape()
        feeder = CountedFeeder(factory(tape), tape)
        feeder.load_state(fst)
        eng._feeders.append(feeder)
        eng._feeder_port.append(fst["port"])


def _owned_req(cmds: List[list], cmd_idx: int) -> list:
    req = cmds[cmd_idx][C_REQ]
    if req is None:
        raise CheckpointError(
            f"DMC queue references command {cmd_idx} which has no "
            f"request (corrupt checkpoint)")
    return req


def _restore_pqm(pqm: PacketQueueManager, st: Dict[str, Any]) -> None:
    try:
        if "regions" not in st:
            st = _from_address_space(pqm, st)
        pqm.load_state(st)
    except (KeyError, ValueError) as exc:
        raise CheckpointError(
            f"queue state does not fit the configuration: {exc}") from None


def _from_address_space(pqm: PacketQueueManager,
                        st: Dict[str, Any]) -> Dict[str, Any]:
    """Convert a queue state written while the pointer memory was one
    sparse address space into :meth:`PacketQueueManager.state_dict`
    form.  Its totals (``"sram_counts"``) are the sums of the region
    counters and are dropped; a slot missing from ``"shadow"`` was free,
    and its shadow columns are never read before the next allocation
    writes them."""
    mem = pqm.mem
    regions: Dict[str, Dict[str, Any]] = {}
    for name in st["reads"]:
        region = mem.region(name)
        regions[name] = {"words": [0] * region.size,
                         "reads": st["reads"][name],
                         "writes": st["writes"][name]}
    layout = sorted((mem.region(name).base, name) for name in regions)
    for addr, value in st["words"].items():
        addr = int(addr)
        base, name = max(b for b in layout if b[0] <= addr)
        regions[name]["words"][addr - base] = value
    pid = [-1] * pqm.num_segments
    index = [0] * pqm.num_segments
    for slot, shadow in st["shadow"].items():
        pid[int(slot)] = shadow[3]
        index[int(slot)] = shadow[4]
    open_segments = [0] * pqm.num_flows
    for flow, count in st["open_segments"].items():
        open_segments[int(flow)] = count
    return {"regions": regions, "seg_free": st["seg_free"],
            "desc_free": st["desc_free"], "pid": pid, "index": index,
            "open_segments": open_segments,
            "queued_packets": st["queued_packets"],
            "queued_segments": st["queued_segments"]}
