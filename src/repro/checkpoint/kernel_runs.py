"""Checkpoint-aware drivers for the DES kernel path.

The kernel executes workloads as suspended generator *processes*, and
Python generators cannot be serialized.  So kernel checkpoints are
**replay-anchored** instead of exact: the envelope stores the run
params (enough to rebuild the model from scratch), the simulated
instant, a functional-state fingerprint (SHA-256 over the canonical
JSON of the PQM words, counters, free lists, policy books and shared
feeder counters) and the serialized event schedule
(:meth:`~repro.sim.kernel.Simulator.schedule_state`).  Resume rebuilds
the model, replays deterministically to the anchor via the kernel's
incremental-run seam, then *verifies* both the fingerprint and the
schedule before continuing -- a checkpoint that does not re-anchor
byte-identically is refused rather than silently diverging.

Determinism makes the replay exact: the kernel path takes no
wall-clock or OS input, every RNG is seeded from the params, and the
event order is pinned by the ``(time, sequence)`` contract.  The
telemetry probe and span tracer are deliberately *not* checkpointed on
this path: ``on_command`` re-accumulates during the replay, and the
record channels are replayed from the DQM's records at :meth:`finish`,
exactly as in an unbroken run.

Only the ``overload`` and ``script`` workload families get kernel
drivers; the load/saturation families checkpoint on the stream path
(:class:`~repro.checkpoint.runs.StreamRun`, exact snapshots).  The
kernel driver attaches the overload feeders with the harness's own
:func:`~repro.engines.harnesses.attach_overload` and finishes through
the same :func:`~repro.checkpoint.runs.finish_result` as
:class:`StreamRun`, so its result is assembled by the one overload
assembly the plain harness uses.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Dict, Union

if TYPE_CHECKING:
    from repro.checkpoint.runs import StreamRun

from repro.checkpoint.runs import (
    _build_probes,
    _decode_op,
    _script_feeder,
    finish_result,
    workload_horizon,
)
from repro.checkpoint.snapshot import (
    Checkpoint,
    CheckpointError,
    config_from_dict,
)
from repro.core.mms import MMS
from repro.core.workloads import overload_drain_ops
from repro.engines import harnesses

#: Workload families a KernelRun can drive (see module docstring).
KERNEL_WORKLOADS = ("overload", "script")


def functional_digest(mms: MMS, store: Dict[str, int]) -> str:
    """SHA-256 over the canonical JSON of the model's functional state
    (PQM memory and books, free lists, policy state, shared feeder
    counters).  Two runs with equal digests have byte-identical
    functional state -- the anchor check of a kernel resume."""
    pqm = mms.pqm
    mem = pqm.mem
    sram = mem._sram
    state = {
        "words": {str(a): v for a, v in sram._words.items()},
        "sram_counts": [sram.read_count, sram.write_count],
        "reads": dict(mem.reads_by_region),
        "writes": dict(mem.writes_by_region),
        "seg_free": [pqm.seg_free._reg_head, pqm.seg_free._reg_tail,
                     pqm.seg_free.free_count, pqm.seg_free._virgin],
        "desc_free": [pqm.desc_free._reg_head, pqm.desc_free._reg_tail,
                      pqm.desc_free.free_count, pqm.desc_free._virgin],
        "shadow": {str(slot): list(s)
                   for slot, s in pqm._seg_shadow.items()},
        "open_segments": {str(f): n
                          for f, n in pqm._open_segments.items()},
        "queued_packets": list(pqm._queued_packets),
        "queued_segments": list(pqm._queued_segments),
        "policy": None if mms.policy is None else mms.policy.state_dict(),
        "counters": dict(store),
    }
    blob = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class KernelRun:
    """One checkpointable kernel run (replay-anchored; see module
    docstring).  The interface mirrors
    :class:`~repro.checkpoint.runs.StreamRun`: build with :meth:`fresh`
    or :meth:`resume`, advance with :meth:`run`, snapshot with
    :meth:`checkpoint` between runs, finish with :meth:`finish`.

    ``mms`` and ``sim`` are exposed for test capture hooks.
    """

    def __init__(self, workload: str, params: Dict[str, Any]) -> None:
        if workload not in KERNEL_WORKLOADS:
            raise CheckpointError(
                f"unknown kernel workload {workload!r} "
                f"(choose from {KERNEL_WORKLOADS}; the load/saturation "
                f"families checkpoint on the stream path)")
        self.workload = workload
        self.params = params
        self.config = config_from_dict(params["config"])
        self.telemetry, self.tracer, self.probe = _build_probes(params)
        self.store: Dict[str, int] = {}
        self._build()

    # ------------------------------------------------------ constructors

    @classmethod
    def fresh(cls, workload: str, params: Dict[str, Any]) -> "KernelRun":
        """Start the workload from scratch."""
        return cls(workload, params)

    @classmethod
    def resume(cls, ckpt: Checkpoint) -> "KernelRun":
        """Rebuild, replay to the anchor and verify it (refusing a
        checkpoint that does not re-anchor byte-identically)."""
        if ckpt.engine != "kernel":
            raise CheckpointError(
                f"KernelRun cannot resume a {ckpt.engine!r} checkpoint")
        run = cls(ckpt.workload, dict(ckpt.params))
        run.sim.run(until_ps=ckpt.at_ps)
        fp = ckpt.state["fingerprint"]
        problems = []
        if run.sim.now != fp["now"]:
            problems.append(f"clock {run.sim.now} != {fp['now']}")
        digest = functional_digest(run.mms, run.store)
        if digest != fp["digest"]:
            problems.append("functional state digest mismatch")
        schedule = run.sim.schedule_state()
        if schedule != ckpt.state["schedule"]:
            problems.append("event schedule mismatch")
        if problems:
            raise CheckpointError(
                "kernel replay did not re-anchor to the checkpoint ("
                + "; ".join(problems) + ")")
        return run

    # ---------------------------------------------------------- plumbing

    def _build(self) -> None:
        p = self.params
        self.mms = MMS(self.config, probe=self.probe)
        self.sim = self.mms.sim
        mms = self.mms

        if self.workload == "overload":
            self.store["dequeued"] = 0
            harnesses.attach_overload(mms, p["shape"], p["num_arrivals"],
                                      p["active_flows"], self.store)
        else:  # script
            if p["drain"]:
                self.store["dequeued"] = 0
            for port, encoded in enumerate(p["scripts"]):
                ops = [_decode_op(op) for op in encoded]
                mms.add_feeder(port, _script_feeder(ops, self.store,
                                                    p["mark_done"]))
            if p["drain"]:
                mms.add_feeder(len(p["scripts"]), overload_drain_ops(
                    mms.pqm.queued_packets, p["drain_active_flows"],
                    p["drain_period_ps"], self.store))

    # ----------------------------------------------------------- running

    @property
    def now(self) -> int:
        return self.sim.now

    @property
    def horizon(self) -> int:
        """The workload's run horizon (the harness formula)."""
        return workload_horizon(self.workload, self.params, self.mms)

    def run(self, until_ps: int) -> None:
        """Advance the kernel to ``until_ps`` (a rest point: safe to
        checkpoint after)."""
        self.sim.run(until_ps=until_ps)

    def checkpoint(self) -> Checkpoint:
        """Snapshot the run's replay anchor at the current rest
        point."""
        schedule = self.sim.schedule_state()
        return Checkpoint(
            engine="kernel",
            workload=self.workload,
            at_ps=self.sim.now,
            params=self.params,
            state={
                "fingerprint": {
                    "now": self.sim.now,
                    "pending_events": len(schedule["entries"]),
                    "digest": functional_digest(self.mms, self.store),
                },
                "schedule": schedule,
            },
        )

    def finish(self) -> Any:
        """Run to the horizon and assemble the workload's result with
        the exact harness arithmetic."""
        horizon = self.horizon
        self.sim.run(until_ps=horizon)
        return finish_result(self.workload, self.params, self.mms,
                             self.store, self.probe, horizon, "reference")


def resume_run(ckpt: Checkpoint) -> Union["StreamRun", "KernelRun"]:
    """Dispatch a checkpoint to its execution path's driver."""
    if ckpt.engine == "stream":
        from repro.checkpoint.runs import StreamRun
        return StreamRun.resume(ckpt)
    return KernelRun.resume(ckpt)
