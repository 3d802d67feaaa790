#!/usr/bin/env python3
"""Section 3 in action: DDR bank tuning and the reordering scheduler.

Regenerates Table 1 and the two scheduler ablations the paper fixes --
history depth (3) and direction-aware selection (not used) -- through
the scenario API, then shows the engine and seed knobs every DDR
scenario exposes: the batched ``fast`` engine and the per-access
``reference`` walk produce bit-identical results.

Run:  PYTHONPATH=src python examples/ddr_scheduler_tuning.py
"""

from repro.scenarios import Runner, render


def main() -> None:
    runner = Runner()

    # --- Table 1 on the fast budget (the CLI equivalent:
    # `repro-analysis run table1 --fast`)
    print(render(runner.run("table1", fast=True)))

    # --- the paper's fixed knobs, as registered ablation scenarios
    print()
    print(render(runner.run("ablation-history-depth", fast=True)))
    print()
    print(render(runner.run("ablation-rw-grouping", fast=True)))

    # --- engine selection: batched vs reference walk, bit-identical
    fast = runner.run("ablation-history-depth", fast=True, engine="fast")
    ref = runner.run("ablation-history-depth", fast=True,
                     engine="reference")
    print(f"\nfast vs reference engines: identical = "
          f"{fast.metrics == ref.metrics} "
          f"({fast.wall_clock_s * 1000:.0f} ms vs "
          f"{ref.wall_clock_s * 1000:.0f} ms)")

    # --- seeds thread through every scenario that declares them
    reseeded = runner.run("ablation-history-depth", fast=True, seed=42)
    print(f"seed=42 shifts the simulated losses: "
          f"{reseeded.metrics != fast.metrics}")


if __name__ == "__main__":
    main()
