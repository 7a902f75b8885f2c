#!/usr/bin/env python3
"""Watch UFTQ adapt the FTQ depth at runtime (Section IV-A).

Runs the three UFTQ controllers on two workloads with opposite optimal
depths (verilator wants deep, mysql is content shallow) and reports the
final adapted depth, the controller's phase trajectory, and IPC versus the
fixed-32 baseline and the exhaustive-search OPT.

Run:
    python examples/uftq_adaptation.py [workload,workload,...] [instructions]
"""

import sys

from repro import baseline_config, run_batch, spec_for, uftq_config
from repro.analysis.experiments import optimal_depths

SWEEP_DEPTHS = [8, 16, 32, 48, 64, 96]
MODES = ("aur", "atr", "atr-aur")


def main() -> None:
    workloads = (
        sys.argv[1].split(",") if len(sys.argv) > 1 else ["verilator", "mysql"]
    )
    instructions = int(sys.argv[2]) if len(sys.argv) > 2 else 20_000

    # One batch: the fixed-depth sweep (which holds the FTQ-32 baseline and
    # OPT) and the three UFTQ controllers, for every workload.
    base = baseline_config(instructions)
    specs = [
        spec_for(workload, base.with_ftq_depth(depth), label=f"ftq{depth}")
        for workload in workloads
        for depth in SWEEP_DEPTHS
    ] + [
        spec_for(workload, uftq_config(mode, instructions), label=f"uftq-{mode}")
        for workload in workloads
        for mode in MODES
    ]
    runs = {(s.workload, s.label): r for s, r in zip(specs, run_batch(specs))}
    sweep = {
        workload: {depth: runs[(workload, f"ftq{depth}")] for depth in SWEEP_DEPTHS}
        for workload in workloads
    }

    for workload, best_depth in optimal_depths(sweep).items():
        base_run = sweep[workload][32]
        opt = sweep[workload][best_depth]
        print(f"\n=== {workload} ===")
        print(f"baseline (FTQ=32): IPC {base_run.ipc:.3f}")
        print(f"OPT (FTQ={best_depth}):     IPC {opt.ipc:.3f} "
              f"({(opt.ipc / base_run.ipc - 1) * 100:+.1f}%)")
        for mode in MODES:
            result = runs[(workload, f"uftq-{mode}")]
            print(
                f"UFTQ-{mode.upper():8s} IPC {result.ipc:.3f} "
                f"({(result.ipc / base_run.ipc - 1) * 100:+.1f}%), "
                f"final depth {result.final_ftq_depth}, "
                f"adjustments {result['uftq_adjustments']}"
            )


if __name__ == "__main__":
    main()
