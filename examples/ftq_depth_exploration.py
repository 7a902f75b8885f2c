#!/usr/bin/env python3
"""Reproduce the paper's Section III analysis for one workload: sweep the
FTQ depth and report IPC, timeliness, on-path ratio, utility, and average
occupancy at each depth (Figures 3, 4, 5, 6, 8 for a single application).

Run:
    python examples/ftq_depth_exploration.py [workload] [instructions]
"""

import sys

from repro import baseline_config, run_batch, spec_for
from repro.analysis.experiments import optimal_depths

DEPTHS = [8, 16, 24, 32, 48, 64, 96]


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "verilator"
    instructions = int(sys.argv[2]) if len(sys.argv) > 2 else 20_000

    print(f"FTQ depth sweep: {workload}, {instructions} instructions/run\n")
    base = baseline_config(instructions)
    results = dict(zip(DEPTHS, run_batch([
        spec_for(workload, base.with_ftq_depth(depth), label=f"ftq{depth}")
        for depth in DEPTHS
    ])))
    base_ipc = results[32].ipc

    print(f"{'depth':>5s} {'IPC':>7s} {'vs 32':>7s} {'timely':>7s} "
          f"{'on-path':>8s} {'utility':>8s} {'occupancy':>10s}")
    for depth in DEPTHS:
        r = results[depth]
        print(
            f"{depth:5d} {r.ipc:7.3f} {(r.ipc / base_ipc - 1) * 100:+6.1f}% "
            f"{r.timeliness:7.2f} {r.on_path_ratio:8.2f} {r.utility:8.2f} "
            f"{r.avg_ftq_occupancy:10.1f}"
        )

    best = optimal_depths({workload: results})[workload]
    print(f"\noptimal FTQ depth for {workload}: {best} "
          f"({(results[best].ipc / base_ipc - 1) * 100:+.1f}% over depth 32)")
    print("Compare with the paper's Table III optima "
          "(mysql 22 ... verilator 84, xgboost 12).")


if __name__ == "__main__":
    main()
