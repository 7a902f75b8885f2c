#!/usr/bin/env python3
"""Dissect wrong-path behaviour: where resteers come from and what the
wrong path prefetches (the paper's Section III-E/F analysis).

Prints, per workload: resteer causes (conditional mispredicts, BTB misses,
indirect/RAS mispredicts), decode vs execute resolution, the on/off-path
prefetch split, and how useful the off-path prefetches turned out to be —
the data behind the paper's three off-path-usefulness categories.

Run:
    python examples/wrong_path_anatomy.py [workload,workload,...] [instructions]
"""

import sys

from repro import baseline_config, run_batch, spec_for


def main() -> None:
    workloads = (
        sys.argv[1].split(",") if len(sys.argv) > 1
        else ["verilator", "mysql", "mongodb", "xgboost"]
    )
    instructions = int(sys.argv[2]) if len(sys.argv) > 2 else 20_000

    results = run_batch([
        spec_for(workload, baseline_config(instructions), label="baseline")
        for workload in workloads
    ])
    for workload, r in zip(workloads, results):
        total_useful = max(r["prefetch_useful"], 1)
        total_useless = r["prefetch_useless"]
        off_useful = r["prefetch_useful_off_path"]
        off_useless = r["prefetch_useless_off_path"]
        off_total = max(off_useful + off_useless, 1)
        print(f"\n=== {workload} (IPC {r.ipc:.3f}) ===")
        print(f"resteers/kinstr: {r.resteers_per_kilo_instruction:.1f}  "
              f"(cond {r['resteer_cond_mispredict']}, "
              f"btb {r['resteer_btb_miss']}, "
              f"indirect {r['resteer_indirect_mispredict']}, "
              f"ras {r['resteer_ras_mispredict']})")
        print(f"resolution: {r['resteer_at_decode']} at decode (PFC), "
              f"{r['resteer_at_execute']} at execute")
        print(f"prefetches: {r['prefetches_emitted']} emitted, "
              f"{r.on_path_ratio:.0%} on-path")
        print(f"off-path outcome: {off_useful}/{off_total} useful "
              f"({off_useful / off_total:.0%}) — "
              f"overall utility {r.utility:.2f}")
        print(f"useful split: {r['prefetch_useful_on_path']} on-path, "
              f"{off_useful} off-path of {total_useful + total_useless} tracked")


if __name__ == "__main__":
    main()
