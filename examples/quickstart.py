#!/usr/bin/env python3
"""Quickstart: simulate one datacenter workload under FDIP, UDP, and a
perfect icache, and print the headline metrics.

Run:
    python examples/quickstart.py [workload] [instructions]

Defaults: workload=xgboost (the paper's headline app), 20000 instructions.
"""

import sys

from repro import (
    baseline_config,
    perfect_icache_config,
    run_batch,
    spec_for,
    udp_config,
)


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "xgboost"
    instructions = int(sys.argv[2]) if len(sys.argv) > 2 else 20_000

    print(f"workload={workload}, {instructions} instructions per run\n")

    baseline, udp, perfect = run_batch([
        spec_for(workload, baseline_config(instructions), label="baseline"),
        spec_for(workload, udp_config(instructions), label="udp"),
        spec_for(workload, perfect_icache_config(instructions), label="perfect-icache"),
    ])

    print(f"{'config':16s} {'IPC':>7s} {'MPKI':>7s} {'utility':>8s} "
          f"{'timely':>7s} {'on-path':>8s}")
    for result in (baseline, udp, perfect):
        print(
            f"{result.config_name:16s} {result.ipc:7.3f} {result.icache_mpki:7.2f} "
            f"{result.utility:8.2f} {result.timeliness:7.2f} "
            f"{result.on_path_ratio:8.2f}"
        )

    print()
    print(f"UDP speedup over baseline:        {(udp.ipc / baseline.ipc - 1) * 100:+.1f}%")
    print(f"perfect-icache headroom:          {(perfect.ipc / baseline.ipc - 1) * 100:+.1f}%")
    udp_drops = udp["udp_drop_off_path"]
    udp_emits = udp["udp_emit_off_path"]
    print(f"UDP gated off-path candidates:    {udp_drops} dropped, {udp_emits} emitted")


if __name__ == "__main__":
    main()
