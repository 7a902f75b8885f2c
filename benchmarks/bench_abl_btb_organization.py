"""Ablation: monolithic 8K BTB vs the related-work two-level organization.

Expected shape: the 2-level design's L1-BTB misses cause extra first-touch
resteers, but its L2 backing keeps the steady-state hit rate near the
monolithic design — the capacity/latency trade-off the BTB-research line
(Kobayashi, PDede) navigates.
"""

from common import instructions, run_once, workloads

from repro.sim.engine import run_batch, spec_for
from repro.sim.presets import baseline_config, two_level_btb_config

WORKLOADS = ["gcc", "mysql", "verilator"]


def test_ablation_btb_organization(benchmark):
    def run():
        names = workloads(WORKLOADS)
        n = instructions()
        results = run_batch([
            spec
            for name in names
            for spec in (
                spec_for(name, baseline_config(n), label="mono-btb"),
                spec_for(name, two_level_btb_config(n), label="two-level-btb"),
            )
        ])
        return list(zip(names, results[::2], results[1::2]))

    rows = run_once(benchmark, run)
    print()
    print(f"{'workload':10s} {'mono IPC':>9s} {'2lvl IPC':>9s} "
          f"{'mono rst/ki':>12s} {'2lvl rst/ki':>12s}")
    for name, mono, two in rows:
        print(f"{name:10s} {mono.ipc:9.3f} {two.ipc:9.3f} "
              f"{mono.resteers_per_kilo_instruction:12.1f} "
              f"{two.resteers_per_kilo_instruction:12.1f}")
        # The hierarchical design pays extra resteers, never fewer.
        assert two["resteer_btb_miss"] >= mono["resteer_btb_miss"] * 0.8
