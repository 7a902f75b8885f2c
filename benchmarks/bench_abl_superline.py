"""Ablation: UDP with vs without super-line coalescing (DESIGN.md §4).

The super-line optimization stores 2-/4-line blocks in dedicated Bloom
filters, quadrupling effective capacity.  Expected: disabling it does not
crash anything and changes the emitted-prefetch mix; on filter-pressure
workloads the coalesced variant covers more candidates.
"""

from common import instructions, run_once, workloads

from repro.sim.engine import run_batch, spec_for
from repro.sim.presets import baseline_config, udp_config

WORKLOADS = ["gcc", "verilator", "xgboost"]


def test_ablation_superline(benchmark):
    def run():
        names = workloads(WORKLOADS)
        n = instructions()
        results = run_batch([
            spec
            for name in names
            for spec in (
                spec_for(name, baseline_config(n), label="baseline"),
                spec_for(name, udp_config(n), label="udp"),
                spec_for(
                    name, udp_config(n, use_superlines=False),
                    label="udp-no-superline",
                ),
            )
        ])
        rows = []
        for name, base, with_sl, without in zip(
            names, results[::3], results[1::3], results[2::3]
        ):
            rows.append((name, base.ipc, with_sl.ipc, without.ipc,
                         with_sl["udp_superline_emits"]))
        return rows

    rows = run_once(benchmark, run)
    print()
    print(f"{'workload':10s} {'base':>7s} {'udp':>7s} {'no-sl':>7s} {'sl-emits':>9s}")
    for name, base, with_sl, without, emits in rows:
        print(f"{name:10s} {base:7.3f} {with_sl:7.3f} {without:7.3f} {emits:9d}")
    for name, base, with_sl, without, _ in rows:
        assert with_sl > 0 and without > 0
