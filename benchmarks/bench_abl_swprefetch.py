"""Ablation: profile-guided software prefetching vs hardware schemes.

The related-work trade-off: the offline profile is perfectly accurate for
behaviour it saw (never wrong-path) but cannot adapt.  Expected: sw-profile
composes with FDIP without catastrophic interaction and its metadata lives
in software (storage_bytes far beyond any 8KB SRAM budget).
"""

from common import instructions, run_once, workloads

from repro.prefetchers.swprefetch import build_for_program
from repro.sim.engine import run_batch, spec_for
from repro.sim.presets import baseline_config, sw_profile_config, udp_config
from repro.workloads.store import program_for

WORKLOADS = ["gcc", "verilator"]


def test_ablation_sw_profile(benchmark):
    def run():
        names = workloads(WORKLOADS)
        n = instructions()
        results = run_batch([
            spec
            for name in names
            for spec in (
                spec_for(name, baseline_config(n), label="baseline"),
                spec_for(name, sw_profile_config(n), label="sw-profile"),
                spec_for(name, udp_config(n), label="udp"),
            )
        ])
        rows = []
        for name, base, sw, udp in zip(
            names, results[::3], results[1::3], results[2::3]
        ):
            profile = build_for_program(program_for(name), num_blocks=8_000)
            rows.append((name, base.ipc, sw.ipc, udp.ipc,
                         profile.num_triggers, profile.storage_bytes()))
        return rows

    rows = run_once(benchmark, run)
    print()
    print(f"{'workload':10s} {'base':>7s} {'sw-prof':>8s} {'udp':>7s} "
          f"{'triggers':>9s} {'metadata':>10s}")
    for name, base, sw, udp, triggers, storage in rows:
        print(f"{name:10s} {base:7.3f} {sw:8.3f} {udp:7.3f} "
              f"{triggers:9d} {storage:9d}B")
        assert sw > base * 0.9, f"{name}: sw-profile badly degraded"
    # Software metadata dwarfs UDP's 8KB SRAM budget (the paper's point
    # about profile-guided schemes needing a heavyweight toolchain).
    assert any(storage > 8 * 1024 for *_, storage in rows)
