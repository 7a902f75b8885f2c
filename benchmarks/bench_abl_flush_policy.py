"""Ablation: useful-set flush-threshold sweep (Section V-C's closing note).

The paper observes that verilator-like workloads with plenty of useful
off-path prefetches prefer a *conservative* flushing policy (higher
unuseful-ratio threshold).  Expected: the threshold changes flush counts
monotonically; IPC differences stay modest.
"""

from common import instructions, run_once, workloads

from repro.sim.engine import run_batch, spec_for
from repro.sim.presets import udp_config

WORKLOADS = ["verilator", "xgboost"]
RATIOS = [0.5, 0.75, 0.95]


def test_ablation_flush_policy(benchmark):
    def run():
        names = workloads(WORKLOADS)
        results = iter(run_batch([
            spec_for(
                name,
                udp_config(instructions(), flush_unuseful_ratio=ratio),
                label=f"udp-flush{ratio}",
            )
            for name in names
            for ratio in RATIOS
        ]))
        out = {}
        for name in names:
            rows = []
            for ratio in RATIOS:
                r = next(results)
                flushes = sum(
                    r[f"useful_set_flush_{size}"] for size in (1, 2, 4)
                )
                rows.append((ratio, r.ipc, flushes))
            out[name] = rows
        return out

    out = run_once(benchmark, run)
    print()
    for name, rows in out.items():
        print(name)
        for ratio, ipc, flushes in rows:
            print(f"  flush-ratio={ratio:.2f} ipc={ipc:.3f} flushes={flushes}")
        # A stricter (lower) ratio can only flush at least as often.
        assert rows[0][2] >= rows[-1][2]
