"""One function per paper figure/table (the per-experiment index of DESIGN.md).

Every experiment returns a plain-data dict (workload → series/values) plus a
``render()``-able ASCII table, so the benchmark harness can print the same
rows the paper plots.  Scale knobs:

* ``workloads`` — which suite applications to run (default: all ten),
* ``instructions`` — simulated instructions per run,
* the ``REPRO_BENCH_SCALE`` environment variable multiplies instruction
  counts in the benchmark harness (see ``benchmarks/common.py``).

Every driver builds its full (workload x config) spec grid and submits it
through :func:`repro.sim.engine.run_batch`, so experiments parallelize over
``REPRO_JOBS`` worker processes and reuse the on-disk result cache (see
``docs/running_experiments.md``).

Results are *shapes*, not absolute matches: EXPERIMENTS.md records where
this reproduction agrees with and deviates from the paper.
"""

from __future__ import annotations

from repro.analysis.speedup import pct, pearson, summarize_speedups
from repro.analysis.tables import format_series, format_table
from repro.common.config import SimConfig
from repro.sim.engine import RunSpec, run_batch, spec_for
from repro.sim.metrics import SimResult, geomean
from repro.sim.presets import (
    baseline_config,
    bigger_icache_config,
    eip_config,
    infinite_storage_config,
    mana_config,
    perfect_icache_config,
    shadow_btb_config,
    udp_config,
    uftq_config,
)
from repro.workloads.profiles import PAPER_TABLE3, SUITE

ALL_WORKLOADS = [p.name for p in SUITE]
DEFAULT_DEPTHS = [8, 16, 32, 48, 64, 96]


def _workloads(workloads: list[str] | None) -> list[str]:
    return list(workloads) if workloads is not None else list(ALL_WORKLOADS)


def _batch(specs: list[RunSpec]) -> dict[tuple[str, str], SimResult]:
    """Run a spec grid through the engine, indexed by (workload, label)."""
    results = run_batch(specs)
    return {(s.workload, s.label): r for s, r in zip(specs, results)}


# ---------------------------------------------------------------------------
# Figure 1: perfect icache headroom
# ---------------------------------------------------------------------------


def fig1_perfect_icache(
    workloads: list[str] | None = None, instructions: int = 25_000, seed: int = 1
) -> dict:
    """IPC speedup of a perfect L1I over the FDIP baseline (Fig 1)."""
    names = _workloads(workloads)
    runs = _batch(
        [
            spec
            for name in names
            for spec in (
                spec_for(name, baseline_config(instructions, seed), seed, "baseline"),
                spec_for(name, perfect_icache_config(instructions, seed), seed, "perfect"),
            )
        ]
    )
    rows = []
    ratios: dict[str, float] = {}
    for name in names:
        base = runs[(name, "baseline")]
        perfect = runs[(name, "perfect")]
        ratio = perfect.ipc / base.ipc if base.ipc else 1.0
        ratios[name] = ratio
        rows.append([name, base.ipc, perfect.ipc, pct(ratio)])
    return {
        "experiment": "fig1",
        "ratios": ratios,
        "summary": summarize_speedups(ratios),
        "table": format_table(
            ["workload", "baseline IPC", "perfect-L1I IPC", "speedup %"],
            rows,
            title="Fig 1: perfect icache speedup over FDIP baseline",
        ),
    }


# ---------------------------------------------------------------------------
# Figures 3-6, 8 + Table III: the FTQ depth sweep
# ---------------------------------------------------------------------------


def ftq_sweep_suite(
    workloads: list[str] | None = None,
    depths: list[int] | None = None,
    instructions: int = 25_000,
    seed: int = 1,
) -> dict[str, dict[int, SimResult]]:
    """The shared fixed-depth sweep behind Figs 3, 4, 5, 6, 8 and Table III.

    The full (workload x depth) grid is submitted as one engine batch, so
    it parallelizes across both axes under ``REPRO_JOBS``.
    """
    names = _workloads(workloads)
    depths = list(depths) if depths is not None else list(DEFAULT_DEPTHS)
    base = baseline_config(instructions, seed)
    specs = [
        spec_for(name, base.with_ftq_depth(depth), seed, f"ftq{depth}")
        for name in names
        for depth in depths
    ]
    results = run_batch(specs)
    out: dict[str, dict[int, SimResult]] = {name: {} for name in names}
    for spec, result in zip(specs, results):
        out[spec.workload][spec.config.frontend.ftq_depth] = result
    return out


def optimal_depths(sweep: dict[str, dict[int, SimResult]]) -> dict[str, int]:
    """Each workload's OPT depth: the sweep depth with the highest IPC.

    The paper's exhaustive-search oracle (Fig 11's OPT, Table III).  The
    smallest depth wins ties.
    """
    return {
        name: max(sorted(results), key=lambda depth: results[depth].ipc)
        for name, results in sweep.items()
    }


def _sweep_series(
    sweep: dict[str, dict[int, SimResult]], metric
) -> tuple[list[int], dict[str, list[float]]]:
    depths = sorted(next(iter(sweep.values())).keys())
    series = {
        name: [metric(results[d]) for d in depths] for name, results in sweep.items()
    }
    return depths, series


def fig3_ftq_sweep(sweep: dict[str, dict[int, SimResult]]) -> dict:
    """IPC speedup vs FTQ depth, normalized to depth 32 (Fig 3)."""
    depths, ipc = _sweep_series(sweep, lambda r: r.ipc)
    base_index = depths.index(32) if 32 in depths else len(depths) // 2
    series = {
        name: [pct(v / values[base_index]) for v in values]
        for name, values in ipc.items()
    }
    return {
        "experiment": "fig3",
        "depths": depths,
        "speedup_pct": series,
        "optimal_depth": optimal_depths(sweep),
        "table": format_series(
            "ftq", depths, series, title="Fig 3: IPC speedup (%) vs FTQ depth (over depth 32)"
        ),
    }


def fig4_timeliness(sweep: dict[str, dict[int, SimResult]]) -> dict:
    """Timeliness ratio vs FTQ depth (Fig 4)."""
    depths, series = _sweep_series(sweep, lambda r: r.timeliness)
    return {
        "experiment": "fig4",
        "depths": depths,
        "timeliness": series,
        "table": format_series(
            "ftq", depths, series, title="Fig 4: timeliness ratio vs FTQ depth"
        ),
    }


def fig5_on_path_ratio(sweep: dict[str, dict[int, SimResult]]) -> dict:
    """On-path prefetch fraction vs FTQ depth (Fig 5)."""
    depths, series = _sweep_series(sweep, lambda r: r.on_path_ratio)
    return {
        "experiment": "fig5",
        "depths": depths,
        "on_path_ratio": series,
        "table": format_series(
            "ftq", depths, series, title="Fig 5: on-path prefetch ratio vs FTQ depth"
        ),
    }


def fig6_usefulness(sweep: dict[str, dict[int, SimResult]]) -> dict:
    """Prefetch utility ratio vs FTQ depth (Fig 6)."""
    depths, series = _sweep_series(sweep, lambda r: r.utility)
    return {
        "experiment": "fig6",
        "depths": depths,
        "utility": series,
        "table": format_series(
            "ftq", depths, series, title="Fig 6: prefetch usefulness vs FTQ depth"
        ),
    }


def fig8_occupancy(sweep: dict[str, dict[int, SimResult]]) -> dict:
    """Average FTQ occupancy vs FTQ depth (Fig 8)."""
    depths, series = _sweep_series(sweep, lambda r: r.avg_ftq_occupancy)
    return {
        "experiment": "fig8",
        "depths": depths,
        "occupancy": series,
        "table": format_series(
            "ftq", depths, series, title="Fig 8: average FTQ occupancy vs FTQ depth"
        ),
    }


def table3_optimal_ftq(sweep: dict[str, dict[int, SimResult]]) -> dict:
    """Optimal FTQ depth + utility + timeliness per workload (Table III)."""
    rows = []
    optima: dict[str, tuple[int, float, float]] = {}
    for name, best_depth in optimal_depths(sweep).items():
        best = sweep[name][best_depth]
        optima[name] = (best_depth, best.utility, best.timeliness)
        paper = PAPER_TABLE3.get(name)
        rows.append(
            [
                name,
                best_depth,
                best.utility,
                best.timeliness,
                paper[0] if paper else "-",
                paper[1] if paper else "-",
                paper[2] if paper else "-",
            ]
        )
    depths_list = [float(v[0]) for v in optima.values()]
    utils = [v[1] for v in optima.values()]
    timeliness = [v[2] for v in optima.values()]
    correlations = {
        "utility_vs_optimal": pearson(utils, depths_list),
        "timeliness_vs_optimal": pearson(timeliness, depths_list),
    }
    return {
        "experiment": "table3",
        "optima": optima,
        "correlations": correlations,
        "table": format_table(
            [
                "workload",
                "opt FTQ",
                "utility",
                "timeliness",
                "paper opt",
                "paper util",
                "paper ATR",
            ],
            rows,
            title="Table III: optimal FTQ size, utility and timeliness",
        ),
    }


# ---------------------------------------------------------------------------
# Figures 11-12: UFTQ
# ---------------------------------------------------------------------------


def fig11_uftq_speedup(
    workloads: list[str] | None = None,
    instructions: int = 25_000,
    seed: int = 1,
    *,
    opt_depths: dict[str, int],
) -> dict:
    """UFTQ-AUR / -ATR / -ATR-AUR / OPT IPC speedups over baseline (Fig 11).

    ``opt_depths`` gives each workload's OPT depth, normally
    :func:`optimal_depths` of an FTQ sweep at the same scale.
    """
    names = _workloads(workloads)
    configs: dict[str, SimConfig] = {
        "uftq-aur": uftq_config("aur", instructions, seed),
        "uftq-atr": uftq_config("atr", instructions, seed),
        "uftq-atr-aur": uftq_config("atr-aur", instructions, seed),
    }
    specs: list[RunSpec] = []
    for name in names:
        specs.append(spec_for(name, baseline_config(instructions, seed), seed, "baseline"))
        for cname, config in configs.items():
            specs.append(spec_for(name, config, seed, cname))
        specs.append(
            spec_for(
                name,
                baseline_config(instructions, seed).with_ftq_depth(opt_depths[name]),
                seed,
                "opt",
            )
        )
    runs = _batch(specs)
    results: dict[str, dict[str, SimResult]] = {name: {} for name in names}
    speedups: dict[str, dict[str, float]] = {c: {} for c in list(configs) + ["opt"]}
    rows = []
    for name in names:
        base = runs[(name, "baseline")]
        results[name]["baseline"] = base
        row = [name]
        for cname in configs:
            r = runs[(name, cname)]
            results[name][cname] = r
            speedups[cname][name] = r.ipc / base.ipc
            row.append(pct(r.ipc / base.ipc))
        opt = runs[(name, "opt")]
        results[name]["opt"] = opt
        speedups["opt"][name] = opt.ipc / base.ipc
        row.append(pct(opt.ipc / base.ipc))
        rows.append(row)
    return {
        "experiment": "fig11",
        "results": results,
        "speedups": speedups,
        "geomeans": {c: pct(geomean(list(v.values()))) for c, v in speedups.items()},
        "table": format_table(
            ["workload", "AUR %", "ATR %", "ATR-AUR %", "OPT %"],
            rows,
            title="Fig 11: UFTQ IPC speedups over the fixed-32 baseline",
        ),
    }


def fig12_uftq_mpki(fig11: dict) -> dict:
    """Icache MPKI of the UFTQ variants (Fig 12) — derived from Fig 11 runs."""
    rows = []
    mpki: dict[str, dict[str, float]] = {}
    for name, per_config in fig11["results"].items():
        mpki[name] = {c: r.icache_mpki for c, r in per_config.items()}
        rows.append(
            [name]
            + [
                per_config[c].icache_mpki
                for c in ("baseline", "uftq-aur", "uftq-atr", "uftq-atr-aur", "opt")
            ]
        )
    return {
        "experiment": "fig12",
        "mpki": mpki,
        "table": format_table(
            ["workload", "base", "AUR", "ATR", "ATR-AUR", "OPT"],
            rows,
            title="Fig 12: icache MPKI of UFTQ variants",
        ),
    }


# ---------------------------------------------------------------------------
# Figures 13-15: UDP
# ---------------------------------------------------------------------------


def fig13_udp_speedup(
    workloads: list[str] | None = None, instructions: int = 25_000, seed: int = 1
) -> dict:
    """UDP / Infinite / 40K icache / EIP / MANA / shadow-BTB speedups (Fig 13).

    The paper's Fig 13 grid plus the two registry-provided related-work
    rivals: MANA at the same ISO 8KB budget and shadow-branch BTB prefill.
    """
    names = _workloads(workloads)
    configs: dict[str, SimConfig] = {
        "udp": udp_config(instructions, seed),
        "infinite": infinite_storage_config(instructions, seed),
        "icache-40k": bigger_icache_config(instructions, seed),
        "eip-8k": eip_config(instructions, seed),
        "mana-8k": mana_config(instructions, seed),
        "shadow-btb": shadow_btb_config(instructions, seed),
    }
    specs = [
        spec_for(name, config, seed, cname)
        for name in names
        for cname, config in [("baseline", baseline_config(instructions, seed))]
        + list(configs.items())
    ]
    runs = _batch(specs)
    results: dict[str, dict[str, SimResult]] = {}
    speedups: dict[str, dict[str, float]] = {c: {} for c in configs}
    rows = []
    for name in names:
        base = runs[(name, "baseline")]
        results[name] = {"baseline": base}
        row = [name]
        for cname in configs:
            r = runs[(name, cname)]
            results[name][cname] = r
            speedups[cname][name] = r.ipc / base.ipc
            row.append(pct(r.ipc / base.ipc))
        rows.append(row)
    return {
        "experiment": "fig13",
        "results": results,
        "speedups": speedups,
        "geomeans": {c: pct(geomean(list(v.values()))) for c, v in speedups.items()},
        "table": format_table(
            [
                "workload", "UDP %", "Infinite %", "40K L1I %",
                "EIP-8KB %", "MANA-8KB %", "ShadowBTB %",
            ],
            rows,
            title="Fig 13: UDP IPC speedups over the fixed-32 baseline",
        ),
    }


def fig14_udp_mpki(fig13: dict) -> dict:
    """Icache MPKI of the Fig 13 techniques (Fig 14)."""
    rows = []
    mpki: dict[str, dict[str, float]] = {}
    order = (
        "baseline", "udp", "infinite", "icache-40k", "eip-8k",
        "mana-8k", "shadow-btb",
    )
    for name, per_config in fig13["results"].items():
        mpki[name] = {c: per_config[c].icache_mpki for c in order}
        rows.append([name] + [per_config[c].icache_mpki for c in order])
    return {
        "experiment": "fig14",
        "mpki": mpki,
        "table": format_table(
            ["workload", "base", "UDP", "Inf", "40K", "EIP", "MANA", "ShBTB"],
            rows,
            title="Fig 14: icache MPKI of UDP and comparators",
        ),
    }


def fig15_lost_instructions(fig13: dict) -> dict:
    """Fetch slots lost to icache stalls, per kilo-instruction (Fig 15)."""
    rows = []
    lost: dict[str, dict[str, float]] = {}
    order = (
        "baseline", "udp", "infinite", "icache-40k", "eip-8k",
        "mana-8k", "shadow-btb",
    )
    for name, per_config in fig13["results"].items():
        lost[name] = {
            c: per_config[c].instructions_lost_icache
            / max(per_config[c].retired / 1000.0, 1e-9)
            for c in order
        }
        rows.append([name] + [lost[name][c] for c in order])
    return {
        "experiment": "fig15",
        "lost_per_kinstr": lost,
        "table": format_table(
            ["workload", "base", "UDP", "Inf", "40K", "EIP", "MANA", "ShBTB"],
            rows,
            title="Fig 15: instruction slots lost to icache misses (per kinstr)",
        ),
    }


# ---------------------------------------------------------------------------
# Figures 16-17: sensitivity
# ---------------------------------------------------------------------------


def fig16_btb_sensitivity(
    workloads: list[str] | None = None,
    btb_sizes: list[int] | None = None,
    instructions: int = 25_000,
    seed: int = 1,
) -> dict:
    """UDP speedup across BTB capacities (Fig 16)."""
    names = _workloads(workloads)
    sizes = btb_sizes if btb_sizes is not None else [1024, 2048, 4096, 8192, 16384]
    runs = _batch(
        [
            spec
            for size in sizes
            for name in names
            for spec in (
                spec_for(
                    name,
                    baseline_config(instructions, seed).with_btb_entries(size),
                    seed,
                    f"base-btb{size}",
                ),
                spec_for(
                    name,
                    udp_config(instructions, seed).with_btb_entries(size),
                    seed,
                    f"udp-btb{size}",
                ),
            )
        ]
    )
    series: dict[str, list[float]] = {name: [] for name in names}
    for size in sizes:
        for name in names:
            base = runs[(name, f"base-btb{size}")]
            udp = runs[(name, f"udp-btb{size}")]
            series[name].append(pct(udp.ipc / base.ipc))
    return {
        "experiment": "fig16",
        "btb_sizes": sizes,
        "speedup_pct": series,
        "table": format_series(
            "btb", sizes, series, title="Fig 16: UDP speedup (%) vs BTB capacity"
        ),
    }


def fig17_ftq_sensitivity(
    workloads: list[str] | None = None,
    depths: list[int] | None = None,
    instructions: int = 25_000,
    seed: int = 1,
) -> dict:
    """UDP speedup across FTQ depths (Fig 17)."""
    names = _workloads(workloads)
    depth_list = depths if depths is not None else [16, 32, 48, 64]
    runs = _batch(
        [
            spec
            for depth in depth_list
            for name in names
            for spec in (
                spec_for(
                    name,
                    baseline_config(instructions, seed, ftq_depth=depth),
                    seed,
                    f"base-ftq{depth}",
                ),
                spec_for(
                    name,
                    udp_config(instructions, seed, ftq_depth=depth),
                    seed,
                    f"udp-ftq{depth}",
                ),
            )
        ]
    )
    series: dict[str, list[float]] = {name: [] for name in names}
    for depth in depth_list:
        for name in names:
            base = runs[(name, f"base-ftq{depth}")]
            udp = runs[(name, f"udp-ftq{depth}")]
            series[name].append(pct(udp.ipc / base.ipc))
    return {
        "experiment": "fig17",
        "depths": depth_list,
        "speedup_pct": series,
        "table": format_series(
            "ftq", depth_list, series, title="Fig 17: UDP speedup (%) vs FTQ depth"
        ),
    }
