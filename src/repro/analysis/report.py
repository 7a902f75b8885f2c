"""Markdown report generation: paper-vs-measured for every experiment.

``build_report`` runs the full experiment set (at a configurable scale) and
renders an EXPERIMENTS.md-style document with the measured tables, the
paper's reference numbers where the paper states them, and an agreement
note per experiment.  The repository's committed EXPERIMENTS.md was
produced by this module (then annotated by hand).
"""

from __future__ import annotations

from repro.analysis import experiments
from repro.analysis.speedup import pct
from repro.sim.metrics import geomean
from repro.workloads.profiles import PAPER_TABLE3

PAPER_HEADLINES = {
    "fig1": "perfect icache: +2.69%..+39% for most apps; xgboost/verilator extreme",
    "fig3": "optimal FTQ varies 12 (xgboost) .. 84 (verilator)",
    "fig11": "UFTQ-ATR-AUR up to +37.2%, avg +4.9%; single-signal variants fail",
    "fig13": "UDP up to +16.1% (xgboost), avg +3.6%; EIP-8KB/40K-icache near zero",
    "fig16": "UDP helps at every BTB size, more when the BTB is small",
    "fig17": "UDP composes with every FTQ size (verilator caveat)",
}


def _section(title: str, table: str, notes: list[str]) -> str:
    body = "\n".join(f"* {note}" for note in notes)
    return f"## {title}\n\n```\n{table}\n```\n\n{body}\n"


def build_report(
    workloads: list[str] | None = None,
    instructions: int = 20_000,
    sweep_workloads: list[str] | None = None,
) -> str:
    """Run every experiment and render the markdown report."""
    sweep_names = sweep_workloads or ["mysql", "gcc", "verilator", "mongodb", "xgboost"]
    sections: list[str] = [
        "# EXPERIMENTS — measured results\n",
        f"(Generated by `repro.analysis.report.build_report`, "
        f"{instructions} instructions per run.)\n",
    ]

    fig1 = experiments.fig1_perfect_icache(workloads, instructions)
    sections.append(_section(
        "Fig 1 — perfect-icache headroom",
        fig1["table"],
        [f"paper: {PAPER_HEADLINES['fig1']}",
         f"measured summary: {fig1['summary']}"],
    ))

    sweep = experiments.ftq_sweep_suite(sweep_names, instructions=instructions)
    fig3 = experiments.fig3_ftq_sweep(sweep)
    sections.append(_section(
        "Fig 3 — IPC vs FTQ depth",
        fig3["table"],
        [f"paper: {PAPER_HEADLINES['fig3']}",
         f"measured optima: {fig3['optimal_depth']}"],
    ))
    for name, fn in (
        ("Fig 4 — timeliness vs depth", experiments.fig4_timeliness),
        ("Fig 5 — on-path ratio vs depth", experiments.fig5_on_path_ratio),
        ("Fig 6 — usefulness vs depth", experiments.fig6_usefulness),
        ("Fig 8 — FTQ occupancy vs depth", experiments.fig8_occupancy),
    ):
        sections.append(_section(name, fn(sweep)["table"], []))

    table3 = experiments.table3_optimal_ftq(sweep)
    paper_rows = ", ".join(
        f"{k}:{v[0]}" for k, v in PAPER_TABLE3.items() if k in sweep
    )
    sections.append(_section(
        "Table III — optimal FTQ / utility / timeliness",
        table3["table"],
        [f"paper optima: {paper_rows}",
         f"measured correlations: {table3['correlations']}"],
    ))

    fig11 = experiments.fig11_uftq_speedup(
        sweep_names, instructions, opt_depths=experiments.optimal_depths(sweep)
    )
    sections.append(_section(
        "Fig 11 — UFTQ speedups",
        fig11["table"],
        [f"paper: {PAPER_HEADLINES['fig11']}",
         f"measured geomeans: {fig11['geomeans']}"],
    ))
    sections.append(_section(
        "Fig 12 — UFTQ icache MPKI",
        experiments.fig12_uftq_mpki(fig11)["table"],
        [],
    ))

    fig13 = experiments.fig13_udp_speedup(workloads, instructions)
    sections.append(_section(
        "Fig 13 — UDP speedups",
        fig13["table"],
        [f"paper: {PAPER_HEADLINES['fig13']}",
         f"measured geomeans: {fig13['geomeans']}"],
    ))
    sections.append(_section(
        "Fig 14 — UDP icache MPKI",
        experiments.fig14_udp_mpki(fig13)["table"],
        [],
    ))
    sections.append(_section(
        "Fig 15 — instruction slots lost to icache",
        experiments.fig15_lost_instructions(fig13)["table"],
        [],
    ))

    fig16 = experiments.fig16_btb_sensitivity(
        ["mysql", "gcc", "xgboost"], instructions=instructions
    )
    sections.append(_section(
        "Fig 16 — BTB sensitivity",
        fig16["table"],
        [f"paper: {PAPER_HEADLINES['fig16']}"],
    ))
    fig17 = experiments.fig17_ftq_sensitivity(
        ["mysql", "gcc", "xgboost"], instructions=instructions
    )
    sections.append(_section(
        "Fig 17 — FTQ sensitivity",
        fig17["table"],
        [f"paper: {PAPER_HEADLINES['fig17']}"],
    ))

    return "\n".join(sections)


def write_report(path: str, **kwargs) -> None:
    """Run :func:`build_report` and write it to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(build_report(**kwargs))
