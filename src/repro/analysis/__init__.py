"""Experiment harness: one function per paper figure/table, plus fitting.

The public names resolve on first use (``repro._lazy``): only the
regression fit imports numpy, so a CLI run that never fits never loads it.
"""

from repro._lazy import exports as _exports

__all__, __getattr__, __dir__ = _exports(
    __name__,
    ("repro.analysis.experiments", (
        "ALL_WORKLOADS",
        "DEFAULT_DEPTHS",
        "fig1_perfect_icache",
        "fig3_ftq_sweep",
        "fig4_timeliness",
        "fig5_on_path_ratio",
        "fig6_usefulness",
        "fig8_occupancy",
        "fig11_uftq_speedup",
        "fig12_uftq_mpki",
        "fig13_udp_speedup",
        "fig14_udp_mpki",
        "fig15_lost_instructions",
        "fig16_btb_sensitivity",
        "fig17_ftq_sensitivity",
        "ftq_sweep_suite",
        "table3_optimal_ftq",
    )),
    ("repro.analysis.characterize", (
        "WorkloadCharacter",
        "characterization_table",
        "characterize_suite",
        "validate_characteristics",
    )),
    ("repro.analysis.plot", ("ascii_chart", "chart_experiment", "sparkline")),
    ("repro.analysis.report", ("build_report", "write_report")),
    ("repro.analysis.stats", ("SpeedupStats", "multi_seed_speedup")),
    ("repro.analysis.regression", ("fit_from_sweep", "fit_regression", "training_rows")),
    ("repro.analysis.speedup", ("pct", "pearson", "speedups_over", "summarize_speedups")),
    ("repro.analysis.tables", ("format_series", "format_table")),
)
