"""Simulation: the cycle-level core model, the batch engine, presets, metrics.

The public names resolve on first use (``repro._lazy``).
"""

from repro._lazy import exports as _exports

__all__, __getattr__, __dir__ = _exports(
    __name__,
    ("repro.sim.engine", (
        "BatchStats",
        "ResultCache",
        "RunEvent",
        "RunSpec",
        "default_cache",
        "run_batch",
        "set_default_progress",
        "spec_for",
    )),
    ("repro.sim.energy", (
        "EnergyModel",
        "EnergyReport",
        "efficiency_comparison",
        "energy_report",
    )),
    ("repro.sim.metrics", ("SimResult", "geomean", "speedup")),
    ("repro.sim.presets", (
        "PRESET_BUILDERS",
        "baseline_config",
        "bigger_icache_config",
        "eip_config",
        "infinite_storage_config",
        "loop_predictor_config",
        "miss_heavy_config",
        "no_prefetch_config",
        "sw_profile_config",
        "two_level_btb_config",
        "opt_config",
        "perfect_icache_config",
        "udp_config",
        "uftq_config",
    )),
    ("repro.workloads.store", ("program_for",)),
    ("repro.sim.simulator", ("Simulator",)),
    ("repro.sim.tracer", ("PipelineTracer", "TraceEvent")),
)
