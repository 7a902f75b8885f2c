"""repro — reproduction of "UDP: Utility-Driven Fetch Directed Instruction
Prefetching" (ISCA 2024).

Public API tour: every simulation is a :class:`RunSpec` (workload x config
x seed), and :func:`run_batch` runs a list of them through the parallel
experiment engine, which fans out over ``REPRO_JOBS`` processes and caches
results on disk (see ``docs/running_experiments.md``)::

    from repro import baseline_config, run_batch, spec_for, udp_config

    base, udp = run_batch([
        spec_for("xgboost", baseline_config(max_instructions=20_000), label="base"),
        spec_for("xgboost", udp_config(max_instructions=20_000), label="udp"),
    ])
    print(udp.ipc / base.ipc)   # UDP's IPC speedup over fixed-FTQ FDIP

A hand-built program runs the same way, as
``RunSpec(workload="custom", config=..., program=program)``.

Layers (bottom-up):

* :mod:`repro.workloads` — synthetic datacenter programs + ground-truth oracle
* :mod:`repro.branch` — TAGE / BTB / iBTB / RAS substrate
* :mod:`repro.memory` — caches, MSHRs, uncore, stream data prefetcher
* :mod:`repro.frontend` — FTQ, decoupled walker (wrong-path capable), FDIP
* :mod:`repro.backend` — simplified OoO window with branch-resolution timing
* :mod:`repro.core` — the paper's contributions: UDP and UFTQ
* :mod:`repro.prefetchers` — stand-alone comparators (EIP, next-line)
* :mod:`repro.sim` — the cycle loop, presets, the batch engine, metrics
* :mod:`repro.analysis` — one experiment function per paper figure/table

The public names below resolve on first use (``repro._lazy``), so
``import repro`` loads only what a caller touches.
"""

from repro._lazy import exports as _exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = _exports(
    __name__,
    ("repro.sim.engine", (
        "BatchError",
        "BatchStats",
        "ResultCache",
        "RunEvent",
        "RunSpec",
        "SpecFailure",
        "default_cache",
        "run_batch",
        "set_default_progress",
        "spec_for",
    )),
    ("repro.common.config", ("SimConfig", "TechniqueConfig", "UDPConfig", "UFTQConfig")),
    ("repro.sim.metrics", ("SimResult", "geomean", "speedup")),
    ("repro.sim.presets", (
        "baseline_config",
        "bigger_icache_config",
        "eip_config",
        "infinite_storage_config",
        "mana_config",
        "opt_config",
        "perfect_icache_config",
        "shadow_btb_config",
        "udp_config",
        "uftq_config",
    )),
    ("repro.sim.simulator", ("Simulator",)),
    ("repro.workloads.profiles", ("PAPER_TABLE3", "SUITE", "get_profile")),
    ("repro.workloads.synth", ("synthesize",)),
)
__all__ += ["__version__"]
