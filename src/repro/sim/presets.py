"""Named configurations for every technique the paper evaluates.

All presets start from the Table II baseline (FDIP with a fixed 32-deep
FTQ) and change exactly the dimension under test, so cross-technique
comparisons are ISO everywhere else.  The techniques' params classes live
in :mod:`repro.prefetchers.registry`, so building a config imports no
technique module.
"""

from __future__ import annotations

import dataclasses

from repro.common.config import (
    CacheConfig,
    SimConfig,
    TechniqueConfig,
    UDPConfig,
    UFTQConfig,
)
from repro.prefetchers.registry import EIPParams, MANAParams, ShadowBTBParams, SWProfileParams


def baseline_config(
    max_instructions: int = 50_000, seed: int = 1, ftq_depth: int = 32
) -> SimConfig:
    """The state-of-the-art FDIP baseline (Ishii-style, FTQ=32)."""
    config = SimConfig(max_instructions=max_instructions, seed=seed)
    if ftq_depth != config.frontend.ftq_depth:
        config = config.with_ftq_depth(ftq_depth)
    return config


def perfect_icache_config(max_instructions: int = 50_000, seed: int = 1) -> SimConfig:
    """Fig 1's upper bound: every L1I access hits."""
    return baseline_config(max_instructions, seed).with_perfect_icache()


def no_prefetch_config(max_instructions: int = 50_000, seed: int = 1) -> SimConfig:
    """FDIP frontend with prefetching disabled (analysis baseline)."""
    config = baseline_config(max_instructions, seed)
    return config.replace(prefetcher=TechniqueConfig(kind="none"))


def uftq_config(
    mode: str, max_instructions: int = 50_000, seed: int = 1
) -> SimConfig:
    """UFTQ-AUR / UFTQ-ATR / UFTQ-ATR-AUR (Section IV-A)."""
    config = baseline_config(max_instructions, seed)
    return config.replace(uftq=UFTQConfig(mode=mode))


def udp_config(
    max_instructions: int = 50_000,
    seed: int = 1,
    ftq_depth: int = 32,
    infinite_storage: bool = False,
    **udp_overrides,
) -> SimConfig:
    """UDP with the 8KB Bloom-filter useful-set (Section IV-B)."""
    config = baseline_config(max_instructions, seed, ftq_depth=ftq_depth)
    udp = UDPConfig(enabled=True, infinite_storage=infinite_storage, **udp_overrides)
    return config.replace(udp=udp)


def infinite_storage_config(max_instructions: int = 50_000, seed: int = 1) -> SimConfig:
    """UDP's upper bound: an exact, unbounded useful-set (Fig 13)."""
    return udp_config(max_instructions, seed, infinite_storage=True)


def bigger_icache_config(max_instructions: int = 50_000, seed: int = 1) -> SimConfig:
    """Fig 13's ISO-storage comparator: 40 KiB L1I (32K + 8K budget).

    40 KiB at 10 ways keeps 64 power-of-two sets.
    """
    config = baseline_config(max_instructions, seed)
    l1i = dataclasses.replace(
        config.memory.l1i, size_bytes=40 * 1024, assoc=10
    )
    return config.replace(memory=dataclasses.replace(config.memory, l1i=l1i))


def eip_config(
    max_instructions: int = 50_000,
    seed: int = 1,
    storage_bytes: int = 8 * 1024,
    wrong_path_aware: bool = False,
) -> SimConfig:
    """Fig 13's EIP comparator at an ISO 8KB budget (layered on FDIP)."""
    config = baseline_config(max_instructions, seed)
    return config.replace(
        prefetcher=TechniqueConfig(
            kind="eip",
            params=EIPParams(
                storage_bytes=storage_bytes, wrong_path_aware=wrong_path_aware
            ),
        )
    )


def sw_profile_config(
    max_instructions: int = 50_000, seed: int = 1, profile_blocks: int = 20_000
) -> SimConfig:
    """Profile-guided software prefetching layered on FDIP (related work)."""
    config = baseline_config(max_instructions, seed)
    return config.replace(
        prefetcher=TechniqueConfig(
            kind="sw-profile", params=SWProfileParams(profile_blocks=profile_blocks)
        )
    )


def mana_config(
    max_instructions: int = 50_000,
    seed: int = 1,
    storage_bytes: int = 8 * 1024,
) -> SimConfig:
    """MANA spatial-region prefetcher at an ISO 8KB budget (on FDIP)."""
    config = baseline_config(max_instructions, seed)
    return config.replace(
        prefetcher=TechniqueConfig(
            kind="mana", params=MANAParams(storage_bytes=storage_bytes)
        )
    )


def shadow_btb_config(max_instructions: int = 50_000, seed: int = 1) -> SimConfig:
    """Shadow-branch BTB prefill from predecoded fill lines (on FDIP)."""
    config = baseline_config(max_instructions, seed)
    return config.replace(
        prefetcher=TechniqueConfig(kind="shadow-btb", params=ShadowBTBParams())
    )


def two_level_btb_config(max_instructions: int = 50_000, seed: int = 1) -> SimConfig:
    """Hierarchical BTB comparator (small L1 BTB + 8K L2 BTB)."""
    config = baseline_config(max_instructions, seed)
    return config.replace(
        branch=dataclasses.replace(config.branch, btb_levels=2)
    )


def loop_predictor_config(max_instructions: int = 50_000, seed: int = 1) -> SimConfig:
    """Baseline plus TAGE-SC-L's loop predictor component."""
    config = baseline_config(max_instructions, seed)
    return config.replace(
        branch=dataclasses.replace(config.branch, use_loop_predictor=True)
    )


def opt_config(depth: int, max_instructions: int = 50_000, seed: int = 1) -> SimConfig:
    """The OPT oracle: the per-application optimal fixed FTQ depth."""
    return baseline_config(max_instructions, seed, ftq_depth=depth)


def miss_heavy_config(max_instructions: int = 50_000, seed: int = 1) -> SimConfig:
    """A DRAM-bound instruction-fetch stress configuration.

    No prefetching, a 4 KiB L1I, and an undersized L2/LLC so nearly every
    fetch block misses all the way to a loaded memory system (400-cycle
    DRAM, i.e. a busy datacenter part rather than Table II's unloaded 220).
    This is the stall-dominated regime PAPER.md §III motivates UDP with —
    the core spends >95% of cycles waiting on instruction fills — and it is
    the benchmark of record's ``miss-heavy`` workload (``benchmarks/e2e``):
    idle-cycle fast-forward shows its largest wins exactly here.  The walker
    runs at 8 blocks/cycle so the FTQ refills quickly after flushes
    (frontend stress, not walker stress).
    """
    config = baseline_config(max_instructions, seed)
    config = config.replace(prefetcher=TechniqueConfig(kind="none"))
    memory = dataclasses.replace(
        config.memory,
        l1i=CacheConfig("L1I", 4 * 1024, 4, hit_latency=3, mshr_entries=32),
        l2=CacheConfig("L2", 32 * 1024, 8, hit_latency=13, mshr_entries=32),
        llc=CacheConfig("LLC", 128 * 1024, 16, hit_latency=36, mshr_entries=64),
        dram_latency=400,
    )
    frontend = dataclasses.replace(config.frontend, ftq_blocks_per_cycle=8)
    return config.replace(memory=memory, frontend=frontend)


def apply_sampling(
    config: SimConfig,
    num_intervals: int,
    interval_length: int | None = None,
    detailed_warmup: int | None = None,
) -> SimConfig:
    """Enable interval sampling on any preset with sensible defaults.

    Unless given explicitly, each interval measures 10% of its period and
    runs half an interval of detailed (unmeasured) warmup first — small
    enough for an order-of-magnitude speedup, long enough to re-steady the
    pipeline after the functional fast-forward.  Used by the ``--sample``
    CLI flags; pass exact values for full control.
    """
    if num_intervals <= 0:
        raise ValueError("num_intervals must be positive")
    period = config.max_instructions // num_intervals
    if interval_length is None:
        interval_length = max(1, period // 10)
    if detailed_warmup is None:
        detailed_warmup = min(interval_length // 2, period - interval_length)
    return config.with_sampling(num_intervals, interval_length, detailed_warmup)


PRESET_BUILDERS = {
    "baseline": baseline_config,
    "perfect-icache": perfect_icache_config,
    "no-prefetch": no_prefetch_config,
    "uftq-aur": lambda n=50_000, s=1: uftq_config("aur", n, s),
    "uftq-atr": lambda n=50_000, s=1: uftq_config("atr", n, s),
    "uftq-atr-aur": lambda n=50_000, s=1: uftq_config("atr-aur", n, s),
    "udp": udp_config,
    "infinite-storage": infinite_storage_config,
    "bigger-icache": bigger_icache_config,
    "eip": eip_config,
    "sw-profile": sw_profile_config,
    "mana": mana_config,
    "shadow-btb": shadow_btb_config,
    "two-level-btb": two_level_btb_config,
    "loop-predictor": loop_predictor_config,
    "miss-heavy": miss_heavy_config,
}
