"""Configuration validation and Table II defaults."""

import dataclasses
from functools import partial

import pytest

from repro.common.addr import FETCH_BLOCK_BYTES
from repro.common.config import (
    BranchConfig,
    CacheConfig,
    CoreConfig,
    FrontendConfig,
    MemoryConfig,
    SimConfig,
    TechniqueConfig,
    UDPConfig,
    UFTQConfig,
)
from repro.common.errors import ConfigError


def test_default_simconfig_is_valid():
    SimConfig().validate()


def test_table2_core_parameters():
    core = CoreConfig()
    assert core.frontend_width == 6
    assert core.retire_width == 6
    assert core.num_alu == 4
    assert core.num_load == 2
    assert core.num_store == 2
    assert core.rob_entries == 352
    assert core.rs_entries == 125


def test_table2_memory_parameters():
    memory = MemoryConfig()
    assert memory.l1i.size_bytes == 32 * 1024
    assert memory.l1i.assoc == 8
    assert memory.l1i.hit_latency == 3
    assert memory.l1d.size_bytes == 48 * 1024
    assert memory.l1d.assoc == 12
    assert memory.l2.size_bytes == 512 * 1024
    assert memory.llc.size_bytes == 2 * 1024 * 1024
    assert memory.llc.assoc == 16
    assert memory.l2.hit_latency == 13
    assert memory.llc.hit_latency == 36


def test_table2_branch_parameters():
    branch = BranchConfig()
    assert branch.btb_entries == 8192
    assert branch.ibtb_entries == 2048


def test_table2_frontend_parameters():
    frontend = FrontendConfig()
    assert frontend.ftq_depth == 32
    assert frontend.ftq_blocks_per_cycle == 2
    # The fetch block size is fixed by the walker and the compiled driver.
    assert FETCH_BLOCK_BYTES == 32


@pytest.mark.parametrize(
    "cls,field",
    [
        (FrontendConfig, "fetch_block_bytes"),
        (FrontendConfig, "fetch_buffer_entries"),
        (CoreConfig, "load_buffer"),
        (CoreConfig, "store_buffer"),
        (BranchConfig, "tage_counter_bits"),
        # Every stage assumes LINE_BYTES lines.
        pytest.param(
            partial(CacheConfig, "L1I", 32 * 1024, 8), "line_bytes", id="CacheConfig-line_bytes"
        ),
    ],
)
def test_unmodelled_parameters_are_rejected(cls, field):
    # Nothing reads these Table II sizes, so a config that sets them must
    # fail loudly rather than run unchanged.
    with pytest.raises(TypeError):
        cls(**{field: 1})


def test_cache_num_sets():
    cache = CacheConfig("x", 32 * 1024, 8)
    assert cache.num_sets == 64


def test_cache_rejects_non_power_of_two_sets():
    with pytest.raises(ConfigError):
        CacheConfig("x", 40 * 1024, 8).validate()  # 80 sets


def test_cache_rejects_indivisible_size():
    with pytest.raises(ConfigError):
        CacheConfig("x", 1000, 3).validate()


def test_memory_rejects_dram_faster_than_llc():
    memory = dataclasses.replace(MemoryConfig(), dram_latency=10)
    with pytest.raises(ConfigError):
        memory.validate()


def test_branch_rejects_bad_assoc():
    with pytest.raises(ConfigError):
        dataclasses.replace(BranchConfig(), btb_entries=100, btb_assoc=8).validate()


def test_branch_rejects_inverted_history():
    with pytest.raises(ConfigError):
        dataclasses.replace(BranchConfig(), tage_min_hist=64, tage_max_hist=8).validate()


def test_frontend_rejects_zero_depth():
    with pytest.raises(ConfigError):
        dataclasses.replace(FrontendConfig(), ftq_depth=0).validate()


def test_frontend_rejects_depth_beyond_physical():
    with pytest.raises(ConfigError):
        dataclasses.replace(FrontendConfig(), ftq_depth=500).validate()


def test_core_rejects_bad_dependence_fraction():
    with pytest.raises(ConfigError):
        dataclasses.replace(CoreConfig(), load_dependence_fraction=1.5).validate()


def test_uftq_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        UFTQConfig(mode="bogus").validate()


def test_uftq_rejects_bad_depth_ordering():
    with pytest.raises(ConfigError):
        UFTQConfig(min_depth=64, initial_depth=32, max_depth=96).validate()


def test_udp_rejects_non_power_of_two_bloom():
    with pytest.raises(ConfigError):
        dataclasses.replace(UDPConfig(), bloom_bits_1=1000).validate()


def test_udp_rejects_bad_flush_ratio():
    with pytest.raises(ConfigError):
        dataclasses.replace(UDPConfig(), flush_unuseful_ratio=0.0).validate()


def test_prefetcher_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="registered kinds"):
        TechniqueConfig(kind="magic").validate()


def test_technique_config_rejects_bad_params():
    from repro.prefetchers.mana import MANAParams

    bad = TechniqueConfig(kind="mana", params=MANAParams(storage_bytes=-1))
    with pytest.raises(ConfigError):
        SimConfig(prefetcher=bad).validate()


def test_with_ftq_depth_returns_new_config():
    config = SimConfig()
    deeper = config.with_ftq_depth(64)
    assert deeper.frontend.ftq_depth == 64
    assert config.frontend.ftq_depth == 32  # original untouched


def test_with_btb_entries():
    config = SimConfig().with_btb_entries(2048)
    assert config.branch.btb_entries == 2048
    config.validate()


def test_with_perfect_icache():
    config = SimConfig().with_perfect_icache()
    assert config.frontend.perfect_icache
    config.validate()


def test_with_l1i_size():
    config = SimConfig().with_l1i_size(64 * 1024)
    assert config.memory.l1i.size_bytes == 64 * 1024
    config.validate()


def test_configs_are_hashable_and_frozen():
    config = SimConfig()
    hash(config)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.seed = 2  # type: ignore[misc]


def test_cycle_limit_scales_with_the_run_unless_set():
    # 50 cycles per instruction, at least 5M: a 10M-instruction run is no
    # longer stopped at 5M cycles, and an explicit max_cycles always wins.
    assert SimConfig(max_instructions=50_000).cycle_limit == 5_000_000
    assert SimConfig(max_instructions=10_000_000).cycle_limit == 500_000_000
    assert SimConfig(max_instructions=10_000_000, max_cycles=1_234).cycle_limit == 1_234
    with pytest.raises(ConfigError):
        SimConfig(max_cycles=0).validate()
