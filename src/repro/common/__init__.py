"""Shared utilities: addresses, configuration, counters, RNG, errors."""

from repro.common.addr import (
    FETCH_BLOCK_BYTES,
    INSTR_BYTES,
    INSTRS_PER_FETCH_BLOCK,
    LINE_BYTES,
    block_of,
    line_of,
)
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
from repro.common.counters import Counters, ratio
from repro.common.errors import ConfigError, ProgramError, ReproError, SimulationError
from repro.common.rng import RngPool, derive_seed, substream

__all__ = [
    "FETCH_BLOCK_BYTES",
    "INSTR_BYTES",
    "INSTRS_PER_FETCH_BLOCK",
    "LINE_BYTES",
    "block_of",
    "line_of",
    "BranchConfig",
    "CacheConfig",
    "CoreConfig",
    "FrontendConfig",
    "MemoryConfig",
    "SimConfig",
    "TechniqueConfig",
    "UDPConfig",
    "UFTQConfig",
    "Counters",
    "ratio",
    "ConfigError",
    "ProgramError",
    "ReproError",
    "SimulationError",
    "RngPool",
    "derive_seed",
    "substream",
]
