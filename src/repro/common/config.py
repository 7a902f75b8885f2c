"""Simulation configuration, mirroring Table II of the paper.

All configuration objects are frozen dataclasses so a configuration can be
hashed, compared, and safely shared between runs.  ``SimConfig.validate()``
checks cross-field consistency and raises :class:`~repro.common.errors.ConfigError`
on violations.

The defaults reproduce the paper's simulated system (Table II):
Sunny-Cove-like 6-wide core, 8K-entry BTB, TAGE predictor, 32 KiB L1I,
FDIP with a 32-entry FTQ generating 2 fetch blocks per cycle.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one set-associative cache."""

    name: str
    size_bytes: int
    assoc: int
    line_bytes: int = 64
    hit_latency: int = 1
    mshr_entries: int = 16

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)

    def validate(self) -> None:
        if self.size_bytes <= 0 or self.assoc <= 0 or self.line_bytes <= 0:
            raise ConfigError(f"{self.name}: sizes must be positive")
        if self.size_bytes % (self.assoc * self.line_bytes) != 0:
            raise ConfigError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"assoc*line ({self.assoc}*{self.line_bytes})"
            )
        num_sets = self.num_sets
        if num_sets & (num_sets - 1):
            raise ConfigError(f"{self.name}: number of sets ({num_sets}) must be a power of two")


@dataclass(frozen=True)
class MemoryConfig:
    """The uncore: cache hierarchy geometry and latencies (Table II)."""

    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1I", 32 * 1024, 8, hit_latency=3, mshr_entries=32)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1D", 48 * 1024, 12, hit_latency=4, mshr_entries=16)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2", 512 * 1024, 8, hit_latency=13, mshr_entries=32)
    )
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig("LLC", 2 * 1024 * 1024, 16, hit_latency=36, mshr_entries=64)
    )
    dram_latency: int = 220
    stream_prefetcher: bool = True

    def validate(self) -> None:
        for cache in (self.l1i, self.l1d, self.l2, self.llc):
            cache.validate()
        if self.dram_latency <= self.llc.hit_latency:
            raise ConfigError("DRAM latency must exceed LLC latency")


@dataclass(frozen=True)
class BranchConfig:
    """Branch prediction resources (Table II)."""

    btb_entries: int = 8192
    btb_assoc: int = 8
    ibtb_entries: int = 2048
    ibtb_assoc: int = 8
    ras_entries: int = 32
    tage_tables: int = 8
    tage_min_hist: int = 4
    tage_max_hist: int = 256
    tage_table_bits: int = 10
    tage_tag_bits: int = 9
    tage_counter_bits: int = 3
    tage_use_alt_threshold: int = 8
    # TAGE-SC-L's loop component (optional extension; off reproduces the
    # core-TAGE baseline used throughout the evaluation).
    use_loop_predictor: bool = False
    loop_predictor_entries: int = 64
    # 1 = the paper's monolithic 8K BTB; 2 = the related-work hierarchical
    # organization (small L1 BTB backed by btb_entries at L2).
    btb_levels: int = 1
    l1_btb_entries: int = 1024
    l1_btb_assoc: int = 4

    def validate(self) -> None:
        if self.btb_entries % self.btb_assoc != 0:
            raise ConfigError("BTB entries must be divisible by associativity")
        if self.ibtb_entries % self.ibtb_assoc != 0:
            raise ConfigError("iBTB entries must be divisible by associativity")
        if self.tage_min_hist >= self.tage_max_hist:
            raise ConfigError("TAGE min history must be below max history")
        if self.tage_tables < 2:
            raise ConfigError("TAGE needs at least two tagged tables")
        if self.btb_levels not in (1, 2):
            raise ConfigError("btb_levels must be 1 or 2")
        if self.l1_btb_entries % self.l1_btb_assoc != 0:
            raise ConfigError("L1 BTB entries must be divisible by associativity")


@dataclass(frozen=True)
class CoreConfig:
    """Backend core resources (Table II)."""

    frontend_width: int = 6
    retire_width: int = 6
    num_alu: int = 4
    num_load: int = 2
    num_store: int = 2
    rob_entries: int = 352
    rs_entries: int = 125
    load_buffer: int = 64
    store_buffer: int = 64
    # Extra pipeline stages between decode and execute: sets the minimum
    # branch-misprediction resolution latency on top of queueing delays.
    decode_to_execute_latency: int = 10
    # Fraction of instructions whose operands depend on the most recent load
    # (approximates dependence chains without full renaming).
    load_dependence_fraction: float = 0.18

    def validate(self) -> None:
        if self.frontend_width <= 0 or self.retire_width <= 0:
            raise ConfigError("core widths must be positive")
        if self.rob_entries <= 0 or self.rs_entries <= 0:
            raise ConfigError("window sizes must be positive")
        if not 0.0 <= self.load_dependence_fraction <= 1.0:
            raise ConfigError("load_dependence_fraction must be in [0, 1]")


@dataclass(frozen=True)
class FrontendConfig:
    """Decoupled frontend and FDIP parameters (Table II)."""

    ftq_depth: int = 32
    ftq_blocks_per_cycle: int = 2
    fetch_block_bytes: int = 32
    fdip_lookups_per_cycle: int = 2
    fetch_buffer_entries: int = 24
    post_fetch_correction: bool = True
    # Hard physical bound for adaptive FTQ sizing (UFTQ); the paper bounds the
    # logical size by the physical FTQ capacity.
    ftq_max_physical: int = 128
    perfect_icache: bool = False

    def validate(self) -> None:
        if self.ftq_depth <= 0 or self.ftq_depth > self.ftq_max_physical:
            raise ConfigError("FTQ depth must be in (0, ftq_max_physical]")
        if self.fetch_block_bytes not in (16, 32, 64):
            raise ConfigError("fetch block must be 16, 32 or 64 bytes")
        if self.ftq_blocks_per_cycle <= 0 or self.fdip_lookups_per_cycle <= 0:
            raise ConfigError("per-cycle frontend rates must be positive")


@dataclass(frozen=True)
class UFTQConfig:
    """UFTQ controller parameters (Section IV-A)."""

    mode: str = "atr-aur"  # "aur" | "atr" | "atr-aur" | "off"
    # The paper measures over 1000-prefetch windows across 10M-instruction
    # SimPoints; scaled to this simulator's run lengths (tens of thousands of
    # instructions) so the controller completes a comparable number of
    # adaptation steps per run.
    window_prefetches: int = 120
    initial_depth: int = 32
    min_depth: int = 8
    max_depth: int = 96
    step: int = 4
    # Target ratios (paper: AUR/ATR thresholds learned from Table III).
    target_aur: float = 0.65
    target_atr: float = 0.75
    # Combined-mode regression coefficients over (QD_AUR, QD_ATR); the paper's
    # Scarab-fit coefficients (kept for reference as PAPER_REGRESSION in
    # repro.core.uftq); ours are re-fit on this simulator.
    regression: tuple[float, float, float, float, float] = (
        -0.34, 0.64, 0.008, 0.01, -0.008
    )

    def validate(self) -> None:
        if self.mode not in ("aur", "atr", "atr-aur", "off"):
            raise ConfigError(f"unknown UFTQ mode {self.mode!r}")
        if not self.min_depth <= self.initial_depth <= self.max_depth:
            raise ConfigError("UFTQ depths must satisfy min <= initial <= max")
        if self.window_prefetches <= 0 or self.step <= 0:
            raise ConfigError("UFTQ window and step must be positive")
        if not (0.0 < self.target_aur < 1.0 and 0.0 < self.target_atr < 1.0):
            raise ConfigError("UFTQ target ratios must be in (0, 1)")


@dataclass(frozen=True)
class UDPConfig:
    """UDP prefetch-gating parameters (Section IV-B)."""

    enabled: bool = False
    # Confidence accounting: +2 low, +1 medium, +0 high; off-path assumed when
    # the counter exceeds the threshold.
    confidence_threshold: int = 8
    low_increment: int = 2
    medium_increment: int = 1
    high_increment: int = 0
    # Bloom filter sizing: 16k bits for 1-blocks, 1k bits each for 2-/4-blocks
    # (6 hash functions, ~1% FPR), total 8KB storage with the seniority FTQ.
    bloom_bits_1: int = 16 * 1024
    bloom_bits_2: int = 1024
    bloom_bits_4: int = 1024
    bloom_hashes: int = 6
    coalesce_buffer: int = 8
    seniority_entries: int = 128
    # Flush a full filter once the unuseful ratio reaches this value.
    flush_unuseful_ratio: float = 0.75
    # "Infinite Storage" upper bound: useful-set is an unbounded exact set.
    infinite_storage: bool = False
    # Ablations.
    use_superlines: bool = True
    use_seniority: bool = True

    def validate(self) -> None:
        if self.confidence_threshold < 0:
            raise ConfigError("confidence threshold must be non-negative")
        for bits in (self.bloom_bits_1, self.bloom_bits_2, self.bloom_bits_4):
            if bits <= 0 or bits & (bits - 1):
                raise ConfigError("bloom filter sizes must be powers of two")
        if self.bloom_hashes <= 0:
            raise ConfigError("bloom filter needs at least one hash")
        if not 0.0 < self.flush_unuseful_ratio <= 1.0:
            raise ConfigError("flush ratio must be in (0, 1]")


@dataclass(frozen=True)
class SamplingConfig:
    """Systematic interval sampling of the measured region (SMARTS-style).

    ``num_intervals == 0`` (the default) is full-fidelity simulation.  When
    enabled, the measured region of ``max_instructions`` true-path
    instructions is divided into ``num_intervals`` equal periods; the *end*
    of each period holds ``detailed_warmup`` cycle-simulated (unmeasured)
    instructions followed by ``interval_length`` measured instructions, and
    everything before them is functionally fast-forwarded at oracle-walk
    speed.  Anchoring measurement at the period end makes the degenerate
    configuration — one interval spanning the whole region with no detailed
    warmup — fast-forward zero instructions, so it is byte-identical to a
    plain run (the sampling-equivalence oracle in tests/sim/test_sampling.py).

    ``warm_fastforward`` extends the functional fast-forward between
    intervals to the data side as well: the oracle walk replays every
    load/store through L1D/L2/LLC and the stream prefetcher (no cycle
    accounting), so each interval resumes with live-point-style warm
    microarchitectural state instead of the cold data caches that biased
    large-footprint workloads (see docs/performance.md "Sampled
    simulation").  It is on by default; disable it only to reproduce the
    historical cold-cache estimator.
    """

    num_intervals: int = 0
    interval_length: int = 0
    detailed_warmup: int = 0
    warm_fastforward: bool = True

    def __post_init__(self) -> None:
        # Field-local invariants are enforced at construction so an invalid
        # shape can never reach plan_intervals (which would otherwise emit
        # negative fast-forward distances).  The period bound needs
        # max_instructions and lives in :meth:`validate`.
        if self.num_intervals < 0:
            raise ConfigError("num_intervals must be non-negative")
        if not self.enabled:
            return
        if self.interval_length <= 0:
            raise ConfigError("sampling interval_length must be positive")
        if self.detailed_warmup < 0:
            raise ConfigError("sampling detailed_warmup must be non-negative")

    @property
    def enabled(self) -> bool:
        return self.num_intervals > 0

    def period(self, max_instructions: int) -> int:
        """Instructions per sampling period (fast-forward + warmup + measure)."""
        return max_instructions // self.num_intervals

    def validate(self, max_instructions: int) -> None:
        if self.num_intervals < 0:
            raise ConfigError("num_intervals must be non-negative")
        if not self.enabled:
            return
        if self.interval_length <= 0:
            raise ConfigError("sampling interval_length must be positive")
        if self.detailed_warmup < 0:
            raise ConfigError("sampling detailed_warmup must be non-negative")
        if self.num_intervals > max_instructions:
            raise ConfigError("more sampling intervals than instructions")
        period = self.period(max_instructions)
        if self.interval_length + self.detailed_warmup > period:
            raise ConfigError(
                f"interval_length + detailed_warmup "
                f"({self.interval_length} + {self.detailed_warmup}) exceeds "
                f"the sampling period ({period} = {max_instructions} / "
                f"{self.num_intervals} instructions)"
            )


@dataclass(frozen=True)
class TechniqueConfig:
    """Selection of the instruction prefetching technique under test.

    ``kind`` names a technique in :mod:`repro.prefetchers.registry`;
    ``params`` is that technique's frozen per-technique params dataclass
    (``None`` auto-fills the registered defaults, so a default-constructed
    and an explicitly-defaulted config produce identical cache keys).
    Stand-alone techniques layer ON TOP of the FDIP baseline, as in the
    paper's Fig 13 ISO-storage comparison; set ``standalone_only=True`` to
    disable FDIP underneath.  The registry is imported lazily — technique
    modules import this module, so an eager import would be circular.
    """

    kind: str = "fdip"
    standalone_only: bool = False
    params: object | None = None

    def __post_init__(self) -> None:
        if self.params is None:
            from repro.prefetchers.registry import lookup

            technique = lookup(self.kind)
            if technique is not None:
                object.__setattr__(self, "params", technique.params_cls())

    def validate(self) -> None:
        from repro.prefetchers.registry import get_technique

        technique = get_technique(self.kind)  # raises, naming valid kinds
        if not isinstance(self.params, technique.params_cls):
            raise ConfigError(
                f"prefetcher kind {self.kind!r} expects params of type "
                f"{technique.params_cls.__name__}, got "
                f"{type(self.params).__name__}"
            )
        params_validate = getattr(self.params, "validate", None)
        if params_validate is not None:
            params_validate()

    @property
    def capabilities(self):
        """The registered capability declaration of the selected technique."""
        from repro.prefetchers.registry import get_technique

        return get_technique(self.kind).capabilities


@dataclass(frozen=True)
class SimConfig:
    """Top-level simulation configuration (Table II defaults)."""

    core: CoreConfig = field(default_factory=CoreConfig)
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    branch: BranchConfig = field(default_factory=BranchConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    uftq: UFTQConfig = field(default_factory=lambda: UFTQConfig(mode="off"))
    udp: UDPConfig = field(default_factory=UDPConfig)
    prefetcher: TechniqueConfig = field(default_factory=TechniqueConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    max_instructions: int = 50_000
    max_cycles: int = 5_000_000
    # Timed warmup: cycle-accurate cycles excluded from measurement.
    warmup_instructions: int = 0
    # Functional warmup: basic blocks walked at trace speed before timing,
    # training BTB/TAGE/iBTB/caches (the paper's 50M-instruction warmup,
    # scaled).  Applied automatically at the start of Simulator.run().
    functional_warmup_blocks: int = 12_000
    seed: int = 1

    def validate(self) -> None:
        self.core.validate()
        self.frontend.validate()
        self.branch.validate()
        self.memory.validate()
        self.uftq.validate()
        self.udp.validate()
        self.prefetcher.validate()
        if self.max_instructions <= 0 or self.max_cycles <= 0:
            raise ConfigError("instruction and cycle limits must be positive")
        if self.warmup_instructions < 0 or self.warmup_instructions >= self.max_instructions:
            raise ConfigError("warmup must be in [0, max_instructions)")
        if self.functional_warmup_blocks < 0:
            raise ConfigError("functional warmup must be non-negative")
        self.sampling.validate(self.max_instructions)
        if self.sampling.enabled and self.warmup_instructions > 0:
            raise ConfigError(
                "interval sampling carries its own detailed warmup; "
                "warmup_instructions must be 0 when sampling is enabled"
            )

    def replace(self, **kwargs) -> "SimConfig":
        """Return a copy with top-level fields replaced."""
        return dataclasses.replace(self, **kwargs)

    def with_ftq_depth(self, depth: int) -> "SimConfig":
        """Return a copy with the (fixed) FTQ depth set to ``depth``."""
        return self.replace(frontend=dataclasses.replace(self.frontend, ftq_depth=depth))

    def with_btb_entries(self, entries: int) -> "SimConfig":
        """Return a copy with the BTB capacity set to ``entries``."""
        return self.replace(branch=dataclasses.replace(self.branch, btb_entries=entries))

    def with_perfect_icache(self) -> "SimConfig":
        """Return a copy where every L1I access hits (Fig 1 upper bound)."""
        return self.replace(
            frontend=dataclasses.replace(self.frontend, perfect_icache=True)
        )

    def with_prefetcher(
        self, kind: str, params: object | None = None, standalone_only: bool = False
    ) -> "SimConfig":
        """Return a copy selecting a registered prefetch technique."""
        return self.replace(
            prefetcher=TechniqueConfig(
                kind=kind, standalone_only=standalone_only, params=params
            )
        )

    def with_sampling(
        self,
        num_intervals: int,
        interval_length: int,
        detailed_warmup: int = 0,
        warm_fastforward: bool = True,
    ) -> "SimConfig":
        """Return a copy with interval sampling enabled (0 intervals = off).

        The shape is validated against this config's ``max_instructions``
        immediately, so an interval that cannot fit its period fails here —
        at construction, naming the offending knobs — rather than surfacing
        as a negative fast-forward distance deep in the engine.
        """
        sampling = SamplingConfig(
            num_intervals=num_intervals,
            interval_length=interval_length,
            detailed_warmup=detailed_warmup,
            warm_fastforward=warm_fastforward,
        )
        sampling.validate(self.max_instructions)
        return self.replace(sampling=sampling)

    def without_sampling(self) -> "SimConfig":
        """Return the full-fidelity equivalent of this configuration."""
        if not self.sampling.enabled:
            return self
        return self.replace(sampling=SamplingConfig())

    def with_l1i_size(self, size_bytes: int) -> "SimConfig":
        """Return a copy with a different L1I capacity (Fig 13's 40K icache)."""
        l1i = dataclasses.replace(self.memory.l1i, size_bytes=size_bytes)
        return self.replace(memory=dataclasses.replace(self.memory, l1i=l1i))
