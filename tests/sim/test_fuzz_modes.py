"""Differential fuzzing: the compiled cycle driver against the object oracle.

Hypothesis draws a preset (every ``PRESET_BUILDERS`` entry), a workload and
perturbed settings: FTQ depth, fetch and FDIP widths, L1I geometry and
MSHRs, BTB/iBTB/RAS/ROB/RS sizes, UDP's knobs, UFTQ's window, step and
depth bounds, the loop predictor's entries, the two-level BTB's L1, the
comparators' knobs (EIP's and MANA's tables small enough to evict, MANA's
regions past one footprint word and HOBPTs small enough to drop records,
shadow-btb's budget down to one prefill, over a one- or two-level BTB),
the functional warmup, a detailed warmup (``run_interval``'s
warmup-boundary exit) and a cycle-limit exit.  Each configuration
runs on a compiled simulator and with ``compiled=False``; configurations
that validation rejects are skipped, and every other must end with equal
counters, ``cycle`` and state of every structure (caches, BTBs, TAGE,
history, RAS, stream table, data generator, loop predictor, UFTQ, UDP, a
comparator's tables and the oracle).  This is what the per-call C tests
used to check structure by structure, now checked through whole driven
runs.

Tier-1 runs a derandomized budget of 25 examples over every preset and 15
over the comparators the driver runs natively.  ``-m slow`` runs 200 more
and also fuzzes the sampled chain (warming fast-forwards handed to a fresh
simulator per interval) and warmup-checkpoint round trips.  On a host
without a C compiler both sides are the object path.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from repro.common.config import SimConfig, TechniqueConfig
from repro.common.errors import ConfigError, SimulationError
from repro.prefetchers.registry import EIPParams, MANAParams, ShadowBTBParams
from repro.sim import checkpoint as ckpt
from repro.sim.presets import PRESET_BUILDERS
from repro.sim.simulator import Simulator
from repro.workloads import store as program_store
from repro.workloads.profiles import get_profile

WORKLOADS = ("gcc", "mediawiki", "mysql", "verilator", "xgboost")
# The comparators the compiled cycle driver runs in C.
NATIVE = ("eip", "mana", "shadow-btb")

_FAST = settings(
    max_examples=25, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
_SLOW = settings(
    max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _pow2(lo: int, hi: int):
    return st.integers(lo, hi).map(lambda k: 1 << k)


def _technique(draw, config: SimConfig) -> TechniqueConfig:
    """The preset's technique with perturbed knobs, for the native comparators."""
    technique = config.prefetcher
    if technique.kind == "eip":
        params = EIPParams(
            storage_bytes=draw(st.sampled_from([12, 96, 192, 2_048])),
            targets_per_entry=draw(st.integers(1, 4)),
            entangling_distance=draw(st.integers(1, 16)),
            wrong_path_aware=draw(st.booleans()),
        )
    elif technique.kind == "mana":
        params = MANAParams(
            storage_bytes=draw(st.sampled_from([16, 96, 512, 2_048])),
            region_lines=draw(st.sampled_from([2, 4, 8, 16, 65, 66, 130])),
            lookahead_records=draw(st.integers(1, 6)),
            hob_entries=draw(st.integers(1, 16)),
            hob_shift=draw(st.sampled_from([7, 9, 12, 16, 63, 70])),
        )
    elif technique.kind == "shadow-btb":
        params = ShadowBTBParams(max_prefills_per_fill=draw(st.sampled_from([1, 1, 2, 4, 8])))
    else:
        return technique
    return TechniqueConfig(kind=technique.kind, params=params)


@st.composite
def configs(
    draw,
    max_instructions=st.integers(1_000, 3_000),
    presets=st.sampled_from(sorted(PRESET_BUILDERS)),
    l1i_bytes=_pow2(11, 15),
) -> tuple[str, SimConfig, int]:
    """A workload, a perturbed preset configuration (maybe invalid) and a
    detailed warmup for the run (0: none)."""
    preset = draw(presets)
    workload = draw(st.sampled_from(WORKLOADS))
    n = draw(max_instructions)
    config = PRESET_BUILDERS[preset](n)
    core = dataclasses.replace(
        config.core,
        frontend_width=draw(st.integers(1, 8)),
        rob_entries=draw(st.integers(16, 512)),
        rs_entries=draw(st.integers(8, 160)),
    )
    frontend = dataclasses.replace(
        config.frontend,
        ftq_depth=draw(st.integers(1, 128)),
        ftq_blocks_per_cycle=draw(st.integers(1, 4)),
        fdip_lookups_per_cycle=draw(st.integers(0, 4)),
    )
    l1i = dataclasses.replace(
        config.memory.l1i,
        size_bytes=draw(l1i_bytes),
        assoc=draw(_pow2(0, 3)),
        mshr_entries=draw(st.integers(1, 32)),
    )
    branch = dataclasses.replace(
        config.branch,
        btb_entries=draw(_pow2(6, 13)),
        btb_assoc=draw(_pow2(0, 3)),
        ibtb_entries=draw(_pow2(4, 11)),
        ibtb_assoc=draw(_pow2(0, 3)),
        ras_entries=draw(st.integers(1, 64)),
        loop_predictor_entries=draw(_pow2(2, 8)),
        l1_btb_entries=draw(_pow2(4, 10)),
        l1_btb_assoc=draw(_pow2(0, 2)),
    )
    if preset == "shadow-btb":
        branch = dataclasses.replace(branch, btb_levels=draw(st.sampled_from([1, 2])))
    udp = dataclasses.replace(
        config.udp,
        confidence_threshold=draw(st.integers(0, 16)),
        bloom_bits_1=draw(_pow2(6, 14)),
        bloom_bits_2=draw(_pow2(6, 14)),
        bloom_bits_4=draw(_pow2(6, 14)),
        bloom_hashes=draw(st.integers(1, 6)),
        coalesce_buffer=draw(st.integers(1, 16)),
        seniority_entries=draw(st.integers(1, 256)),
        flush_unuseful_ratio=draw(st.sampled_from([0.05, 0.5, 0.75, 1.0])),
        use_superlines=draw(st.booleans()),
        use_seniority=draw(st.booleans()),
    )
    lo = draw(st.integers(1, 32))
    uftq = dataclasses.replace(
        config.uftq,
        window_prefetches=draw(st.integers(4, 200)),
        step=draw(st.integers(1, 16)),
        min_depth=lo,
        max_depth=draw(st.integers(lo, 128)),
        initial_depth=draw(st.integers(lo, 128)),
    )
    functional_warmup_blocks = draw(st.integers(0, 2_000))
    detailed_warmup = draw(st.sampled_from([0, 0, n // 3]))
    config = config.replace(
        core=core,
        frontend=frontend,
        branch=branch,
        memory=dataclasses.replace(config.memory, l1i=l1i),
        udp=udp,
        uftq=uftq,
        prefetcher=_technique(draw, config),
        functional_warmup_blocks=functional_warmup_blocks,
        max_cycles=draw(st.sampled_from([None, None, None, 2_000, 8_000])),
    )
    try:
        config.validate()
    except (ConfigError, ValueError):
        reject()
    return workload, config, detailed_warmup


def _structures(sim: Simulator) -> tuple:
    """Every structure's state, layout-neutral, plus the run's scalars."""
    bpu = sim.bpu
    hierarchy = sim.hierarchy
    oracle = sim.oracle
    udp = sim.udp
    uftq = sim.uftq
    loop = bpu.loop
    btb = bpu.btb
    technique = sim.prefetcher
    return (
        sim.cycle,
        sim.counters.snapshot(),
        sim.measured_counters(),
        (sim.ftq.depth, sim.ftq.occupancy_sum, sim.ftq.occupancy_samples),
        (oracle.pc, oracle.blocks_walked, oracle.instrs_walked, list(oracle.call_stack)),
        oracle._occurrences.tobytes(),
        [cache.state() for cache in (sim.l1i, hierarchy.l1d, hierarchy.l2, hierarchy.llc)],
        None if hierarchy.stream is None else hierarchy.stream.state(),
        sim.data_gen.state(),
        btb.state(),
        getattr(btb, "promotions", None),
        bpu.ibtb.state(),
        bpu.tage.state(),
        bpu.history.checkpoint(),
        (list(bpu.ras._stack), bpu.ras.overflows, bpu.ras.underflows),
        None if loop is None else (loop.state(), loop.overrides, loop.correct_overrides),
        None if uftq is None else (
            uftq.phase, uftq.qd_aur, uftq.qd_atr, uftq.adjustments,
            (uftq._utility.positive, uftq._utility.total),
            (uftq._timeliness.positive, uftq._timeliness.total),
        ),
        None if udp is None else (
            {k: (bytes(f._array), f.inserted) for k, f in udp.useful_set.filters.items()},
            list(udp.useful_set.coalescer._lines),
            sorted(udp.useful_set._exact),
            (udp.useful_set._window_unuseful, udp.useful_set._window_total),
            list(udp.seniority._entries),
            (udp.seniority.inserted, udp.seniority.matched, udp.seniority.evicted),
            (udp.estimator.counter, udp.estimator._forced_off_path),
        ),
        technique.state() if hasattr(technique, "state") else None,
    )


def _build(workload: str, config: SimConfig, compiled: bool) -> Simulator:
    program = program_store.program_for(workload, config.seed)
    return Simulator(program, config, data_profile=get_profile(workload).data, compiled=compiled)


def _run(workload: str, config: SimConfig, compiled: bool, detailed_warmup: int) -> tuple:
    sim = _build(workload, config, compiled)
    try:
        if detailed_warmup:
            sim.run_interval(
                config.max_instructions - detailed_warmup, detailed_warmup=detailed_warmup
            )
        else:
            sim.run()
        error = None
    except SimulationError as exc:  # the cycle limit
        error = str(exc)
    return error, _structures(sim)


def _check_run(case) -> None:
    workload, config, detailed_warmup = case
    assert _run(workload, config, True, detailed_warmup) == _run(
        workload, config, False, detailed_warmup
    )


@_FAST
@given(case=configs())
def test_compiled_matches_object_on_random_configs(case):
    _check_run(case)


# Longer runs through a 2-4 KiB L1I: misses enough to fill and evict the
# comparators' smallest tables.
@settings(_FAST, max_examples=15)
@given(case=configs(
    max_instructions=st.integers(3_000, 6_000),
    presets=st.sampled_from(NATIVE),
    l1i_bytes=_pow2(11, 12),
))
def test_native_comparators_match_object_on_random_configs(case):
    _check_run(case)


@pytest.mark.slow
@_SLOW
@given(case=configs(max_instructions=st.integers(1_000, 8_000)))
def test_compiled_matches_object_on_random_configs_at_length(case):
    _check_run(case)


def _chain(workload: str, config: SimConfig, compiled: bool, hops: list[int]) -> list:
    """The engine's sampled chain by hand: a walker warms up, its state
    crosses a warmup checkpoint, then per hop it fast-forwards (warming)
    and hands its state to a fresh simulator that runs an interval."""
    walker = _build(workload, config, compiled)
    walker.functional_warmup(config.functional_warmup_blocks)
    restored = _build(workload, config, compiled)
    ckpt.restore_warmup(restored, ckpt.capture_warmup(walker))
    out = [_structures(restored)]
    for hop in hops:
        walker.fast_forward_to(walker.oracle.instrs_walked + hop)
        interval = _build(workload, config, compiled)
        ckpt.handoff(walker, interval)
        try:
            interval.run_interval(500, detailed_warmup=250)
        except SimulationError as exc:
            out.append(str(exc))
        out.append(_structures(interval))
    return out


@pytest.mark.slow
@_SLOW
@given(case=configs(), hops=st.lists(st.integers(0, 5_000), min_size=1, max_size=3))
def test_sampled_chain_and_checkpoints_match_object_path(case, hops):
    workload, config, _ = case
    assert _chain(workload, config, True, hops) == _chain(workload, config, False, hops)
