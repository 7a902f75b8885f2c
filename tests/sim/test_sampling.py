"""Interval-sampled simulation: planning, equivalence, and determinism.

The load-bearing property is the equivalence oracle: one interval covering
the whole measured region with no detailed warmup must produce counters
byte-identical to a plain full-fidelity run, on every preset family the
benchmark sweeps.  Everything else (pool scheduling, checkpoint reuse)
must never change a merged result, and the engine's interval chain (one
walker handing its state to a fresh simulator per interval) must equal
every interval warming up and jumping straight to its own start.
"""

import json

import pytest

from repro.common import cc
from repro.common.config import ConfigError, SamplingConfig
from repro.sim import checkpoint as ckpt
from repro.sim import engine, sampling
from repro.sim.engine import BatchStats, run_batch, spec_for
from repro.sim.metrics import SimResult
from repro.sim.presets import (
    PRESET_BUILDERS,
    apply_sampling,
    baseline_config,
    miss_heavy_config,
    udp_config,
)
from repro.sim.simulator import Simulator

FAST = baseline_config(max_instructions=2_000).replace(
    functional_warmup_blocks=800
)


@pytest.fixture(autouse=True)
def _sampling_env(monkeypatch, tmp_path):
    monkeypatch.setenv(engine.JOBS_ENV, "2")
    monkeypatch.setenv(engine.CACHE_DIR_ENV, str(tmp_path / "cache"))
    monkeypatch.delenv(engine.NO_CACHE_ENV, raising=False)
    monkeypatch.delenv("REPRO_NO_CHECKPOINT", raising=False)


def _identical(a: SimResult, b: SimResult) -> bool:
    return json.dumps(a.counters, sort_keys=True) == json.dumps(
        b.counters, sort_keys=True
    ) and a.avg_ftq_occupancy == b.avg_ftq_occupancy


# ---------------------------------------------------------------------------
# Configuration and planning
# ---------------------------------------------------------------------------


def test_sampling_config_validation():
    SamplingConfig().validate(10_000)  # disabled is always fine
    with pytest.raises(ConfigError):
        SamplingConfig(num_intervals=-1).validate(10_000)
    with pytest.raises(ConfigError):
        SamplingConfig(num_intervals=2).validate(10_000)  # zero length
    with pytest.raises(ConfigError):
        SamplingConfig(2, 4_000, 2_000).validate(10_000)  # exceeds period
    SamplingConfig(2, 4_000, 1_000).validate(10_000)


def test_with_and_without_sampling_round_trip():
    sampled = FAST.with_sampling(4, 100, 50)
    assert sampled.sampling == SamplingConfig(4, 100, 50)
    assert sampled.without_sampling() == FAST
    assert FAST.without_sampling() == FAST  # no-op when already plain


def test_plan_intervals_anchors_measurement_at_period_end():
    config = baseline_config(max_instructions=20_000).with_sampling(4, 500, 250)
    plans = sampling.plan_intervals(config)
    assert [p.index for p in plans] == [0, 1, 2, 3]
    assert [p.ff_instructions for p in plans] == [4_250, 9_250, 14_250, 19_250]
    assert all(p.measure_instructions == 500 for p in plans)
    assert all(p.detailed_warmup == 250 for p in plans)
    with pytest.raises(ValueError):
        sampling.plan_intervals(baseline_config())


def test_degenerate_plan_fast_forwards_nothing():
    config = FAST.with_sampling(1, FAST.max_instructions, 0)
    (plan,) = sampling.plan_intervals(config)
    assert plan.ff_instructions == 0
    assert plan.measure_instructions == FAST.max_instructions


def test_sampling_config_rejected_at_construction():
    # Invalid shapes cannot exist as values at all: __post_init__ raises,
    # so a negative-ff plan can never be built from a constructed config.
    with pytest.raises(ConfigError):
        SamplingConfig(num_intervals=-1)
    with pytest.raises(ConfigError):
        SamplingConfig(num_intervals=2)  # enabled with zero interval_length
    with pytest.raises(ConfigError):
        SamplingConfig(2, 100, -5)
    SamplingConfig()  # the disabled default stays constructible


def test_with_sampling_rejects_shapes_exceeding_the_period():
    # interval_length + detailed_warmup > period used to flow through to
    # plan_intervals and emit negative fast-forward distances; both
    # with_sampling and plan_intervals now refuse, naming the knobs.
    with pytest.raises(ConfigError, match="interval_length"):
        FAST.with_sampling(4, 400, 200)  # period 500 < 400 + 200
    unvalidated = FAST.replace(sampling=SamplingConfig(4, 400, 200))
    with pytest.raises(ConfigError, match="detailed_warmup"):
        sampling.plan_intervals(unvalidated)


def test_plan_intervals_distributes_non_dividing_remainders():
    config = baseline_config(max_instructions=10_000).with_sampling(3, 100, 50)
    plans = sampling.plan_intervals(config)
    # End targets 3333/6666/10000: the remainder spreads across periods and
    # the last interval still ends exactly at max_instructions.
    assert [p.ff_instructions for p in plans] == [3_183, 6_516, 9_850]


@pytest.mark.parametrize(
    "max_instructions,k,length,warmup",
    [
        (10_000, 3, 100, 50),
        (10_000, 7, 33, 0),
        (20_000, 4, 500, 250),
        (99_999, 13, 777, 111),
        (2_000, 1, 2_000, 0),
        (17, 5, 1, 1),
        (101, 100, 1, 0),
    ],
)
def test_plan_invariants_hold_across_shapes(max_instructions, k, length, warmup):
    # The planning invariants: non-negative fast-forwards, strictly
    # increasing interval ends, and full coverage of the measured region.
    config = baseline_config(max_instructions=max_instructions).with_sampling(
        k, length, warmup
    )
    plans = sampling.plan_intervals(config)
    assert len(plans) == k
    assert all(p.ff_instructions >= 0 for p in plans)
    ends = [p.ff_instructions + warmup + length for p in plans]
    assert all(a < b for a, b in zip(ends, ends[1:]))  # strictly increasing
    assert ends[-1] == max_instructions


def test_escalate_sampling_grows_intervals_then_warmup():
    config = baseline_config(max_instructions=20_000).with_sampling(4, 500, 250)
    doubled = sampling.escalate_sampling(config)
    assert doubled.sampling.num_intervals == 8
    assert doubled.sampling.detailed_warmup == 250
    # The ladder stays valid at every rung and terminates: once doubling no
    # longer fits the period, the detailed warmup grows instead, and when
    # neither can move the escalation reports exhaustion with None.
    seen = []
    while config is not None and len(seen) < 50:
        sampling.plan_intervals(config)  # validates each rung
        seen.append((config.sampling.num_intervals, config.sampling.detailed_warmup))
        config = sampling.escalate_sampling(config)
    assert config is None, "escalation never exhausted"
    ks = [k for k, _ in seen]
    warmups = [w for _, w in seen]
    assert ks[-1] > 4 and warmups[-1] > 250  # both axes eventually moved
    assert all(a <= b for a, b in zip(ks, ks[1:]))  # K never shrinks
    assert sampling.escalate_sampling(FAST) is None  # not sampled: no rung


def test_apply_sampling_defaults():
    config = apply_sampling(baseline_config(max_instructions=20_000), 4)
    s = config.sampling
    assert s.num_intervals == 4
    assert s.interval_length == 500  # 10% of the 5000-instruction period
    assert s.detailed_warmup == 250  # half the interval
    explicit = apply_sampling(FAST, 2, 300, 10)
    assert explicit.sampling == SamplingConfig(2, 300, 10)
    with pytest.raises(ValueError):
        apply_sampling(FAST, 0)


def test_merge_intervals_requires_outcomes():
    with pytest.raises(ValueError):
        sampling.merge_intervals("w", "l", FAST.with_sampling(1, 100), [])


def test_merge_intervals_zero_cycles_never_divides():
    # Pathological intervals that retired nothing (zero cycles, zero IPC)
    # must merge without a ZeroDivisionError anywhere: per-interval IPC,
    # the occupancy weighting, and the relative CI all have zero guards.
    outcomes = [
        sampling.IntervalOutcome(
            index=i,
            counters={"cycles": 0, "retired_instructions": 0},
            avg_ftq_occupancy=float(i),
            final_ftq_depth=0,
            ff_blocks=0,
            ff_instructions_walked=0,
        )
        for i in range(2)
    ]
    merged = sampling.merge_intervals(
        "w", "l", FAST.with_sampling(2, 100), outcomes
    )
    assert merged.ipc == 0.0
    assert merged.sampling["interval_ipc"] == [0.0, 0.0]
    assert merged.sampling["ipc_relative_ci95"] == 0.0
    # Zero total cycles falls back to the unweighted occupancy mean.
    assert merged.avg_ftq_occupancy == pytest.approx(0.5)


def test_merge_intervals_reports_the_ratio_estimators_ci():
    # Two intervals of 100 retired instructions, in 100 and 300 cycles.  The
    # merged IPC is the ratio estimator 200 / 400 = 0.5 (not the 0.667 mean
    # of the per-interval IPCs 1 and 1/3).  Delta method: residuals
    # 100 - 0.5 * 100 = 50 and 100 - 0.5 * 300 = -50, sample stdev
    # sqrt(5000), SE = sqrt(5000) / sqrt(2) / 200 = 0.25, half-width
    # 1.96 * 0.25 = 0.49, relative 0.49 / 0.5 = 0.98.
    outcomes = [
        sampling.IntervalOutcome(
            index=i,
            counters={"cycles": cycles, "retired_instructions": 100},
            avg_ftq_occupancy=1.0,
            final_ftq_depth=0,
            ff_blocks=0,
            ff_instructions_walked=0,
        )
        for i, cycles in enumerate((100, 300))
    ]
    merged = sampling.merge_intervals(
        "w", "l", FAST.with_sampling(2, 100), outcomes
    )
    assert merged.ipc == 0.5
    assert merged.sampling["interval_ipc"] == pytest.approx([1.0, 1 / 3])
    assert merged.sampling["ipc_ci95_half"] == pytest.approx(0.49)
    assert merged.sampling["ipc_relative_ci95"] == pytest.approx(0.98)
    assert "ipc_mean" not in merged.sampling
    assert "ipc_stdev" not in merged.sampling


# ---------------------------------------------------------------------------
# The equivalence oracle: K=1 over the whole region == a plain run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,config",
    [
        ("baseline", FAST),
        (
            "udp",
            udp_config(max_instructions=2_000).replace(
                functional_warmup_blocks=800
            ),
        ),
        (
            "miss-heavy",
            miss_heavy_config(max_instructions=1_500).replace(
                functional_warmup_blocks=600
            ),
        ),
    ],
)
def test_single_interval_is_byte_identical_to_plain(name, config):
    plain = run_batch(
        [spec_for("mediawiki", config, 1, name)], jobs=1, no_cache=True
    )[0]
    sampled_config = config.with_sampling(1, config.max_instructions, 0)
    sampled = run_batch(
        [spec_for("mediawiki", sampled_config, 1, name)], jobs=1, no_cache=True
    )[0]
    assert sampled.counters == plain.counters
    assert sampled.avg_ftq_occupancy == plain.avg_ftq_occupancy
    assert sampled.final_ftq_depth == plain.final_ftq_depth
    assert sampled.sampling["num_intervals"] == 1
    assert sampled.sampling["ff_instructions_total"] == 0


# ---------------------------------------------------------------------------
# Multi-interval execution: pooling, determinism, checkpoints
# ---------------------------------------------------------------------------


def _sampled_spec(label="k4", seed=1):
    return spec_for("mediawiki", FAST.with_sampling(4, 200, 100), seed, label)


def test_pooled_intervals_match_serial():
    # Two sampled specs, so the pool path runs and each worker runs a
    # whole interval chain.
    specs = [_sampled_spec(), _sampled_spec(label="k4-seed2", seed=2)]
    serial = run_batch(specs, jobs=1, no_cache=True)
    pooled = run_batch(specs, jobs=2, no_cache=True)
    for a, b in zip(serial, pooled):
        assert _identical(a, b)
        assert a.sampling == b.sampling


def test_repeated_pooled_runs_are_deterministic():
    # Every interval runs under the spec's seed, so worker scheduling order
    # can never leak into the merged counters.  Two specs per batch, so the
    # runs really go through the pool.
    specs = [_sampled_spec(), _sampled_spec(label="k4-seed2", seed=2)]
    first = run_batch(specs, jobs=2, no_cache=True)
    second = run_batch(specs, jobs=2, no_cache=True)
    for a, b in zip(first, second):
        assert _identical(a, b)
    assert first[0].counters != first[1].counters


def test_sampled_run_reports_interval_stats():
    stats = BatchStats()
    result = run_batch([_sampled_spec()], jobs=1, no_cache=True, progress=stats)[0]
    block = result.sampling
    assert block["num_intervals"] == 4
    assert len(block["interval_ipc"]) == 4
    # The CI describes the IPC the result reports: Σretired / Σcycles.
    assert block["ipc_ci95_half"] > 0
    assert block["ipc_relative_ci95"] == pytest.approx(
        block["ipc_ci95_half"] / result.ipc
    )
    assert block["ff_instructions_total"] > 0
    assert stats.intervals == 4
    assert "4 sampled intervals" in stats.summary()
    assert isinstance(result.counters["cycles"], int)


def test_sampled_run_stores_only_its_warmup_checkpoint():
    # The intervals chain in memory: the warmup is the only checkpoint a
    # sampled run writes, and a re-run restores it and walks again.
    store = ckpt.CheckpointStore()
    spec = _sampled_spec()
    stats = BatchStats()
    first = run_batch([spec], jobs=1, no_cache=True, progress=stats)[0]
    assert store.stats()[0] == 1
    assert store.path_for(engine._checkpoint_key_for(spec)).is_file()
    assert (stats.checkpoint_creates, stats.checkpoint_restores) == (1, 0)
    again = BatchStats()
    rerun = run_batch(
        [_sampled_spec(label="again")], jobs=1, no_cache=True, progress=again
    )[0]
    assert (again.checkpoint_creates, again.checkpoint_restores) == (0, 1)
    assert store.stats()[0] == 1
    assert rerun.sampling["ff_instructions_total"] > 0
    assert rerun.sampling == first.sampling
    assert _identical(rerun, first)


# The oracle of the chain: every interval a fresh simulator that warms up
# and fast-forwards straight to its own start.  sw-profile rebuilds its
# technique (from the memoized profile) in every interval's simulator.
CHAIN_PRESETS = ("baseline", "udp", "miss-heavy", "two-level-btb", "sw-profile")


def _direct_route(spec, compiled: bool) -> SimResult:
    program, config, data_profile, _ = engine._resolve_spec(spec)
    outcomes = []
    before = (0, 0)
    for plan in sampling.plan_intervals(spec.config):
        sim = Simulator(program, config, data_profile=data_profile, compiled=compiled)
        sim.functional_warmup(config.functional_warmup_blocks)
        blocks, walked = sim.fast_forward_to(
            sim.oracle.instrs_walked + plan.ff_instructions
        )
        sim.run_interval(plan.measure_instructions, plan.detailed_warmup)
        outcomes.append(
            sampling.IntervalOutcome(
                index=plan.index,
                counters=sim.measured_counters(),
                avg_ftq_occupancy=sim.ftq.average_occupancy,
                final_ftq_depth=sim.ftq.depth,
                # The chain's walker walks from the previous interval's start.
                ff_blocks=blocks - before[0],
                ff_instructions_walked=walked - before[1],
            )
        )
        before = (blocks, walked)
    return sampling.merge_intervals(spec.workload, spec.label, spec.config, outcomes)


def _mode(monkeypatch, compiled: bool) -> None:
    if compiled:
        if cc.kernels() is None:
            pytest.skip("no C compiler on this host")
    else:
        monkeypatch.setenv(cc.NO_COMPILED_ENV, "1")


@pytest.mark.parametrize("compiled", [False, True], ids=["object", "compiled"])
@pytest.mark.parametrize("preset", CHAIN_PRESETS)
def test_chain_matches_direct_route(monkeypatch, preset, compiled):
    _mode(monkeypatch, compiled)
    config = PRESET_BUILDERS[preset](2_000).replace(functional_warmup_blocks=800)
    spec = spec_for("mediawiki", config.with_sampling(3, 200, 100), 1, preset)
    chained = run_batch([spec], jobs=1, no_cache=True)[0]
    direct = _direct_route(spec, compiled)
    assert _identical(chained, direct)
    assert chained.sampling == direct.sampling
    assert chained.sampling["ff_instructions_total"] > 0


@pytest.mark.parametrize("compiled", [False, True], ids=["object", "compiled"])
def test_handoff_is_independent_of_the_walker(monkeypatch, compiled):
    # Like test_restored_state_is_independent_of_the_donor, for the in-memory
    # hand-off: the walker advancing after it must not reach the interval's
    # simulator, and the interval running must not reach the walker.
    _mode(monkeypatch, compiled)
    from repro.sim.profile import build_simulator

    config = udp_config(max_instructions=2_000).replace(
        functional_warmup_blocks=800
    ).with_sampling(4, 200, 100)

    def walked_to(distance):
        sim = build_simulator("mediawiki", config, seed=1, compiled=compiled)
        sim.functional_warmup(config.functional_warmup_blocks)
        sim.fast_forward_to(sim.oracle.instrs_walked + distance)
        return sim

    walker = walked_to(500)
    start = walker.oracle.instrs_walked
    handed = build_simulator("mediawiki", config, seed=1, compiled=compiled)
    ckpt.handoff(walker, handed)
    walker.fast_forward_to(start + 1_000)
    handed.run_interval(200, detailed_warmup=100)
    direct = walked_to(500)
    direct.run_interval(200, detailed_warmup=100)
    assert handed.measured_counters() == direct.measured_counters()
    walker.fast_forward_to(start + 1_500)
    assert ckpt.capture_warmup(walker) == ckpt.capture_warmup(walked_to(2_000))


def _structures(sim: Simulator) -> tuple:
    """Every structure a hand-off copies, in its checkpoint form, with the
    occupancies only the compiled descriptors hold."""
    bpu = sim.bpu
    hierarchy = sim.hierarchy
    caches = (sim.l1i, hierarchy.l1d, hierarchy.l2, hierarchy.llc)
    return (
        bpu.history.checkpoint(),
        bpu.tage.state(),
        (bpu.btb.state(), bpu.btb.occupancy),
        bpu.ibtb.state(),
        [(cache.state(), cache.occupancy) for cache in caches],
        hierarchy.stream.state() if hierarchy.stream is not None else None,
        sim.data_gen.state(),
    )


@pytest.mark.parametrize("compiled", [False, True], ids=["object", "compiled"])
@pytest.mark.parametrize("preset", sorted(PRESET_BUILDERS))
def test_handoff_moves_exactly_the_captured_state(monkeypatch, preset, compiled):
    # The hand-off is restore_state(fresh, capture_state(walker)) without
    # the wire form: it must leave the same captured state, and the interval
    # the fresh simulator then runs must leave counters and structures (LRU
    # order and occupancy included) equal to the wire route's.
    _mode(monkeypatch, compiled)
    from repro.sim.profile import build_simulator

    config = PRESET_BUILDERS[preset](2_000).replace(
        functional_warmup_blocks=800
    ).with_sampling(4, 200, 100)
    walker = build_simulator("mediawiki", config, seed=1, compiled=compiled)
    walker.functional_warmup(config.functional_warmup_blocks)
    walker.fast_forward_to(walker.oracle.instrs_walked + 3_000)
    handed = build_simulator("mediawiki", config, seed=1, compiled=compiled)
    ckpt.handoff(walker, handed)
    captured = ckpt.capture_state(walker)
    assert ckpt.capture_state(handed) == captured
    restored = build_simulator("mediawiki", config, seed=1, compiled=compiled)
    ckpt.restore_state(restored, captured)
    handed.run_interval(200, detailed_warmup=100)
    restored.run_interval(200, detailed_warmup=100)
    assert handed.measured_counters() == restored.measured_counters()
    assert _structures(handed) == _structures(restored)


@pytest.mark.parametrize("preset", sorted(PRESET_BUILDERS))
def test_a_compiled_handoff_never_takes_the_wire_form(monkeypatch, preset):
    # A compiled hand-off copies buffers: with every compiled class's
    # state/load_state refusing, it still completes.  The wire form costs
    # ten times as much (docs/performance.md, "Sampled simulation").
    if cc.kernels() is None:
        pytest.skip("no C compiler on this host")
    from repro.backend.core import DataAddressGeneratorC
    from repro.branch.compiled import (
        BranchTargetBufferC,
        GlobalHistoryC,
        IndirectTargetBufferC,
        TagePredictorC,
    )
    from repro.memory.compiled import SetAssocCacheC, StreamPrefetcherC
    from repro.sim.profile import build_simulator

    config = PRESET_BUILDERS[preset](2_000).replace(
        functional_warmup_blocks=800
    ).with_sampling(4, 200, 100)
    walker = build_simulator("mediawiki", config, seed=1, compiled=True)
    walker.functional_warmup(config.functional_warmup_blocks)
    walker.fast_forward_to(walker.oracle.instrs_walked + 3_000)
    handed = build_simulator("mediawiki", config, seed=1, compiled=True)
    assert handed.compiled_enabled

    def refuse(*args):
        raise AssertionError("a compiled hand-off went through the wire form")

    with monkeypatch.context() as patch:
        for cls in (
            BranchTargetBufferC,
            DataAddressGeneratorC,
            GlobalHistoryC,
            IndirectTargetBufferC,
            SetAssocCacheC,
            StreamPrefetcherC,
            TagePredictorC,
        ):
            patch.setattr(cls, "state", refuse)
            patch.setattr(cls, "load_state", refuse)
        ckpt.handoff(walker, handed)
    assert ckpt.capture_state(handed) == ckpt.capture_state(walker)


@pytest.mark.parametrize("compiled", [False, True], ids=["object", "compiled"])
def test_chain_captures_only_its_warmup_checkpoint(monkeypatch, compiled):
    # A K-interval chain builds K + 1 simulators (the walker and one per
    # interval); the warmup checkpoint is its only capture_state, and the
    # intervals take the walker's state by buffer copy, never through
    # restore_state.
    _mode(monkeypatch, compiled)
    calls = {"capture_state": 0, "restore_state": 0, "Simulator": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for name in ("capture_state", "restore_state"):
        monkeypatch.setattr(ckpt, name, counted(name, getattr(ckpt, name)))
    monkeypatch.setattr(Simulator, "__init__", counted("Simulator", Simulator.__init__))
    k = 3
    config = udp_config(2_000).replace(functional_warmup_blocks=800)
    stats = BatchStats()
    run_batch(
        [spec_for("mediawiki", config.with_sampling(k, 200, 100), 1, "udp")],
        jobs=1, no_cache=True, progress=stats,
    )
    assert (stats.checkpoint_creates, stats.intervals) == (1, k)
    assert calls == {"capture_state": 1, "restore_state": 0, "Simulator": k + 1}


def test_a_sampled_sw_profile_spec_profiles_once(monkeypatch):
    # A K-interval chain builds K + 1 simulators, and sw-profile builds its
    # technique in each: the profile pass runs in the first, and the rest
    # deploy the same memoized profile.
    from repro.prefetchers import swprefetch
    from repro.workloads.profiles import get_profile
    from repro.workloads.synth import synthesize

    calls = []
    profile_pass = swprefetch.profile_instruction_misses

    def counted(*args, **kwargs):
        calls.append(1)
        return profile_pass(*args, **kwargs)

    monkeypatch.setattr(swprefetch, "profile_instruction_misses", counted)
    config = PRESET_BUILDERS["sw-profile"](2_000).replace(functional_warmup_blocks=800)
    program = synthesize(get_profile("mediawiki"), seed=1)  # nothing memoized yet
    spec = engine.RunSpec(
        "mediawiki", config.with_sampling(4, 200, 100), program=program
    )
    stats = BatchStats()
    run_batch([spec], jobs=1, no_cache=True, progress=stats)
    assert stats.intervals == 4
    assert len(calls) == 1


def test_sampling_matches_with_and_without_checkpoints(monkeypatch):
    checkpointed = run_batch([_sampled_spec()], jobs=1, no_cache=True)[0]
    monkeypatch.setenv("REPRO_NO_CHECKPOINT", "1")
    scratch = run_batch([_sampled_spec()], jobs=1, no_cache=True)[0]
    assert _identical(checkpointed, scratch)


def test_sampled_result_serialization_round_trip():
    result = run_batch([_sampled_spec()], jobs=1, no_cache=True)[0]
    clone = SimResult.from_dict(result.to_dict())
    assert clone == result
    assert clone.sampling == result.sampling


# ---------------------------------------------------------------------------
# The fast-forward's data-side replay
# ---------------------------------------------------------------------------


def _warmed_up(config):
    from repro.sim.profile import build_simulator

    sim = build_simulator("mediawiki", config, seed=1)
    sim.functional_warmup(config.functional_warmup_blocks)
    return sim


def _fast_forwarded(config, distance: int = 1_000):
    # ``fast_forward_to`` takes an absolute true-path position, so the
    # distance is offset past wherever functional warmup stopped walking.
    sim = _warmed_up(config)
    sim.fast_forward_to(sim.oracle.instrs_walked + distance)
    return sim


def test_fast_forward_fills_the_data_side():
    sampled = FAST.with_sampling(4, 200, 100)
    warmed_up = _warmed_up(sampled)
    forwarded = _fast_forwarded(sampled)
    # The functional warmup leaves the data caches cold (instruction lines
    # only); the fast-forward replays the walked loads and stores.
    assert not warmed_up.data_gen.state()["pcs"]
    assert forwarded.data_gen.state()["pcs"]
    assert warmed_up.hierarchy.l1d.occupancy == 0
    assert forwarded.hierarchy.l1d.occupancy > 0
    # The replay never consumes cycles or measured counters.
    assert forwarded.cycle == 0 and warmed_up.cycle == 0


def test_chained_fast_forward_equals_direct_jump():
    # The sampled chain's walker chains fast-forwards; every piece of
    # warming-mutated state must therefore be position-deterministic.
    sampled = FAST.with_sampling(4, 200, 100)
    chained = _fast_forwarded(sampled)
    target = chained.oracle.instrs_walked + 600
    chained.fast_forward_to(target)
    direct = _warmed_up(sampled)
    direct.fast_forward_to(target)
    assert ckpt.capture_warmup(chained) == ckpt.capture_warmup(direct)


# ---------------------------------------------------------------------------
# Adaptive sampling: run_batch(..., sample_error=...)
# ---------------------------------------------------------------------------


def test_adaptive_annotates_met_target():
    result = run_batch(
        [_sampled_spec(label="adaptive")], jobs=1, no_cache=True,
        sample_error=0.99,
    )[0]
    assert result.sampling["adaptive"] == {
        "target": 0.99, "rounds": 1, "met": True,
    }


def test_adaptive_escalates_until_exhaustion_on_impossible_target():
    # FAST's shape (2000 instructions, K=4 x 200+100) cannot double K, so
    # escalation grows the detailed warmup to its period bound and stops.
    result = run_batch(
        [_sampled_spec(label="tight")], jobs=1, no_cache=True,
        sample_error=1e-9,
    )[0]
    adaptive = result.sampling["adaptive"]
    assert adaptive["rounds"] > 1
    assert not adaptive["met"]
    assert result.sampling["detailed_warmup"] > 100


def test_adaptive_ignores_plain_specs_and_rejects_bad_targets():
    plain = run_batch(
        [spec_for("mediawiki", FAST, 1, "plain")], jobs=1, no_cache=True,
        sample_error=0.5,
    )[0]
    assert plain.sampling is None
    for bad in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(ValueError, match="sample_error"):
            run_batch([], sample_error=bad)


def test_boolean_env_gates_share_one_parser(monkeypatch):
    # The opt-out gates all route through artifacts.env_truthy, so the
    # spelled-out truthy values ("YES", "on", "True") behave identically
    # everywhere instead of only "1" being honoured by some of them.
    from repro.common import cc
    from repro.sim.profile import build_simulator

    for value in ("YES", "on", "True"):
        monkeypatch.setenv(engine.NO_CACHE_ENV, value)
        assert engine._cache_disabled_by_env()
    monkeypatch.setenv(cc.NO_COMPILED_ENV, "yes")
    assert not build_simulator("mediawiki", FAST, seed=1).compiled_enabled
    monkeypatch.setenv(cc.NO_COMPILED_ENV, "0")  # falsy spelling
    compiled = build_simulator("mediawiki", FAST, seed=1).compiled_enabled
    assert compiled == cc.compiled_enabled()


@pytest.mark.slow
def test_sampling_error_is_small_at_benchmark_scale():
    # benchmarks/bench_sampling.py's small-footprint row, as an executable
    # accuracy gate.  Reduced regions are useless here: short intervals
    # alias against program phases and the measured error swings 1-13% with
    # tiny shape changes, so this runs the real 500k-instruction shape.
    # Deselected from tier-1 by the "not slow" default marker expression
    # (run with: pytest -m slow tests/sim/test_sampling.py).
    from repro.analysis.stats import ipc_sampling_error

    config = baseline_config(max_instructions=500_000)
    plain = run_batch(
        [spec_for("mediawiki", config, 1, "full")], jobs=1, no_cache=True
    )[0]
    sampled = run_batch(
        [
            spec_for(
                "mediawiki",
                config.with_sampling(10, 4_000, 1_500),
                1,
                "sampled",
            )
        ],
        jobs=1,
        no_cache=True,
    )[0]
    assert ipc_sampling_error(sampled, plain) < 0.01
    assert sampled.sampling["num_intervals"] == 10


@pytest.mark.slow
def test_fast_forward_warming_fixes_large_footprint_error_at_benchmark_scale():
    # The headline row of the warming fast-forward: verilator's working set
    # blows through L1/L2, and before the fast-forward warmed the data side
    # its sampled IPC was off by ~8% (BENCH_sampling.json history).  With
    # the data-side replay the same region samples to within 2%.
    from repro.analysis.stats import ipc_sampling_error

    config = baseline_config(max_instructions=500_000)
    plain = run_batch(
        [spec_for("verilator", config, 1, "full")], jobs=1, no_cache=True
    )[0]
    sampled = run_batch(
        [
            spec_for(
                "verilator",
                config.with_sampling(25, 1_000, 500),
                1,
                "sampled",
            )
        ],
        jobs=1,
        no_cache=True,
    )[0]
    assert ipc_sampling_error(sampled, plain) < 0.02


def test_sampled_results_cached_separately_from_plain(tmp_path, monkeypatch):
    monkeypatch.setenv(engine.CACHE_DIR_ENV, str(tmp_path / "iso"))
    cache = engine.ResultCache()
    plain_spec = spec_for("mediawiki", FAST, 1, "plain")
    run_batch([plain_spec], cache=cache)
    run_batch([_sampled_spec()], cache=cache)
    assert cache.info().entries == 2  # distinct keys: config includes sampling
    warm = BatchStats()
    run_batch([_sampled_spec()], cache=cache, progress=warm)
    assert warm.cache_hits == 1 and warm.simulated == 0
