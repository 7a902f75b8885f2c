"""The compiled cycle driver: engagement and byte-identity at every exit.

``run_cycles`` (``repro/common/kernels/driver.c``) runs the whole step()
loop in C, UDP, the two-level BTB, the loop predictor and the built-in
comparators (EIP, MANA, shadow-btb) included, and calls a plug-in
technique's and UFTQ's Python methods back where step() does.  It must be
a pure wall-clock optimization (``tests/sim/test_modes.py``,
``tests/sim/test_fuzz_modes.py``): at every point where it returns to
Python -- the retire target, a ``run_interval`` detailed-warmup
boundary, the cycle limit, an exception from a callback -- counters,
cycle, FTQ occupancy, the oracle position, UDP's state, a comparator's
tables and the calls a plug-in saw must equal the object oracle's.  And a
compiled simulator must actually run it: one that silently fell back to
the Python stepper would still pass every identity test, but at stepper
speed.
"""

import dataclasses
import signal
from collections import deque
from dataclasses import dataclass
from functools import partial
from unittest import mock

import pytest

from repro.common import cc
from repro.common.config import SimConfig
from repro.common.errors import ProgramError, SimulationError
from repro.core.uftq import UFTQController
from repro.memory.cache import SetAssocCache
from repro.prefetchers import registry
from repro.prefetchers.base import InstructionPrefetcher
from repro.sim import checkpoint as ckpt
from repro.sim import driver as driver_mod
from repro.sim import stepper
from repro.sim.presets import (
    PRESET_BUILDERS,
    baseline_config,
    infinite_storage_config,
    miss_heavy_config,
    udp_config,
)
from repro.sim.profile import build_simulator, profile_run
from repro.sim.simulator import Simulator
from repro.workloads import micro
from repro.workloads import store as program_store
from repro.workloads.behavior import (
    AlwaysTaken,
    BiasedBehavior,
    DirectionBehavior,
    FixedTarget,
    LoopBehavior,
    PatternBehavior,
    PhasedBehavior,
    WeightedTargets,
    ZipfTargets,
)
from repro.workloads.builder import ProgramBuilder
from repro.workloads.oracle import OracleCursor
from repro.workloads.phases import make_phased_program
from repro.workloads.profiles import SUITE, get_profile
from repro.workloads.program import OP_LOAD, OP_STORE, BranchKind, Program
from repro.workloads.tables import program_tables

N = 4_000

needs_compiler = pytest.mark.skipif(
    not cc.compiled_enabled(), reason="no C compiler on this host"
)


def _driver_calls() -> int:
    return cc.kernel_call_counts().get("run_cycles", 0)


def _udp_state(sim: Simulator) -> tuple | None:
    udp = sim.udp
    if udp is None:
        return None
    useful_set = udp.useful_set
    seniority = udp.seniority
    return (
        {size: (bytes(f._array), f.inserted) for size, f in useful_set.filters.items()},
        list(useful_set.coalescer._lines),
        (useful_set._window_unuseful, useful_set._window_total),
        list(seniority._entries),
        (seniority.inserted, seniority.matched, seniority.evicted),
        (udp.estimator.counter, udp.estimator._forced_off_path),
        sorted(useful_set._exact),
    )


def _state(sim: Simulator) -> tuple:
    """Everything a driver exit writes back, as one comparable value."""
    oracle = sim.oracle
    return (
        sim.cycle,
        sim.measured_counters(),
        sim.ftq.occupancy_sum,
        sim.ftq.occupancy_samples,
        oracle.pc,
        oracle.blocks_walked,
        oracle.instrs_walked,
        list(oracle.call_stack),
        oracle._occurrences.tolist(),
        _udp_state(sim),
    )


@needs_compiler
@pytest.mark.parametrize("preset", sorted(PRESET_BUILDERS))
def test_driver_engages_iff_eligible(preset, monkeypatch):
    """A compiled simulator is eligible whatever the preset: the driver runs
    it, and the Python stepper never does."""
    steps = []
    python_step = Simulator.step

    def counting_step(self):
        steps.append(1)
        python_step(self)

    monkeypatch.setattr(Simulator, "step", counting_step)
    sim = build_simulator("gcc", PRESET_BUILDERS[preset](N), compiled=True)
    assert sim.compiled_enabled
    before = _driver_calls()
    sim.run()
    calls = _driver_calls() - before
    assert calls >= 1 and not steps, (preset, calls, len(steps))
    assert sim.steps_executed + sim.ff_cycles_skipped == sim.cycle


def test_fallback_gates_name_their_reason(monkeypatch):
    """The structures are chosen at construction, by ``compiled`` alone, and
    ``repro profile`` names why the driver is off."""
    config = baseline_config(2_000).replace(functional_warmup_blocks=800)
    sim = build_simulator("mediawiki", config, compiled=False)
    assert not sim.compiled_enabled and isinstance(sim.l1i, SetAssocCache)
    # The gates are the ones the profiled run can use: it builds its
    # simulator directly, so no checkpoint store is read.
    naive = profile_run("mediawiki", config, fast_forward=False)
    assert naive.gates == {"fast-forward": False, "compiled": False, "driver": False}
    assert naive.driver_off_reason == "fast-forward off"
    monkeypatch.setenv("REPRO_NO_COMPILED", "1")
    gated = profile_run("mediawiki", config)
    assert gated.gates == {"fast-forward": True, "compiled": False, "driver": False}
    assert gated.driver_off_reason == "compiled kernels off"
    monkeypatch.delenv("REPRO_NO_COMPILED")
    if not cc.compiled_enabled():
        return
    sim = build_simulator("mediawiki", config, compiled=True)
    assert sim.compiled_enabled and not isinstance(sim.l1i, SetAssocCache)
    driven = profile_run("mediawiki", config)
    assert driven.gates == {"fast-forward": True, "compiled": True, "driver": True}
    assert driven.driver_off_reason == ""


@needs_compiler
@pytest.mark.parametrize("attach", ["hook", "naive"])
def test_a_compiled_simulator_refuses_what_only_the_stepper_does(attach):
    """A counter hook or the naive stepper needs the object structures, and
    the error says how to get them."""
    sim = build_simulator("gcc", baseline_config(2_000), compiled=True)
    if attach == "hook":
        sim.counters.hook = lambda name, amount: None
    else:
        sim.fast_forward_enabled = False
    with pytest.raises(SimulationError, match="compiled=False"):
        sim.run()
    with pytest.raises(SimulationError, match="owns this simulator's pipeline"):
        sim.step()
    assert sim.cycle == 0 and sim._driver is None


@needs_compiler
@pytest.mark.parametrize("workload,preset", [
    ("gcc", "miss-heavy"), ("verilator", "miss-heavy"), ("xgboost", "baseline"),
])
def test_driver_keeps_the_steppers_idle_skip_accounting(workload, preset):
    """Same fast-forward and refill rules: step counts match the Python stepper."""
    config = PRESET_BUILDERS[preset](N)
    driven = build_simulator(workload, config, compiled=True)
    driven.run()
    stepped = build_simulator(workload, config, compiled=False)
    stepped.run()
    assert _state(driven) == _state(stepped)
    assert (driven.steps_executed, driven.ff_jumps, driven.ff_cycles_skipped) == (
        stepped.steps_executed, stepped.ff_jumps, stepped.ff_cycles_skipped
    )


def test_run_interval_warmup_exit_matches_object_path():
    config = baseline_config(N).with_sampling(4, 500, 300)
    prof = get_profile("gcc")
    program = program_store.program_for("gcc", 1)

    def interval(compiled: bool) -> Simulator:
        sim = Simulator(program, config, data_profile=prof.data, compiled=compiled)
        sim.functional_warmup(config.functional_warmup_blocks)
        sim.fast_forward_to(sim.oracle.instrs_walked + 2_000)
        sim.run_interval(500, detailed_warmup=300)
        return sim

    before = _driver_calls()
    driven = interval(True)
    if cc.compiled_enabled():
        assert _driver_calls() - before == 2
    oracle = interval(False)
    assert driven._warmup_cycle == oracle._warmup_cycle > 0
    assert _state(driven) == _state(oracle)
    # Resumable: a second interval continues from where the driver stopped.
    driven.run_interval(400)
    oracle.run_interval(400)
    assert _state(driven) == _state(oracle)


def test_cycle_limit_exit_matches_object_path():
    config = miss_heavy_config(N).replace(max_cycles=20_000)
    errors = []
    sims = []
    for compiled in (True, False):
        sim = build_simulator("gcc", config, compiled=compiled)
        with pytest.raises(SimulationError) as info:
            sim.run()
        errors.append(str(info.value))
        sims.append(sim)
    assert errors[0] == errors[1]
    assert "cycle limit 20000 hit" in errors[0]
    driven, oracle = sims
    assert driven.cycle == oracle.cycle == 20_000
    assert driven.counters.snapshot() == oracle.counters.snapshot()
    assert _state(driven) == _state(oracle)


@needs_compiler
def test_driver_owns_the_pipeline_after_it_ran():
    sim = build_simulator("gcc", baseline_config(2_000), compiled=True)
    sim.run()
    assert sim._driver is not None
    with pytest.raises(SimulationError, match="owns this simulator's pipeline"):
        sim.step()
    sim.counters.hook = lambda name, amount: None
    with pytest.raises(SimulationError, match="counter hook"):
        sim.run(3_000)


def _behaviour_zoo():
    """Every behaviour class the driver compiles, incl. ones synthesis rarely
    emits: always-taken and noisy-pattern conditionals, a phased branch,
    Zipf selectors on all three of its formulas, a negative fixed index,
    and indirect calls returning through the call stack."""
    b = ProgramBuilder()
    head, skip1, skip2, skip3 = (b.label(n) for n in ("head", "s1", "s2", "s3"))
    funcs = [b.label(f"f{i}") for i in range(4)]
    b.place(head)
    b.set_entry()
    b.cond_branch(3, target=skip1, behavior=AlwaysTaken())
    b.block(2)
    b.place(skip1)
    b.cond_branch(3, target=skip2, behavior=PatternBehavior(11, 0b1011001, 7, noise=0.2))
    b.block(3)
    b.place(skip2)
    phased = PhasedBehavior(LoopBehavior(5), BiasedBehavior(3, 0.3), 50)
    b.cond_branch(2, target=skip3, behavior=phased)
    b.block(1)
    b.place(skip3)
    for selector in (ZipfTargets(5, 1.0), ZipfTargets(6, 0.5), ZipfTargets(7, 0.0)):
        b.indirect(2, targets=list(funcs), behavior=selector, call=True)
    b.indirect(2, targets=funcs[:2], behavior=FixedTarget(-1), call=True)
    b.indirect(2, targets=funcs[:3], behavior=WeightedTargets(9, 0.6), call=True)
    b.block(2, jump_to=head)
    for i, label in enumerate(funcs):
        b.place(label)
        if i == 3:
            b.call(2, target=funcs[0])
        b.block(4 - i % 2)
        b.ret(2)
    return b.finish()


PROGRAMS = {
    "straight_loop": micro.straight_loop,
    "counted_loop": lambda: micro.counted_loop(7),
    "diamond": micro.diamond,
    "pattern_diamond": lambda: micro.pattern_diamond(0b0110, 4),
    "call_return": micro.call_return,
    "rotating_switch": micro.rotating_switch,
    "long_straight": lambda: micro.long_straight(num_blocks=1024),
    "always_taken_chain": micro.always_taken_chain,
    "behaviour_zoo": _behaviour_zoo,
    "phased": lambda: make_phased_program(get_profile("mediawiki"), 1),
}


@pytest.mark.parametrize("name", [*sorted(PROGRAMS), "custom_behaviour"])
def test_handcrafted_programs_match_object_path(name):
    if name == "custom_behaviour":
        # The driver's tables cannot hold its behaviour, so neither path
        # runs it: it is a ProgramError at construction.
        with pytest.raises(ProgramError):
            _custom_program()
        return
    program = PROGRAMS[name]()
    config = SimConfig(max_instructions=3_000, functional_warmup_blocks=300)
    # A 2 KiB L1I keeps even the small loops missing, so fills, prefetches
    # and evictions all happen.
    l1i = dataclasses.replace(config.memory.l1i, size_bytes=2 * 1024, assoc=2)
    config = config.replace(memory=dataclasses.replace(config.memory, l1i=l1i))
    before = _driver_calls()
    driven = Simulator(program, config, compiled=True)
    driven.run()
    calls = _driver_calls() - before
    oracle = Simulator(program, config, compiled=False)
    oracle.run()
    assert (calls > 0) == cc.compiled_enabled()
    assert _state(driven) == _state(oracle)


class _Custom(DirectionBehavior):
    def taken(self, occurrence: int) -> bool:
        return occurrence % 3 == 0


def _one_branch(emit) -> Program:
    """A loop whose head block ends in the branch ``emit(builder, out)`` makes."""
    b = ProgramBuilder()
    head, out = b.label("head"), b.label("out")
    b.place(head)
    b.set_entry()
    emit(b, out)
    b.block(3)
    b.place(out)
    b.block(2, jump_to=head)
    return b.finish()


def _custom_program() -> Program:
    return _one_branch(lambda b, out: b.cond_branch(4, target=out, behavior=_Custom()))


# Every program family the repo builds: the suite, synthesized (not
# hydrated from the store), every micro program, a phased program and the
# handcrafted ones above.
FAMILIES = {
    **{f"suite-{p.name}": partial(program_store.synthesize, p, 1) for p in SUITE},
    **PROGRAMS,
    "mispredicting_loop": micro.mispredicting_loop,
}
# Programs the driver's tables cannot hold, and so no simulator runs.
REJECTED = {
    "unknown-behaviour": _custom_program,
    "fixed-index-outside-targets": lambda: _one_branch(
        lambda b, out: b.indirect(4, targets=[out], behavior=FixedTarget(1))
    ),
    "pattern-past-int64": lambda: _one_branch(
        lambda b, out: b.cond_branch(4, target=out, behavior=PatternBehavior(3, 1 << 63, 64))
    ),
    "zero-phase-length": lambda: _one_branch(
        lambda b, out: b.cond_branch(
            4, target=out, behavior=PhasedBehavior(LoopBehavior(3), LoopBehavior(5), 0)
        )
    ),
}


@pytest.mark.parametrize("family", [*FAMILIES, *REJECTED])
def test_every_program_is_compiled_or_rejected(family):
    """Every program flattens to the driver's tables, so ``compiled`` alone
    picks a simulator's structures; one that cannot is a ProgramError at
    construction."""
    if family in REJECTED:
        with pytest.raises(ProgramError):
            REJECTED[family]()
        return
    program = FAMILIES[family]()
    assert (program_tables(program) is not None) == cc.compiled_enabled()
    config = SimConfig(max_instructions=1_000, functional_warmup_blocks=0)
    for compiled in (None, True, False):
        sim = Simulator(program, config, compiled=compiled)
        assert sim.compiled_enabled == cc.resolve_compiled(compiled)


# One case per UDP branch the driver takes, with the counters that prove
# the branch ran (so none passes vacuously).  xgboost at N instructions
# keeps the gate busy: many off-path candidates, learning through both
# channels, super-block emits.
UDP_CASES = {
    "udp": (
        udp_config(N),
        ("udp_forced_off_path", "udp_superline_emits", "udp_emit_off_path",
         "udp_learned_useful", "udp_learned_useful_direct"),
    ),
    "no-seniority": (udp_config(N, use_seniority=False), ("udp_learned_useful_direct",)),
    "no-superlines": (udp_config(N, use_superlines=False), ("useful_set_hit_1",)),
    "flush": (
        udp_config(N, bloom_bits_1=64, bloom_bits_2=64, bloom_bits_4=64,
                   flush_unuseful_ratio=0.05),
        ("useful_set_flush_1",),
    ),
    "threshold-0": (udp_config(N, confidence_threshold=0), ("udp_emit_off_path",)),
    "infinite-storage": (infinite_storage_config(N), ("udp_learned_useful",)),
}


@pytest.mark.parametrize("case", sorted(UDP_CASES))
def test_udp_branches_match_object_path(case):
    config, targets = UDP_CASES[case]
    before = _driver_calls()
    driven = build_simulator("xgboost", config, compiled=True)
    driven.run()
    if cc.compiled_enabled():
        assert _driver_calls() - before == 1
    oracle = build_simulator("xgboost", config, compiled=False)
    oracle.run()
    counters = driven.measured_counters()
    assert all(counters.get(name, 0) > 0 for name in targets), targets
    assert _state(driven) == _state(oracle)
    if case == "no-seniority":
        # Zero-valued slots are invisible in the counters' dict form: the
        # driver registers a slot for every counter it can move.
        assert "udp_learned_useful" not in driven.measured_counters()
    if case == "no-superlines":
        assert driven.udp.useful_set.filters[4].inserted == 0


def test_udp_run_interval_matches_object_path():
    """Sampled UDP intervals: a detailed-warmup exit, then a resumed interval."""
    config = udp_config(N).with_sampling(4, 500, 300)
    prof = get_profile("xgboost")
    program = program_store.program_for("xgboost", 1)

    def interval(compiled: bool) -> Simulator:
        sim = Simulator(program, config, data_profile=prof.data, compiled=compiled)
        sim.functional_warmup(config.functional_warmup_blocks)
        sim.fast_forward_to(sim.oracle.instrs_walked + 2_000)
        sim.run_interval(1_000, detailed_warmup=500)
        return sim

    before = _driver_calls()
    driven = interval(True)
    if cc.compiled_enabled():
        assert _driver_calls() - before == 2
    oracle = interval(False)
    assert driven.measured_counters().get("udp_pass_on_path", 0) > 0
    assert _state(driven) == _state(oracle)
    driven.run_interval(1_500)
    oracle.run_interval(1_500)
    assert driven.measured_counters().get("udp_learned_useful", 0) > 0
    assert _state(driven) == _state(oracle)


@pytest.mark.parametrize("preset", ["udp", "infinite-storage"])
def test_udp_restored_from_a_warmup_checkpoint_matches_object_path(preset):
    """A warmed useful-set (Bloom bits, coalescer, exact set) crosses into C."""
    config = PRESET_BUILDERS[preset](N)
    prof = get_profile("xgboost")
    program = program_store.program_for("xgboost", 1)
    donor = Simulator(program, config, data_profile=prof.data, compiled=False)
    donor.functional_warmup(config.functional_warmup_blocks)
    blob = ckpt.capture_warmup(donor)
    useful_set = donor.udp.useful_set
    assert useful_set._exact if useful_set.infinite else useful_set.filters[1].inserted
    sims = []
    for compiled in (True, False):
        sim = Simulator(program, config, data_profile=prof.data, compiled=compiled)
        ckpt.restore_warmup(sim, blob)
        sim.run()
        sims.append(sim)
    driven, oracle = sims
    assert driven.measured_counters().get("udp_learned_useful", 0) > 0
    assert _state(driven) == _state(oracle)
    donor.run()
    assert _state(driven) == _state(donor)


@needs_compiler
def test_udp_line_outside_the_code_region_is_an_error():
    config = infinite_storage_config(N)
    sim = build_simulator("gcc", config, compiled=True)
    sim.udp.useful_set._exact.add(sim.program.code_end + 64)
    with pytest.raises(SimulationError, match="outside the code region"):
        sim.run()


# -- registry techniques: the driver's callbacks -------------------------------

# Every registered technique that builds an object (its preset, or FDIP
# plus the technique for next-line, which has none), with the counters
# that prove it acted.  eip and sw-profile share prefetches_emitted with
# FDIP, so their own `triggered` count (lines they returned) is checked too.
# The comparators the driver runs natively make no callback; the others
# are called back.
NATIVE_TECHNIQUES = ("eip", "mana", "shadow-btb")
TECHNIQUE_ACTIVITY = {
    "eip": ("prefetches_emitted",),
    "sw-profile": ("prefetches_emitted",),
    "mana": ("mana_replayed_lines", "mana_records_trained"),
    "shadow-btb": (
        "shadow_btb_prefills", "shadow_btb_lines_scanned", "shadow_btb_branches_found",
    ),
    "next-line": ("prefetches_emitted",),
}


def _technique_config(kind: str) -> SimConfig:
    if kind in PRESET_BUILDERS:
        return PRESET_BUILDERS[kind](N)
    return baseline_config(N).with_prefetcher(kind)


def test_technique_cases_cover_the_registry():
    assert set(TECHNIQUE_ACTIVITY) | {"fdip", "none"} == set(registry.names())


def test_native_techniques_are_the_registrys_native_ones():
    native = {technique.name for technique in registry.techniques() if technique.native}
    assert native == set(NATIVE_TECHNIQUES)


def _technique_state(sim: Simulator) -> dict:
    """A native comparator's layout-neutral ``state()``; a plug-in object's
    own tables and counts (ints and containers)."""
    if sim.config.prefetcher.kind in NATIVE_TECHNIQUES:
        return sim.prefetcher.state()
    return {
        name: value if not isinstance(value, deque) else list(value)
        for name, value in vars(sim.prefetcher).items()
        if isinstance(value, (int, dict, list, deque))
    }


@pytest.mark.parametrize("workload", ["gcc", "xgboost"])
@pytest.mark.parametrize("kind", sorted(TECHNIQUE_ACTIVITY))
def test_techniques_match_object_path(kind, workload):
    config = _technique_config(kind)
    before = _driver_calls()
    driven = build_simulator(workload, config, compiled=True)
    driven.run()
    oracle = build_simulator(workload, config, compiled=False)
    oracle.run()
    if cc.compiled_enabled():
        assert _driver_calls() - before == 1
        assert driven.native_technique == (kind in NATIVE_TECHNIQUES)
        if driven.native_technique:
            assert driven.driver_demand_callbacks == driven.driver_fill_callbacks == 0
        else:
            assert driven.driver_demand_callbacks > 0
        assert driven.steps_executed + driven.ff_cycles_skipped == driven.cycle
    assert oracle.driver_demand_callbacks == 0
    counters = driven.measured_counters()
    assert all(counters.get(name, 0) > 0 for name in TECHNIQUE_ACTIVITY[kind]), counters
    if kind in ("eip", "sw-profile"):
        assert driven.prefetcher.triggered > 0
    assert _state(driven) == _state(oracle)
    assert _technique_state(driven) == _technique_state(oracle)
    if kind in ("eip", "mana"):
        # Not vacuous: the tables trained and replayed.
        state = _technique_state(oracle)
        assert state["trained"] > 0 and state["triggered"] > 0
    assert driven.bpu.btb.state() == oracle.bpu.btb.state()
    assert (driven.steps_executed, driven.ff_jumps) == (oracle.steps_executed, oracle.ff_jumps)


class _Boom(Exception):
    pass


@dataclass(frozen=True)
class _RecorderParams:
    # New lines returned after a demand miss: more than the MSHR file holds.
    miss_burst: int = 12
    # ("access" | "hit" | "fill", n): the n-th demand access, on-path hit
    # or fill callback raises _Boom, itself or (how="signal") from a SIGUSR1
    # handler running inside it.
    raise_on: tuple = ()
    how: str = "raise"


class _Recorder(InstructionPrefetcher):
    """Logs every callback; returns new, cached and in-flight lines.

    Each demand access returns a generator, so the log also shows how far
    the simulator consumed it: the demanded line itself (cached after a
    hit, in flight after a miss), the recently demanded lines (mostly
    cached), then a burst of new sequential lines -- after a miss, more
    than the MSHR file holds, so the full-MSHR stop leaves it unfinished.
    Fills are predecoded through the BTB hooks, shadow-btb style.
    """

    name = "recorder"

    def __init__(self, params: _RecorderParams, hooks) -> None:
        self.params = params
        self.hooks = hooks
        self.log: list[tuple] = []
        self.calls = {"access": 0, "hit": 0, "fill": 0}
        self.raised: BaseException | None = None
        self._recent: deque[int] = deque(maxlen=4)

    def _called(self, kind: str) -> None:
        self.calls[kind] += 1
        if self.params.raise_on != (kind, self.calls[kind]):
            return
        try:
            if self.params.how == "signal":
                signal.raise_signal(signal.SIGUSR1)  # its handler raises _Boom
            raise _Boom(f"{kind} call {self.calls[kind]}")
        except _Boom as exc:
            self.raised = exc
            raise

    def on_demand_access(self, line_addr, hit, on_path):
        self.log.append(("access", line_addr, hit, on_path))
        self._called("access")
        if hit and on_path:
            self._called("hit")
        recent = list(self._recent)
        self._recent.append(line_addr)
        return self._lines(line_addr, recent, 2 if hit else self.params.miss_burst)

    def _lines(self, line_addr, recent, burst):
        yield line_addr
        yield from recent
        self.log.append(("burst", burst))
        for k in range(1, burst + 1):
            self.log.append(("yield", k))
            yield line_addr + 64 * k

    def on_line_filled(self, line_addr):
        self.log.append(("fill", line_addr))
        self._called("fill")
        program = self.hooks.program
        if not program.code_start <= line_addr < program.code_end:
            return
        branch = program.block_at(line_addr).branch
        if branch is None or branch.kind.is_indirect:
            return
        known = self.hooks.btb_contains(branch.pc)
        self.log.append(("btb", branch.pc, known))
        if not known:
            target = 0 if branch.kind == BranchKind.RET else branch.target
            self.hooks.btb_fill(branch.pc, branch.kind, target)


@pytest.fixture
def recorder():
    registry.register(
        registry.Technique(
            name="recorder",
            summary="test-only: logs the driver's callbacks",
            params_cls=_RecorderParams,
            build=lambda params, program, hooks: _Recorder(params, hooks),
            capabilities=registry.Capabilities(hooks_btb=True, observes_fills=True),
        )
    )
    yield
    registry.unregister("recorder")


def _recorder_config(**params) -> SimConfig:
    # A 6-entry L1I MSHR file: a miss's burst reaches the full stop.
    config = baseline_config(N).with_prefetcher("recorder", _RecorderParams(**params))
    l1i = dataclasses.replace(config.memory.l1i, mshr_entries=6)
    return config.replace(memory=dataclasses.replace(config.memory, l1i=l1i))


def _observed(sim: Simulator) -> tuple:
    return _state(sim), list(sim.prefetcher.log)


def _both(run, config) -> tuple:
    """``(sim, run(sim))`` for a driven and an object-path simulator on gcc."""
    out = []
    for compiled in (True, False):
        before = _driver_calls()
        sim = build_simulator("gcc", config, compiled=compiled)
        out.append((sim, run(sim)))
        if compiled and cc.compiled_enabled():
            assert _driver_calls() - before >= 1
            assert sim.driver_demand_callbacks == sim.prefetcher.calls["access"]
            assert sim.driver_fill_callbacks == sim.prefetcher.calls["fill"]
    return tuple(out)


def test_recorder_sees_the_same_calls_at_the_retire_target(recorder):
    (driven, _), (oracle, _) = _both(lambda sim: sim.run(), _recorder_config())
    assert _observed(driven) == _observed(oracle)
    log = oracle.prefetcher.log
    # Not vacuous: hits and misses, on and off path, BTB probes both ways,
    # and miss bursts the full-MSHR stop cut short.
    accesses = {entry[2:] for entry in log if entry[0] == "access"}
    assert accesses == {(h, p) for h in (True, False) for p in (True, False)}
    assert {entry[2] for entry in log if entry[0] == "btb"} == {True, False}
    bursts = []
    for entry in log:
        if entry[0] == "burst":
            bursts.append([entry[1], 0])
        elif entry[0] == "yield":
            bursts[-1][1] += 1
    assert any(consumed < length == 12 for length, consumed in bursts)
    assert any(consumed == length == 2 for length, consumed in bursts)
    counters = oracle.measured_counters()
    assert counters["prefetches_emitted"] > 0 and counters["icache_mshr_full_stalls"] > 0
    if cc.compiled_enabled():
        assert driven.driver_demand_callbacks > 0 and driven.driver_fill_callbacks > 0


def test_recorder_matches_at_the_detailed_warmup_stop(recorder):
    config = _recorder_config()

    def run(sim):
        at_stop = []
        simulate = sim._simulate

        def capturing(target, warmup_target, end_warmup):
            def end():
                end_warmup()
                at_stop.append(_observed(sim))

            simulate(target, warmup_target, end)

        sim._simulate = capturing
        sim.run_interval(config.max_instructions - 1_500, detailed_warmup=1_500)
        return at_stop

    (driven, driven_stop), (oracle, oracle_stop) = _both(run, config)
    assert len(driven_stop) == 1 and driven_stop == oracle_stop
    assert driven._warmup_cycle == oracle._warmup_cycle > 0
    assert _observed(driven) == _observed(oracle)


def test_recorder_matches_across_run_intervals(recorder):
    config = _recorder_config()

    def run(sim):
        sim.functional_warmup(config.functional_warmup_blocks)
        sim.fast_forward_to(sim.oracle.instrs_walked + 2_000)
        sim.run_interval(500, detailed_warmup=300)
        first = _observed(sim)
        sim.run_interval(400)
        return first

    (driven, first), (oracle, oracle_first) = _both(run, config)
    assert first == oracle_first
    assert driven._warmup_cycle == oracle._warmup_cycle > 0
    assert _observed(driven) == _observed(oracle)


def test_recorder_matches_at_the_cycle_limit(recorder):
    config = _recorder_config().replace(max_cycles=3_000)

    def run(sim):
        with pytest.raises(SimulationError, match="cycle limit 3000 hit"):
            sim.run()

    (driven, _), (oracle, _) = _both(run, config)
    assert driven.cycle == 3_000
    assert _observed(driven) == _observed(oracle)


def _raise_boom(signum, frame):
    raise _Boom("from the SIGUSR1 handler")


def _first_prefetch_consuming_hit() -> int:
    """Which on-path hit (1-based) first consumes a prefetch, on the object path."""
    sim = build_simulator("gcc", _recorder_config(), compiled=False)
    hits = []
    useful = stepper._prefetch_useful

    def spy(sim, off_path, timely):
        if timely:
            hits.append(sim.prefetcher.calls["hit"] + 1)
        useful(sim, off_path, timely)

    with mock.patch.object(stepper, "_prefetch_useful", spy):
        sim.run()
    return hits[0]


# Raising on the first on-path hit that consumes a prefetch shows the call
# follows the useful-prefetch accounting; raising on a fill, that it
# follows the install, the eviction accounting and l1i_fills.
@pytest.mark.parametrize("how", ["raise", "signal"])
@pytest.mark.parametrize(
    "callback,nth", [("access", 1), ("access", 40), ("hit", None), ("fill", 25)]
)
def test_a_raising_callback_ends_the_run_with_its_exception(recorder, callback, nth, how):
    if nth is None:
        nth = _first_prefetch_consuming_hit()

    def run(sim):
        with pytest.raises(_Boom) as info:
            sim.run()
        assert info.value is sim.prefetcher.raised
        assert sim.prefetcher.calls[callback] == nth
        # No call after the raising one.
        assert sim.prefetcher.log[-1][0] == ("fill" if callback == "fill" else "access")

    previous = signal.signal(signal.SIGUSR1, _raise_boom)
    try:
        (driven, _), (oracle, _) = _both(run, _recorder_config(raise_on=(callback, nth), how=how))
    finally:
        signal.signal(signal.SIGUSR1, previous)
    # The write-back ran: the driven view is the oracle's at the raise.
    assert _observed(driven) == _observed(oracle)


# Lines no technique may return: a non-int, negative (-1 marks free ways
# and MSHR slots in C), unaligned (a way no demand access ever hits), or
# beyond 64 bits.
BAD_LINES = [-64, -1, 96, "4096", 4096.0, True, 1 << 64]


@dataclass(frozen=True)
class _BadParams:
    line: object = -64


class _BadLine(InstructionPrefetcher):
    name = "bad-line"

    def __init__(self, line) -> None:
        self.line = line

    def on_demand_access(self, line_addr, hit, on_path):
        return [line_addr + 64, self.line]


@pytest.fixture
def bad_line_technique():
    registry.register(
        registry.Technique(
            name="bad-line",
            summary="test-only: returns an invalid prefetch line",
            params_cls=_BadParams,
            build=lambda params, program, hooks: _BadLine(params.line),
        )
    )
    yield
    registry.unregister("bad-line")


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "object"])
@pytest.mark.parametrize("line", BAD_LINES, ids=repr)
def test_an_invalid_prefetch_line_is_an_error(bad_line_technique, line, compiled):
    config = baseline_config(N).with_prefetcher("bad-line", _BadParams(line))
    sim = build_simulator("gcc", config, compiled=compiled)
    with pytest.raises(SimulationError) as info:
        sim.run()
    message = str(info.value)
    assert "'bad-line'" in message and repr(line) in message
    assert "64-byte-aligned" in message


# -- the functional walk: warmup and fast-forward in one C call ---------------


def _walk_calls() -> int:
    return cc.kernel_call_counts().get("functional_walk", 0)


def _walk_state(sim: Simulator) -> tuple:
    """Everything the functional walk writes, layout-neutral.

    ``_state`` plus the raw counters and baseline, the frontend and RAS
    scalars and every trained structure in its checkpoint form: the caches
    as their packed LRU-ordered lines and the data generator as its packed
    occurrence counters, pcs ascending in both modes.
    """
    bpu = sim.bpu
    hierarchy = sim.hierarchy
    caches = (sim.l1i, hierarchy.l1d, hierarchy.l2, hierarchy.llc)
    return (
        _state(sim),
        sim.counters.snapshot(),
        sim._warmup_baseline,
        sim.frontend.spec_pc,
        (list(bpu.ras._stack), bpu.ras.overflows, bpu.ras.underflows),
        bpu.history.checkpoint(),
        bpu.tage.state(),
        bpu.btb.state(),
        bpu.ibtb.state(),
        [cache.state() for cache in caches],
        hierarchy.stream.state() if hierarchy.stream is not None else None,
        sim.data_gen.state(),
    )


@pytest.fixture
def transitions(monkeypatch):
    """Counts Python OracleCursor.transition calls (the walk's and the stepper's)."""
    calls = []
    transition = OracleCursor.transition

    def counting(self):
        calls.append(1)
        return transition(self)

    monkeypatch.setattr(OracleCursor, "transition", counting)
    return calls


@pytest.mark.parametrize("workload", ["gcc", "xgboost"])
@pytest.mark.parametrize("preset", sorted(PRESET_BUILDERS))
def test_functional_warmup_matches_object_walk(preset, workload, transitions):
    config = PRESET_BUILDERS[preset](N)
    walked = build_simulator(workload, config, compiled=True)
    before = _walk_calls()
    del transitions[:]  # sw-profile's profiling pass walks at construction
    walked.functional_warmup(config.functional_warmup_blocks)
    if cc.compiled_enabled():
        assert _walk_calls() - before == 1 and not transitions
    oracle = build_simulator(workload, config, compiled=False)
    oracle.functional_warmup(config.functional_warmup_blocks)
    assert transitions
    assert _walk_state(walked) == _walk_state(oracle)
    walked.run()
    oracle.run()
    assert _walk_state(walked) == _walk_state(oracle)
    # A warming fast-forward after the warmup is one more walk-kernel call,
    # with no Python oracle transition either, and replays the data side.
    forwarded = build_simulator(workload, config, compiled=True)
    forwarded.functional_warmup(config.functional_warmup_blocks)
    del transitions[:]
    before = _walk_calls()
    _, instructions = forwarded.fast_forward_to(forwarded.oracle.instrs_walked + 20_000)
    if cc.compiled_enabled():
        assert _walk_calls() - before == 1 and not transitions
    assert instructions >= 20_000 and forwarded.counters["l1d_accesses"] > 0


@pytest.mark.parametrize("preset", ["udp", "infinite-storage", "miss-heavy"])
def test_fast_forward_matches_object_walk(preset):
    """Warming fast-forwards; chained hops land where one jump does."""
    config = PRESET_BUILDERS[preset](N)

    def forwarded(compiled: bool, hops) -> Simulator:
        sim = build_simulator("verilator", config, compiled=compiled)
        sim.functional_warmup(config.functional_warmup_blocks)
        start = sim.oracle.instrs_walked
        for hop in hops:
            sim.fast_forward_to(start + hop)
        return sim

    before = _walk_calls()
    direct = forwarded(True, [6_000])
    if cc.compiled_enabled():
        assert _walk_calls() - before == 2
    chained = forwarded(True, [1_000, 2_500, 2_500, 6_000])
    oracle = forwarded(False, [6_000])
    counters = direct.counters
    assert counters["sampling_ff_instructions"] >= 6_000
    assert counters["l1d_accesses"] > 0  # the warmup replays no data; this does
    assert _walk_state(direct) == _walk_state(oracle)
    assert _walk_state(chained) == _walk_state(direct)
    direct.run()
    oracle.run()
    assert _walk_state(direct) == _walk_state(oracle)


@needs_compiler
@pytest.mark.parametrize("workload", ["gcc", "xgboost"])
def test_the_c_walk_counts_in_the_oracles_own_array(workload, monkeypatch):
    # C counts branch occurrences in place in the oracle's per-block array:
    # with the exit's write-back skipped, occurrence_of still reads every
    # count the C walk made, and they equal the Python walk's.
    config = baseline_config(N)
    oracle = build_simulator(workload, config, compiled=False)
    oracle.functional_warmup(config.functional_warmup_blocks)
    walked = build_simulator(workload, config, compiled=True)
    monkeypatch.setattr(driver_mod._Machine, "_sync", lambda self, sim: None)
    before = _walk_calls()
    walked.functional_warmup(config.functional_warmup_blocks)
    assert _walk_calls() - before == 1
    assert walked.oracle.blocks_walked == 0  # the position was not written back
    branches = [b.branch.pc for b in walked.program.blocks if b.branch is not None]
    counts = [walked.oracle.occurrence_of(pc) for pc in branches]
    assert counts == [oracle.oracle.occurrence_of(pc) for pc in branches]
    assert sum(counts) > 0


def _deep_call_chain(depth: int = 300):
    """Calls nested deeper than the oracle's 256-entry call stack, with
    loads and stores on the way back up."""
    b = ProgramBuilder()
    head = b.label("head")
    funcs = [b.label(f"f{i}") for i in range(depth)]
    b.place(head)
    b.set_entry()
    b.call(2, target=funcs[0])
    b.block(2, jump_to=head)
    for i, label in enumerate(funcs):
        b.place(label)
        if i + 1 < depth:
            b.call(3, target=funcs[i + 1], ops=bytes([OP_LOAD, OP_STORE, 0]))
        b.ret(3, ops=bytes([OP_STORE, OP_LOAD, 0]))
    return b.finish()


WALK_PROGRAMS = {
    name: PROGRAMS[name] for name in ("behaviour_zoo", "phased")
} | {"deep_call_chain": _deep_call_chain}


@pytest.mark.parametrize("name", [*sorted(WALK_PROGRAMS), "custom_behaviour"])
def test_handcrafted_programs_walk_like_the_object_path(name, transitions):
    if name == "custom_behaviour":
        # Rejected at construction, so there is no walk, in C or in Python.
        with pytest.raises(ProgramError):
            _custom_program()
        return
    program = WALK_PROGRAMS[name]()
    # UDP on, so the useful-set learns every walked line both ways.  The
    # deep chain's warmup stops 280 calls down, its stack capped at 256;
    # the fast-forward then returns through it and on, to the entry.
    blocks = 280 if name == "deep_call_chain" else 1_500
    config = SimConfig(max_instructions=3_000, functional_warmup_blocks=blocks)
    config = config.replace(udp=dataclasses.replace(config.udp, enabled=True))
    sims = []
    for compiled in (True, False):
        before = _walk_calls()
        del transitions[:]
        sim = Simulator(program, config, compiled=compiled)
        sim.functional_warmup(blocks)
        if name == "deep_call_chain":
            assert len(sim.oracle.call_stack) == sim.oracle.max_stack
        sim.fast_forward_to(sim.oracle.instrs_walked + 4_000)
        if compiled and cc.compiled_enabled():
            assert _walk_calls() - before == 2 and not transitions
        sims.append(sim)
    walked, oracle = sims
    assert _walk_state(walked) == _walk_state(oracle)
    walked.run()
    oracle.run()
    assert _walk_state(walked) == _walk_state(oracle)


@needs_compiler
def test_a_hook_attached_after_the_walk_gets_the_python_stepper(monkeypatch):
    """The walks leave nothing in C, and a hook then needs the Python
    stepper: the object simulator narrates its run, the compiled one
    raises before its first cycle, naming compiled=False."""
    steps = []
    python_step = Simulator.step

    def counting_step(self):
        steps.append(1)
        python_step(self)

    monkeypatch.setattr(Simulator, "step", counting_step)
    config = udp_config(2_000)
    sims = []
    for compiled in (True, False):
        before = (_walk_calls(), _driver_calls())
        sim = build_simulator("gcc", config, compiled=compiled)
        sim.functional_warmup(config.functional_warmup_blocks)
        sim.fast_forward_to(sim.oracle.instrs_walked + 1_000)
        sims.append(sim)
        events = []
        sim.counters.hook = lambda name, amount: events.append(name)
        if compiled:
            with pytest.raises(SimulationError, match="counter hook.*compiled=False"):
                sim.run()
            assert not events and not steps and sim.cycle == 0
        else:
            sim.run()
            assert events and steps
        assert (_walk_calls() - before[0], _driver_calls() - before[1]) == (
            (2, 0) if compiled else (0, 0)
        )
        assert sim._driver is None
    walked, oracle = sims
    walked.counters.hook = None
    walked.run()
    assert _walk_state(walked) == _walk_state(oracle)


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "object"])
def test_a_walk_from_inside_a_block_raises_the_oracles_error(compiled):
    sim = build_simulator("gcc", baseline_config(N), compiled=compiled)
    sim.oracle.pc += 4
    with pytest.raises(SimulationError, match=r"oracle pc 0x[0-9a-f]+ is not a block start"):
        sim.functional_warmup(100)
    assert sim.oracle.blocks_walked == 0


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "object"])
@pytest.mark.parametrize("first", ["warmup", "restore", "fast-forward"])
def test_a_second_functional_warmup_is_an_error(first, compiled):
    """A warmup after a warmup, a restore or a fast-forward would overwrite
    the baseline and the walked counts; nothing is walked instead."""
    config = baseline_config(N)
    sim = build_simulator("gcc", config, compiled=compiled)
    if first == "warmup":
        sim.functional_warmup(1_000)
    elif first == "restore":
        donor = build_simulator("gcc", config, compiled=compiled)
        donor.functional_warmup(1_000)
        ckpt.restore_warmup(sim, ckpt.capture_warmup(donor))
    else:
        sim.fast_forward_to(5_000)
    before = _walk_state(sim)
    with pytest.raises(SimulationError, match="already warmed"):
        sim.functional_warmup(1_000)
    assert _walk_state(sim) == before
    if first == "fast-forward":
        assert sim.measured_counters()["sampling_ff_instructions"] >= 5_000
    else:
        assert sim.measured_counters()["warmup_blocks"] == 1_000


# -- the presets the driver gained: UFTQ, the two-level BTB, the loop predictor --

# Each with a workload and a length where its own work counter moves
# (checked on the object path, so no case passes vacuously): the loop
# predictor needs three equal trips before it overrides TAGE.
NEW_PRESETS = {
    "uftq-aur": ("xgboost", "uftq_adjustments", N),
    "uftq-atr": ("xgboost", "uftq_adjustments", N),
    "uftq-atr-aur": ("xgboost", "uftq_adjustments", N),
    "two-level-btb": ("xgboost", "btb_promotions", N),
    "loop-predictor": ("mediawiki", "bpu_loop_overrides", 12_000),
}


def _own_work(sim: Simulator, name: str) -> int:
    if name == "btb_promotions":
        return sim.bpu.btb.promotions
    return sim.counters.snapshot().get(name, 0)


def _component_state(sim: Simulator) -> tuple:
    """The new components' own state: UFTQ's search, the loop table, the
    BTB levels and promotions."""
    uftq = sim.uftq
    btb = sim.bpu.btb
    loop = sim.bpu.loop
    return (
        sim.ftq.depth,
        None if uftq is None else (
            uftq.phase, uftq.qd_aur, uftq.qd_atr, uftq.adjustments,
            (uftq._utility.positive, uftq._utility.total),
            (uftq._timeliness.positive, uftq._timeliness.total),
        ),
        None if loop is None else (loop.state(), loop.overrides, loop.correct_overrides),
        btb.state(),
        getattr(btb, "promotions", None),
    )


def _new_preset_run(preset: str, compiled: bool, exit: str) -> Simulator:
    workload, _, length = NEW_PRESETS[preset]
    config = PRESET_BUILDERS[preset](length)
    if exit == "cycle-limit":
        config = config.replace(max_cycles=3_000)
    sim = build_simulator(workload, config, compiled=compiled)
    if exit == "cycle-limit":
        with pytest.raises(SimulationError, match="cycle limit 3000 hit"):
            sim.run()
    elif exit == "run-interval":
        sim.functional_warmup(config.functional_warmup_blocks)
        sim.fast_forward_to(sim.oracle.instrs_walked + 2_000)
        sim.run_interval(1_000, detailed_warmup=500)
        sim.run_interval(2_000)
    else:
        sim.run()
    return sim


@pytest.mark.parametrize("exit", ["target", "run-interval", "cycle-limit"])
@pytest.mark.parametrize("preset", sorted(NEW_PRESETS))
def test_new_presets_match_object_path_at_every_exit(preset, exit):
    before = _driver_calls()
    driven = _new_preset_run(preset, True, exit)
    calls = _driver_calls() - before
    oracle = _new_preset_run(preset, False, exit)
    if cc.compiled_enabled():
        expected = {"target": 1, "run-interval": 3, "cycle-limit": 1}
        assert calls == expected[exit]
        assert driven.steps_executed + driven.ff_cycles_skipped == driven.cycle
    if exit == "target":
        own = NEW_PRESETS[preset][1]
        assert _own_work(oracle, own) > 0, own
    assert _state(driven) == _state(oracle)
    assert _component_state(driven) == _component_state(oracle)


def _raise_boom_in_uftq(signum, frame):
    raise _Boom("from the SIGUSR1 handler")


@pytest.mark.parametrize("how", ["raise", "signal"])
@pytest.mark.parametrize("event,nth", [("utility", 1), ("utility", 300), ("timeliness", 50)])
def test_a_raising_uftq_callback_ends_the_run_with_its_exception(monkeypatch, event, nth, how):
    """UFTQ's feeds raise at the n-th call on both paths: the driver ends the
    run with the exception, after the write-back, at the same point."""
    calls = {"utility": 0, "timeliness": 0}
    feeds = {
        "utility": UFTQController.on_utility_event,
        "timeliness": UFTQController.on_timeliness_event,
    }

    def patched(kind):
        def feed(self, flag):
            calls[kind] += 1
            if kind == event and calls[kind] == nth:
                if how == "signal":
                    signal.raise_signal(signal.SIGUSR1)
                raise _Boom(f"{kind} call {nth}")
            return feeds[kind](self, flag)
        return feed

    for kind in feeds:
        monkeypatch.setattr(UFTQController, f"on_{kind}_event", patched(kind))
    previous = signal.signal(signal.SIGUSR1, _raise_boom_in_uftq)
    sims = []
    try:
        for compiled in (True, False):
            calls.update(utility=0, timeliness=0)
            sim = build_simulator("xgboost", PRESET_BUILDERS["uftq-atr-aur"](N), compiled=compiled)
            with pytest.raises(_Boom):
                sim.run()
            assert calls[event] == nth
            sims.append((sim, dict(calls)))
    finally:
        signal.signal(signal.SIGUSR1, previous)
    (driven, driven_calls), (oracle, oracle_calls) = sims
    assert driven_calls == oracle_calls
    assert _state(driven) == _state(oracle)
    assert _component_state(driven) == _component_state(oracle)


@needs_compiler
def test_the_default_cycle_limit_scales_with_the_run():
    """miss-heavy needs about 20 cycles per instruction: at 300k
    instructions it passes the old fixed 5M-cycle limit and still ends at
    its retire target."""
    config = miss_heavy_config(300_000)
    assert config.max_cycles is None
    sim = build_simulator("verilator", config, compiled=True)
    sim.run()
    assert sim.backend.retired_instructions >= 300_000
    assert 5_000_000 < sim.cycle < config.cycle_limit
