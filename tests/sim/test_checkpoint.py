"""Warmup checkpoint + program store equivalence: byte-identical or bust.

Style of ``tests/sim/test_fastforward.py``: for every preset, a simulator
restored from a captured warmup snapshot must produce ``measured_counters()``
equal to one that ran the functional warmup itself, and a simulator built
from a pickled-and-rehydrated program must match one built from the
original.  Plus the failure modes: corrupt blobs, mismatched configs, and
the ``REPRO_NO_CHECKPOINT`` opt-out.
"""

import functools
import gc
import pickle

import numpy as np
import pytest

from repro.common import cc
from repro.sim import checkpoint as ckpt
from repro.sim.presets import PRESET_BUILDERS, baseline_config, miss_heavy_config
from repro.sim.simulator import Simulator
from repro.workloads import store as program_store
from repro.workloads.behavior import (
    AlwaysTaken,
    BiasedBehavior,
    DirectionBehavior,
    FixedTarget,
    LoopBehavior,
    PatternBehavior,
    PhasedBehavior,
    RotatingTargets,
    TargetBehavior,
    WeightedTargets,
    ZipfTargets,
)
from repro.workloads.builder import ProgramBuilder
from repro.workloads.phases import make_phased_program, phase_summary
from repro.workloads.profiles import SUITE, get_profile
from repro.workloads.program import OP_ALU, OP_LOAD, OP_STORE

INSTRUCTIONS = 3_000
SEED = 1


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CHECKPOINT", raising=False)


def _scratch_and_restored(workload: str, config) -> tuple[dict, dict]:
    """Counters from a from-scratch run and from a capture/restore run."""
    prof = get_profile(workload)
    program = program_store.program_for(workload, SEED)

    scratch = Simulator(program, config, data_profile=prof.data)
    scratch.functional_warmup(config.functional_warmup_blocks)
    blob = ckpt.capture_warmup(scratch)
    scratch.run()

    restored = Simulator(program, config, data_profile=prof.data)
    ckpt.restore_warmup(restored, blob)
    restored.run()
    return scratch.measured_counters(), restored.measured_counters()


@pytest.mark.parametrize("preset", sorted(PRESET_BUILDERS))
def test_restore_matches_scratch_per_preset(preset):
    config = PRESET_BUILDERS[preset](INSTRUCTIONS, SEED)
    scratch, restored = _scratch_and_restored("gcc", config)
    assert scratch == restored


@pytest.mark.parametrize("workload", ["verilator", "xgboost"])
def test_restore_matches_scratch_miss_heavy_stress(workload):
    scratch, restored = _scratch_and_restored(
        workload, miss_heavy_config(4_000, SEED)
    )
    assert scratch == restored


def test_restored_state_is_independent_of_the_donor():
    """Running the donor must not bleed into a later restore of its blob."""
    config = PRESET_BUILDERS["udp"](INSTRUCTIONS, SEED)
    prof = get_profile("gcc")
    program = program_store.program_for("gcc", SEED)

    donor = Simulator(program, config, data_profile=prof.data)
    donor.functional_warmup(config.functional_warmup_blocks)
    blob = ckpt.capture_warmup(donor)
    donor.run()  # mutates the donor's live structures after capture

    first = Simulator(program, config, data_profile=prof.data)
    ckpt.restore_warmup(first, blob)
    first.run()
    second = Simulator(program, config, data_profile=prof.data)
    ckpt.restore_warmup(second, blob)
    second.run()
    assert donor.measured_counters() == first.measured_counters()
    assert first.measured_counters() == second.measured_counters()


def test_program_pickle_roundtrip_is_byte_identical():
    config = baseline_config(INSTRUCTIONS, SEED)
    prof = get_profile("gcc")
    original = program_store.program_for("gcc", SEED)
    rehydrated = pickle.loads(pickle.dumps(original, pickle.HIGHEST_PROTOCOL))

    a = Simulator(original, config, data_profile=prof.data)
    a.run()
    b = Simulator(rehydrated, config, data_profile=prof.data)
    b.run()
    assert a.measured_counters() == b.measured_counters()


def test_program_store_disk_hydration_matches_build(tmp_path):
    store = program_store.ProgramStore(tmp_path / "programs")
    built = program_store.program_for("mysql", SEED)
    store.store("mysql", SEED, built)
    loaded = store.load("mysql", SEED)
    assert loaded is not built

    config = baseline_config(INSTRUCTIONS, SEED)
    prof = get_profile("mysql")
    a = Simulator(built, config, data_profile=prof.data)
    a.run()
    b = Simulator(loaded, config, data_profile=prof.data)
    b.run()
    assert a.measured_counters() == b.measured_counters()


def test_program_store_corrupt_pickle_is_a_miss(tmp_path):
    store = program_store.ProgramStore(tmp_path / "programs")
    path = store.path_for("gcc", SEED)
    path.parent.mkdir(parents=True)
    path.write_bytes(b"not a pickle")
    assert store.load("gcc", SEED) is None


def _every_behaviour_program():
    """A builder program with one branch per behaviour class, calls and ops."""
    b = ProgramBuilder(base=0x2_0000)
    head, func = b.label("head"), b.label("func")
    cases = [b.label(f"case{i}") for i in range(4)]
    b.place(head)
    b.set_entry()
    ops = bytes([OP_LOAD, OP_STORE, OP_ALU])
    for direction in (
        AlwaysTaken(),
        BiasedBehavior(7, 0.3),
        LoopBehavior(5),
        PatternBehavior(3, 0b1011, 4, noise=0.1),
        PhasedBehavior(LoopBehavior(3), BiasedBehavior(9, 0.5), 100),
    ):
        b.cond_branch(3, target=head, behavior=direction, ops=ops)
    b.call(2, target=func)
    for selector in (FixedTarget(1), WeightedTargets(11, 0.7), ZipfTargets(13, 1.2)):
        b.indirect(2, targets=list(cases), behavior=selector)
    b.indirect(2, targets=list(cases), behavior=RotatingTargets(), call=True)
    for case in cases:
        b.place(case)
        b.block(2, jump_to=head)
    b.place(func)
    b.block(4, ops=bytes([OP_LOAD] * 4))
    b.ret(2)
    return b.finish()


def _assert_same_program(loaded, original) -> None:
    """Field for field: layout, entry, every block and its branch."""
    assert loaded is not original
    assert loaded.entry == original.entry
    assert loaded._starts == original._starts
    assert (loaded.code_start, loaded.code_end) == (original.code_start, original.code_end)
    assert len(loaded.blocks) == len(original.blocks)
    for got, want in zip(loaded.blocks, original.blocks):
        assert (got.addr, got.num_instrs, got.ops, got.index) == (
            want.addr, want.num_instrs, want.ops, want.index
        )
        # Dataclass equality: pc, kind, targets and the behaviours, which
        # compare by class and value.
        assert got.branch == want.branch


def _store_and_load(tmp_path, name: str, program):
    store = program_store.ProgramStore(tmp_path / "programs")
    store.store(name, SEED, program)
    return store.load(name, SEED)


@pytest.mark.parametrize("workload", [profile.name for profile in SUITE])
def test_program_store_round_trips_every_suite_program(tmp_path, workload):
    program = program_store.program_for(workload, SEED)
    _assert_same_program(_store_and_load(tmp_path, workload, program), program)


def test_program_store_round_trips_builder_and_phased_programs(tmp_path):
    program = _every_behaviour_program()
    behaviours = {
        type(behaviour)
        for block in program.blocks
        if block.branch is not None
        for behaviour in (block.branch.direction, block.branch.target_behavior)
        if behaviour is not None
    }
    assert behaviours == {
        cls
        for cls in (*DirectionBehavior.__subclasses__(), *TargetBehavior.__subclasses__())
        if cls.__module__ == "repro.workloads.behavior"  # not the tests' own
    }
    _assert_same_program(_store_and_load(tmp_path, "gcc", program), program)
    phased = make_phased_program(get_profile("mediawiki"), SEED)
    assert phase_summary(phased)["phased_conditionals"] > 0
    _assert_same_program(_store_and_load(tmp_path, "mediawiki", phased), phased)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_program_store_load_keeps_the_callers_gc_state(tmp_path, enabled):
    store = program_store.ProgramStore(tmp_path / "programs")
    store.store("mediawiki", SEED, program_store.program_for("mediawiki", SEED))
    corrupt = store.path_for("gcc", SEED)
    corrupt.parent.mkdir(parents=True, exist_ok=True)
    corrupt.write_bytes(b"not a pickle")
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert store.load("mediawiki", SEED) is not None
        assert gc.isenabled() is enabled
        assert store.load("gcc", SEED) is None  # still a miss
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_checkpoint_store_disk_roundtrip(tmp_path):
    store = ckpt.CheckpointStore(tmp_path / "ckpt")
    key = "f" * 64
    assert store.get(key) is None
    assert not store.path_for(key).is_file()
    store.put(key, b"snapshot-bytes")
    assert store.path_for(key).is_file()
    assert store.get(key) == b"snapshot-bytes"
    # And via a fresh store instance with the blob memo cleared (pure disk).
    ckpt._BLOB_MEMO.clear()
    assert ckpt.CheckpointStore(tmp_path / "ckpt").get(key) == b"snapshot-bytes"


def test_restore_rejects_corrupt_blob():
    config = baseline_config(INSTRUCTIONS, SEED)
    prof = get_profile("gcc")
    sim = Simulator(
        program_store.program_for("gcc", SEED), config, data_profile=prof.data
    )
    with pytest.raises(ckpt.CheckpointError):
        ckpt.restore_warmup(sim, b"garbage")


def test_restore_rejects_wrong_geometry():
    prof = get_profile("gcc")
    program = program_store.program_for("gcc", SEED)
    small = baseline_config(INSTRUCTIONS, SEED)
    donor = Simulator(program, small, data_profile=prof.data)
    donor.functional_warmup(small.functional_warmup_blocks)
    blob = ckpt.capture_warmup(donor)

    grown = small.with_l1i_size(small.memory.l1i.size_bytes * 2)
    target = Simulator(program, grown, data_profile=prof.data)
    with pytest.raises(ckpt.CheckpointError):
        ckpt.restore_warmup(target, blob)


def _modes() -> list[bool]:
    """The object structures always; the compiled ones where kernels build."""
    return [False] + ([True] if cc.kernels() is not None else [])


@functools.lru_cache(maxsize=None)
def _donor_blob(compiled: bool, workload: str, preset: str) -> bytes:
    """The checkpoint of a donor past its warmup and a fast-forward, so the
    data side holds state too (shared by the cases below)."""
    config = PRESET_BUILDERS[preset](INSTRUCTIONS, SEED)
    donor = Simulator(
        program_store.program_for(workload, SEED),
        config,
        data_profile=get_profile(workload).data,
        compiled=compiled,
    )
    donor.functional_warmup(config.functional_warmup_blocks)
    donor.fast_forward_to(donor.oracle.instrs_walked + 2_000)
    return ckpt.capture_warmup(donor)


def _donor_state(compiled: bool, workload: str = "gcc", preset: str = "baseline") -> tuple:
    """(program, config, a fresh unpickled copy of the donor's state)."""
    if compiled and cc.kernels() is None:
        pytest.skip("no C compiler on this host")
    program = program_store.program_for(workload, SEED)
    config = PRESET_BUILDERS[preset](INSTRUCTIONS, SEED)
    return program, config, pickle.loads(_donor_blob(compiled, workload, preset))


def _assert_rejected(program, config, state, compiled: bool, workload: str = "gcc") -> None:
    """Restoring ``state`` fails validation: a ValueError, never an IndexError."""
    target = Simulator(
        program, config, data_profile=get_profile(workload).data, compiled=compiled
    )
    with pytest.raises(ckpt.CheckpointError) as info:
        ckpt.restore_warmup(target, pickle.dumps(state))
    assert type(info.value.__cause__) is ValueError


def test_restore_rejects_overfull_btb_set():
    for compiled in _modes():
        program, config, state = _donor_state(compiled)
        counts = np.frombuffer(state["btb"]["counts"], dtype=np.uint16).copy()
        counts[0] = config.branch.btb_assoc + 1
        state["btb"]["counts"] = counts.tobytes()
        _assert_rejected(program, config, state, compiled)


@pytest.mark.parametrize("compiled", [False, True], ids=["object", "compiled"])
@pytest.mark.parametrize(
    "part,plane",
    [
        ("btb", "counts"),
        ("btb", "pcs"),
        ("btb", "kinds"),
        ("btb", "targets"),
        ("ibtb", "counts"),
        ("ibtb", "tags"),
        ("ibtb", "targets"),
    ],
)
def test_restore_rejects_malformed_packed_btb(part, plane, compiled):
    # A counts buffer of the wrong length, or a plane whose length is not
    # sum(counts): a CheckpointError, never an IndexError from the scatter.
    program, config, state = _donor_state(compiled)
    buffer = state[part][plane]
    width = 2 if plane == "counts" else np.dtype(
        "uint8" if plane == "kinds" else "int64"
    ).itemsize
    state[part][plane] = buffer[:-width]
    _assert_rejected(program, config, state, compiled)


@pytest.mark.parametrize("compiled", [False, True], ids=["object", "compiled"])
@pytest.mark.parametrize("change", [-8, 8], ids=["short", "long"])
def test_restore_rejects_a_wrong_length_occurrence_buffer(change, compiled):
    # The oracle's occurrence counts are one int64 per program block.
    program, config, state = _donor_state(compiled)
    occurrences = state["oracle"]["occurrences"]
    assert len(occurrences) == 8 * program.num_blocks
    state["oracle"]["occurrences"] = (
        occurrences[:change] if change < 0 else occurrences + bytes(change)
    )
    _assert_rejected(program, config, state, compiled)


# State the compiled driver would trust, each out of what its fixed buffer
# or byte map holds: (preset, damage(state, program)).
_OUT_OF_RANGE = {
    "ras-stack": (
        "udp",
        lambda state, program: state["ras"].update(stack=[program.entry] * 256),
    ),
    "oracle-call-stack": (
        "udp",
        lambda state, program: state["oracle"].update(call_stack=[program.entry] * 10_000),
    ),
    "coalescer": (
        "udp",
        lambda state, program: state["useful_set"].update(
            coalescer=[program.code_start + 64 * i for i in range(100)]
        ),
    ),
    "exact-line": (
        "infinite-storage",
        lambda state, program: state["useful_set"]["exact"].append(program.code_end + 64),
    ),
}


@pytest.mark.parametrize("compiled", [False, True], ids=["object", "compiled"])
@pytest.mark.parametrize("case", sorted(_OUT_OF_RANGE))
def test_restore_rejects_state_out_of_range(case, compiled):
    # A 256-entry RAS (32 ways), a 10,000-deep oracle call stack (256), a
    # 100-line coalescer (8) and an exact-set line outside the code lines:
    # a CheckpointError at load in both modes, never a failure at the first
    # run (compiled) or a structure running over capacity (object).
    preset, damage = _OUT_OF_RANGE[case]
    program, config, state = _donor_state(compiled, "mediawiki", preset)
    damage(state, program)
    _assert_rejected(program, config, state, compiled, "mediawiki")


def test_an_out_of_range_checkpoint_on_disk_is_rewarmed():
    # Like a corrupt blob (tests/sim/test_engine.py), a stored checkpoint
    # holding state out of range is a miss: re-warmed and overwritten.
    from repro.sim import engine

    config = PRESET_BUILDERS["udp"](INSTRUCTIONS, SEED)
    spec = engine.spec_for("mediawiki", config, SEED, "udp")
    clean = engine.run_batch([spec], jobs=1, no_cache=True)[0]
    key = engine._checkpoint_key_for(spec)
    store = ckpt.CheckpointStore()
    state = pickle.loads(store.get(key))
    state["ras"]["stack"] = [0x1000] * 256
    store.path_for(key).write_bytes(pickle.dumps(state))
    ckpt._BLOB_MEMO.clear()
    stats = engine.BatchStats()
    again = engine.run_batch([spec], jobs=1, no_cache=True, progress=stats)[0]
    assert stats.checkpoint_creates == 1 and stats.checkpoint_restores == 0
    assert again.counters == clean.counters
    ckpt._BLOB_MEMO.clear()
    assert len(pickle.loads(store.get(key))["ras"]["stack"]) <= config.branch.ras_entries


# One malformed part per component: (preset, key, damage(part)).
_MALFORMED_PARTS = {
    "oracle-pc": ("baseline", "oracle", lambda part: {**part, "pc": part["pc"] + 4}),
    "oracle-occurrences": (
        "baseline",
        "oracle",
        lambda part: {**part, "occurrences": part["occurrences"][:-8]},
    ),
    "history": ("baseline", "history", lambda part: (part[0], part[1][:-1])),
    "tage-base": ("baseline", "tage", lambda part: {**part, "base": part["base"][:-1]}),
    "ras": ("baseline", "ras", lambda part: {**part, "stack": [0x1000] * 33}),
    "stream": ("baseline", "stream", lambda part: {**part, "streams": [(0, 1, 0, 0)] * 17}),
    "data-gen": ("baseline", "data_gen", lambda part: {**part, "counts": part["counts"][:-8]}),
    "coalescer": (
        "udp",
        "useful_set",
        lambda part: {**part, "coalescer": list(range(0, 64 * 9, 64))},
    ),
    "bloom": (
        "udp",
        "useful_set",
        lambda part: {**part, "filters": {**part["filters"], 4: (b"", 0)}},
    ),
    "counters": ("baseline", "counters", lambda part: {**part, "cycles": "many"}),
}


@pytest.mark.parametrize("compiled", [False, True], ids=["object", "compiled"])
@pytest.mark.parametrize("case", sorted(_MALFORMED_PARTS))
def test_load_state_validates_before_changing_anything(case, compiled):
    # Each component's load_state raises ValueError on a malformed part and
    # leaves the component as it was (here a pristine simulator's).
    preset, key, damage = _MALFORMED_PARTS[case]
    program, config, state = _donor_state(compiled, "mediawiki", preset)
    target = Simulator(
        program, config, data_profile=get_profile("mediawiki").data, compiled=compiled
    )
    component = ckpt._components(target)[key]
    before = component.state()
    assert state[key] != before
    with pytest.raises(ValueError):
        component.load_state(damage(state[key]))
    assert component.state() == before


def test_schema_3_blob_is_a_miss_that_rewarms():
    # A snapshot written in an older format -- before the packed-BTB form
    # (schema 3), or with the oracle's occurrences as a {pc: count} dict
    # (schema 4) -- stored under the current key must be treated as a miss:
    # the engine re-warms, overwrites the entry and reports the same
    # counters as a clean run.
    from repro.sim import engine

    spec = engine.spec_for("gcc", baseline_config(INSTRUCTIONS, SEED), SEED, "s3")
    clean = engine.run_batch([spec], jobs=1, no_cache=True)[0]
    key = engine._checkpoint_key_for(spec)
    store = ckpt.CheckpointStore()
    for schema in (3, 4):
        state = pickle.loads(store.get(key))
        state["schema"] = schema
        store.put(key, pickle.dumps(state))
        stats = engine.BatchStats()
        again = engine.run_batch([spec], jobs=1, no_cache=True, progress=stats)[0]
        assert stats.checkpoint_creates == 1 and stats.checkpoint_restores == 0
        assert again.counters == clean.counters
        assert pickle.loads(store.get(key))["schema"] == ckpt.CHECKPOINT_SCHEMA


def test_capture_requires_warmed_restore_requires_pristine():
    config = baseline_config(INSTRUCTIONS, SEED)
    prof = get_profile("gcc")
    program = program_store.program_for("gcc", SEED)

    pristine = Simulator(program, config, data_profile=prof.data)
    with pytest.raises(ckpt.CheckpointError):
        ckpt.capture_warmup(pristine)

    warmed = Simulator(program, config, data_profile=prof.data)
    warmed.functional_warmup(config.functional_warmup_blocks)
    blob = ckpt.capture_warmup(warmed)
    with pytest.raises(ckpt.CheckpointError):
        ckpt.restore_warmup(warmed, blob)  # already warmed


def test_no_checkpoint_env_disables_reuse(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CHECKPOINT", "1")
    assert not ckpt.checkpointing_enabled()
    program_store.clear_memo()
    program, source = program_store.get_program("gcc", SEED)
    assert source == "built"
    # Nothing was persisted: a fresh store sees no entry.
    assert program_store.ProgramStore().stats() == (0, 0)


def test_get_program_source_progression(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "fresh"))
    program_store.clear_memo()
    _, first = program_store.get_program("gcc", SEED)
    assert first == "built"
    _, second = program_store.get_program("gcc", SEED)
    assert second == "memo"
    program_store.clear_memo()
    _, third = program_store.get_program("gcc", SEED)
    assert third == "disk"
