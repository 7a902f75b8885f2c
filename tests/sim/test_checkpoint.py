"""Warmup checkpoint + program store equivalence: byte-identical or bust.

Style of ``tests/sim/test_fastforward.py``: for every preset, a simulator
restored from a captured warmup snapshot must produce ``measured_counters()``
equal to one that ran the functional warmup itself, and a simulator built
from a pickled-and-rehydrated program must match one built from the
original.  Plus the failure modes: corrupt blobs, mismatched configs, and
the ``REPRO_NO_CHECKPOINT`` opt-out.
"""

import functools
import pickle

import numpy as np
import pytest

from repro.common import cc
from repro.sim import checkpoint as ckpt
from repro.sim.presets import PRESET_BUILDERS, baseline_config, miss_heavy_config
from repro.sim.simulator import Simulator
from repro.workloads import store as program_store
from repro.workloads.profiles import get_profile

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


def test_checkpoint_store_disk_roundtrip(tmp_path):
    store = ckpt.CheckpointStore(tmp_path / "ckpt")
    key = "f" * 64
    assert store.get(key) is None
    assert not store.exists(key)
    store.put(key, b"snapshot-bytes")
    assert store.exists(key)
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
def _donor_blob(compiled: bool) -> bytes:
    """The warmup checkpoint of a gcc donor (shared by the cases below)."""
    config = baseline_config(INSTRUCTIONS, SEED)
    donor = Simulator(
        program_store.program_for("gcc", SEED),
        config,
        data_profile=get_profile("gcc").data,
        compiled=compiled,
    )
    donor.functional_warmup(config.functional_warmup_blocks)
    return ckpt.capture_warmup(donor)


def _donor_state(compiled: bool) -> tuple:
    """(program, config, a fresh unpickled copy of the donor's state)."""
    if compiled and cc.kernels() is None:
        pytest.skip("no C compiler on this host")
    program = program_store.program_for("gcc", SEED)
    config = baseline_config(INSTRUCTIONS, SEED)
    return program, config, pickle.loads(_donor_blob(compiled))


def _assert_rejected(program, config, state, compiled: bool) -> None:
    """Restoring ``state`` fails validation: a ValueError, never an IndexError."""
    target = Simulator(
        program, config, data_profile=get_profile("gcc").data, compiled=compiled
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


def test_schema_3_blob_is_a_miss_that_rewarms():
    # A snapshot written before the packed-BTB format (schema 3) stored
    # under the current key must be treated as a miss: the engine re-warms,
    # overwrites the entry and reports the same counters as a clean run.
    from repro.sim import engine

    spec = engine.spec_for("gcc", baseline_config(INSTRUCTIONS, SEED), SEED, "s3")
    clean = engine.run_batch([spec], jobs=1, no_cache=True)[0]
    key = engine._checkpoint_key_for(spec)
    store = ckpt.CheckpointStore()
    state = pickle.loads(store.get(key))
    state["schema"] = 3
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
