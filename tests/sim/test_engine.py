"""Parallel experiment engine: pool determinism, disk cache, progress.

The autouse fixture pins ``REPRO_JOBS=2`` for this module so the tier-1
pytest invocation always exercises the process-pool path, and isolates the
disk cache in a per-test temporary directory.
"""

import dataclasses
import json

import pytest

from repro.sim import engine
from repro.sim.engine import BatchStats, ResultCache, RunSpec, run_batch, spec_for
from repro.sim.metrics import SimResult
from repro.sim.presets import baseline_config
from repro.sim.profile import build_simulator
from repro.workloads import micro

FAST = baseline_config(max_instructions=2_000).replace(
    functional_warmup_blocks=800
)


@pytest.fixture(autouse=True)
def _engine_env(monkeypatch, tmp_path):
    monkeypatch.setenv(engine.JOBS_ENV, "2")
    monkeypatch.setenv(engine.CACHE_DIR_ENV, str(tmp_path / "cache"))
    monkeypatch.delenv(engine.NO_CACHE_ENV, raising=False)
    monkeypatch.delenv("REPRO_NO_CHECKPOINT", raising=False)


def _specs():
    return [
        spec_for("mediawiki", FAST.with_ftq_depth(16), 1, "ftq16"),
        spec_for("mediawiki", FAST.with_ftq_depth(32), 1, "ftq32"),
        spec_for("mediawiki", FAST.with_ftq_depth(16), 2, "ftq16-s2"),
    ]


def _serialized(results):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]


def test_runspec_is_frozen():
    spec = _specs()[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.seed = 3


def test_resolve_jobs_env_and_override(monkeypatch):
    assert engine.resolve_jobs() == 2  # from REPRO_JOBS in the fixture
    assert engine.resolve_jobs(5) == 5
    # Nonsense worker counts must be rejected loudly, naming their source,
    # instead of reaching ProcessPoolExecutor.
    with pytest.raises(ValueError, match="jobs argument"):
        engine.resolve_jobs(0)
    with pytest.raises(ValueError, match="must be >= 1"):
        engine.resolve_jobs(-3)
    monkeypatch.setenv(engine.JOBS_ENV, "0")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        engine.resolve_jobs()
    monkeypatch.setenv(engine.JOBS_ENV, "not-a-number")
    with pytest.raises(ValueError, match="must be an integer"):
        engine.resolve_jobs()
    monkeypatch.setenv(engine.JOBS_ENV, "")
    assert engine.resolve_jobs() >= 1  # empty env falls back to cpu_count


def test_pool_matches_in_process_byte_identical():
    serial = run_batch(_specs(), jobs=1, no_cache=True)
    pooled = run_batch(_specs(), jobs=2, no_cache=True)
    assert _serialized(serial) == _serialized(pooled)


def test_results_follow_spec_order():
    results = run_batch(_specs(), jobs=2, no_cache=True)
    assert [r.config_name for r in results] == ["ftq16", "ftq32", "ftq16-s2"]
    assert all(r.workload == "mediawiki" for r in results)
    assert results[0].ipc > 0


def test_warm_cache_rerun_simulates_nothing(tmp_path):
    cache = ResultCache(tmp_path / "explicit")
    cold = BatchStats()
    first = run_batch(_specs(), cache=cache, progress=cold)
    assert cold.simulated == 3 and cold.cache_hits == 0
    warm = BatchStats()
    second = run_batch(_specs(), cache=cache, progress=warm)
    assert warm.simulated == 0 and warm.cache_hits == 3
    assert _serialized(first) == _serialized(second)


def test_corrupted_cache_file_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "corrupt")
    spec = _specs()[0]
    run_batch([spec], cache=cache)
    path = cache.path_for(spec)
    assert path.is_file()
    path.write_text("{ not json !!", encoding="utf-8")
    assert cache.get(spec) is None
    stats = BatchStats()
    results = run_batch([spec], cache=cache, progress=stats)
    assert stats.simulated == 1 and stats.cache_hits == 0
    assert results[0].ipc > 0
    # The bad file was rewritten; the next read hits again.
    assert cache.get(spec) is not None


@pytest.mark.parametrize("payload", ["[]", "1", '"x"', "null"])
def test_cache_file_whose_json_is_not_an_object_is_a_miss(tmp_path, payload):
    cache = ResultCache(tmp_path / "not-an-object")
    spec = _specs()[0]
    path = cache.path_for(spec)
    path.parent.mkdir(parents=True)
    path.write_text(payload, encoding="utf-8")
    assert cache.get(spec) is None
    stats = BatchStats()
    (result,) = run_batch([spec], cache=cache, progress=stats)
    assert stats.simulated == 1 and stats.cache_hits == 0
    # Recomputed and overwritten: the file now holds the result.
    assert json.loads(path.read_text(encoding="utf-8"))["result"] == result.to_dict()
    assert cache.get(spec) is not None


def test_cache_hit_restamps_label(tmp_path):
    cache = ResultCache(tmp_path / "labels")
    spec = _specs()[0]
    run_batch([spec], cache=cache)
    relabeled = dataclasses.replace(spec, label="base-ftq16")
    stats = BatchStats()
    (result,) = run_batch([relabeled], cache=cache, progress=stats)
    assert stats.cache_hits == 1
    assert result.config_name == "base-ftq16"


def test_no_cache_env_disables_cache(monkeypatch, tmp_path):
    monkeypatch.setenv(engine.NO_CACHE_ENV, "1")
    cache = ResultCache(tmp_path / "disabled")
    run_batch([_specs()[0]], cache=cache)
    assert cache.info().entries == 0


def test_cache_info_and_clear(tmp_path):
    cache = ResultCache(tmp_path / "maint")
    run_batch(_specs()[:2], cache=cache)
    info = cache.info()
    assert info.entries == 2 and info.size_bytes > 0
    assert cache.clear() == 2
    assert cache.info().entries == 0


def test_explicit_program_specs_run_but_do_not_cache(tmp_path):
    cache = ResultCache(tmp_path / "programs")
    spec = RunSpec(
        workload="micro", config=FAST, label="loop",
        program=micro.mispredicting_loop(),
    )
    assert not spec.cacheable
    stats = BatchStats()
    (result,) = run_batch([spec], cache=cache, progress=stats)
    assert result.workload == "micro" and result.config_name == "loop"
    assert result.ipc > 0
    assert stats.simulated == 1
    assert cache.info().entries == 0


def test_run_batch_result_fields():
    (result,) = run_batch([spec_for("mediawiki", FAST, label="fast")])
    assert result.workload == "mediawiki"
    assert result.config_name == "fast"
    assert result.retired >= 2_000
    assert result.cycles > 0
    assert result.ipc > 0


def test_workload_profile_pins_load_dependence():
    # xgboost pins a high load-dependence fraction; it must not leak into
    # the caller's config object.
    config = baseline_config(max_instructions=2_000)
    run_batch([spec_for("xgboost", config)])
    assert config.core.load_dependence_fraction != 0.55


def test_build_simulator_matches_engine():
    # xgboost pins load_dependence_fraction (0.55 against the config's
    # 0.18): build_simulator must apply the engine's overlay, not its own.
    config = baseline_config(max_instructions=2_000)
    assert config.core.load_dependence_fraction != 0.55
    simulator = build_simulator("xgboost", config)
    simulator.run()
    (result,) = run_batch([spec_for("xgboost", config)], no_cache=True)
    assert simulator.measured_counters() == result.counters


def test_simresult_dict_round_trip():
    (result,) = run_batch([_specs()[0]], no_cache=True, jobs=1)
    clone = SimResult.from_dict(result.to_dict())
    assert clone == result
    assert clone.to_dict() == result.to_dict()
    with pytest.raises((KeyError, TypeError)):
        SimResult.from_dict({"workload": "x"})


def test_progress_events_are_complete():
    events = []
    run_batch(_specs(), jobs=2, no_cache=True, progress=events.append)
    assert len(events) == 3
    assert sorted(e.index for e in events) == [0, 1, 2]
    assert [e.completed for e in events] == [1, 2, 3]
    assert all(e.total == 3 and not e.cached and e.seconds >= 0 for e in events)


def test_default_progress_hook(tmp_path):
    stats = BatchStats()
    previous = engine.set_default_progress(stats)
    try:
        run_batch([_specs()[0]], no_cache=True, jobs=1)
    finally:
        engine.set_default_progress(previous)
    assert stats.runs == 1 and stats.simulated == 1
    assert "1 simulated" in stats.summary()


# ---------------------------------------------------------------------------
# Warmup checkpointing + program store (the sweep-reuse layers)
# ---------------------------------------------------------------------------


def test_serial_batch_creates_one_checkpoint_per_key():
    # _specs() spans two checkpoint keys: (mediawiki, seed 1) twice at
    # different FTQ depths (shared warmup), and (mediawiki, seed 2) once.
    stats = BatchStats()
    run_batch(_specs(), jobs=1, no_cache=True, progress=stats)
    assert stats.checkpoint_creates == 2
    assert stats.checkpoint_restores == 1
    rerun = BatchStats()
    run_batch(_specs(), jobs=1, no_cache=True, progress=rerun)
    assert rerun.checkpoint_creates == 0
    assert rerun.checkpoint_restores == 3
    assert "3 warmups restored" in rerun.summary()


def test_pooled_cold_batch_creates_one_checkpoint_per_key():
    # Pooled units that share a missing key may each walk the warmup and
    # write the same blob: every unit creates or restores, and one blob per
    # key lands on disk.
    from repro.sim import checkpoint as ckpt

    stats = BatchStats()
    pooled = run_batch(_specs(), jobs=2, no_cache=True, progress=stats)
    assert stats.checkpoint_creates + stats.checkpoint_restores == len(_specs())
    keys = {engine._checkpoint_key_for(spec) for spec in _specs()}
    store = ckpt.CheckpointStore()
    assert store.stats()[0] == len(keys) == 2
    assert all(store.path_for(key).is_file() for key in keys)
    serial = run_batch(_specs(), jobs=1, no_cache=True)
    assert _serialized(pooled) == _serialized(serial)


def test_checkpointed_batch_matches_no_checkpoint_batch(monkeypatch):
    checkpointed = run_batch(_specs(), jobs=1, no_cache=True)
    monkeypatch.setenv("REPRO_NO_CHECKPOINT", "1")
    stats = BatchStats()
    scratch = run_batch(_specs(), jobs=1, no_cache=True, progress=stats)
    assert stats.checkpoint_creates == 0 and stats.checkpoint_restores == 0
    assert _serialized(checkpointed) == _serialized(scratch)


def test_corrupt_checkpoint_file_falls_back_to_scratch():
    from repro.sim import checkpoint as ckpt

    spec = _specs()[0]
    reference = run_batch([spec], jobs=1, no_cache=True)
    key = engine._checkpoint_key_for(spec)
    store = ckpt.CheckpointStore()
    assert store.path_for(key).is_file()
    store.path_for(key).write_bytes(b"corrupt snapshot")
    ckpt._BLOB_MEMO.clear()
    stats = BatchStats()
    rerun = run_batch([spec], jobs=1, no_cache=True, progress=stats)
    assert stats.checkpoint_creates == 1  # rebuilt and re-persisted
    assert _serialized(reference) == _serialized(rerun)
    ckpt._BLOB_MEMO.clear()
    assert store.get(key) != b"corrupt snapshot"


def test_progress_events_carry_reuse_metadata():
    events = []
    run_batch(_specs(), jobs=1, no_cache=True, progress=events.append)
    assert {e.checkpoint for e in events} == {"created", "restored"}
    assert all(
        e.program_source in ("memo", "disk", "built") for e in events
    )
    restored = [e for e in events if e.checkpoint == "restored"]
    assert all(e.warmup_seconds >= 0 for e in restored)


def test_cache_info_reports_per_class(tmp_path, monkeypatch):
    monkeypatch.setenv(engine.CACHE_DIR_ENV, str(tmp_path / "classes"))
    cache = ResultCache()
    run_batch(_specs()[:2], cache=cache)
    info = cache.info()
    assert info.entries == 2 and info.size_bytes > 0
    assert info.programs == 1 and info.program_bytes > 0
    assert info.checkpoints == 1 and info.checkpoint_bytes > 0


# ---------------------------------------------------------------------------
# Scheduler robustness: a failing unit must not strand the units sharing its key
# ---------------------------------------------------------------------------

_REAL_EXECUTE = engine._execute


def _exploding_execute(spec):
    if spec.label == "boom":
        raise RuntimeError("injected unit failure")
    return _REAL_EXECUTE(spec)


def test_pool_unit_failure_does_not_strand_units_sharing_its_key(monkeypatch):
    # All three specs share one warmup checkpoint key, and the first
    # submitted unit dies before the checkpoint lands.  The other two must
    # still create or restore the state themselves -- the batch raises
    # BatchError only after the pool drains, with every surviving spec
    # finished (no deadlock, no lost results).
    monkeypatch.setattr(engine, "_execute", _exploding_execute)
    specs = [
        spec_for("mediawiki", FAST.with_ftq_depth(16), 1, "boom"),
        spec_for("mediawiki", FAST.with_ftq_depth(32), 1, "ftq32"),
        spec_for("mediawiki", FAST.with_ftq_depth(16), 1, "ftq16"),
    ]
    events = []
    with pytest.raises(engine.BatchError, match="injected unit failure") as info:
        run_batch(
            specs, jobs=2, no_cache=True, progress=events.append, retries=0
        )
    assert [f.label for f in info.value.failures] == ["boom"]
    assert info.value.failures[0].kind == "error"
    assert info.value.completed == 2
    survivors = [e for e in events if e.error is None]
    assert {e.spec.label for e in survivors} == {"ftq32", "ftq16"}
    assert all(not e.cached and e.result.ipc > 0 for e in survivors)
    failed = [e for e in events if e.error is not None]
    assert [e.spec.label for e in failed] == ["boom"]
    assert failed[0].result is None and failed[0].failure_kind == "error"


def test_cache_clear_accepts_class_filter(tmp_path, monkeypatch):
    monkeypatch.setenv(engine.CACHE_DIR_ENV, str(tmp_path / "classes"))
    cache = ResultCache()
    run_batch(_specs()[:2], cache=cache)
    assert cache.clear(("checkpoints",)) == 1
    info = cache.info()
    assert info.checkpoints == 0 and info.entries == 2 and info.programs == 1
    assert cache.clear(("results", "programs", "checkpoints")) == 3
    after = cache.info()
    assert (after.entries, after.programs, after.checkpoints) == (0, 0, 0)
    with pytest.raises(ValueError):
        cache.clear(("everything",))
