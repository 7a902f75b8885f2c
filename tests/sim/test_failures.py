"""Failure handling: retries, timeouts, broken-pool recovery, fault harness.

Every test drives the engine through the public ``REPRO_FAULT`` harness (or
a monkeypatched ``_execute``) rather than reaching into pool internals, so
the scenarios here are exactly the ones an operator can reproduce from the
shell.  ``REPRO_RETRY_BACKOFF=0`` keeps the retry paths fast.
"""

import json
import time

import pytest

from repro.common import faults
from repro.sim import engine
from repro.sim.engine import BatchStats, run_batch, spec_for
from repro.sim.presets import baseline_config
from repro.workloads import store as program_store

FAST = baseline_config(max_instructions=2_000).replace(
    functional_warmup_blocks=800
)


@pytest.fixture(autouse=True)
def _failure_env(monkeypatch, tmp_path):
    monkeypatch.setenv(engine.JOBS_ENV, "2")
    monkeypatch.setenv(engine.CACHE_DIR_ENV, str(tmp_path / "cache"))
    monkeypatch.setenv(faults.FAULT_DIR_ENV, str(tmp_path / "faults"))
    monkeypatch.setenv(engine.RETRY_BACKOFF_ENV, "0")
    for env in (
        engine.NO_CACHE_ENV,
        engine.RETRIES_ENV,
        engine.UNIT_TIMEOUT_ENV,
        engine.FAILURE_POLICY_ENV,
        engine.TIMEOUT_GRACE_ENV,
        faults.FAULT_ENV,
        faults.HANG_SECONDS_ENV,
        "REPRO_NO_CHECKPOINT",
    ):
        monkeypatch.delenv(env, raising=False)


def _specs(labels, seed_base=1):
    # Distinct seeds give distinct programs.
    return [
        spec_for("mediawiki", FAST, seed_base + i, label)
        for i, label in enumerate(labels)
    ]


def _serialized(results):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]


# ---------------------------------------------------------------------------
# Knob resolution and fault-spec parsing
# ---------------------------------------------------------------------------


def test_resolver_validation(monkeypatch):
    assert engine.resolve_retries() == 1
    assert engine.resolve_retries(0) == 0
    monkeypatch.setenv(engine.RETRIES_ENV, "3")
    assert engine.resolve_retries() == 3
    with pytest.raises(ValueError, match="retries argument"):
        engine.resolve_retries(-1)
    monkeypatch.setenv(engine.RETRIES_ENV, "nope")
    with pytest.raises(ValueError, match=engine.RETRIES_ENV):
        engine.resolve_retries()

    assert engine.resolve_unit_timeout() is None
    assert engine.resolve_unit_timeout(2.5) == 2.5
    monkeypatch.setenv(engine.UNIT_TIMEOUT_ENV, "7")
    assert engine.resolve_unit_timeout() == 7.0
    with pytest.raises(ValueError, match="must be > 0"):
        engine.resolve_unit_timeout(0)
    monkeypatch.setenv(engine.UNIT_TIMEOUT_ENV, "soon")
    with pytest.raises(ValueError, match=engine.UNIT_TIMEOUT_ENV):
        engine.resolve_unit_timeout()

    assert engine.resolve_failure_policy() == "raise"
    monkeypatch.setenv(engine.FAILURE_POLICY_ENV, "keep-going")
    assert engine.resolve_failure_policy() == "keep-going"
    with pytest.raises(ValueError, match="unknown failure policy"):
        engine.resolve_failure_policy("shrug")

    # The backoff and the pool's timeout grace parse the same way: a
    # malformed or negative value is an error naming its source, not the
    # default or a silent clamp.
    for env, read, default in (
        (engine.RETRY_BACKOFF_ENV, engine._retry_backoff, 0.25),
        (engine.TIMEOUT_GRACE_ENV, engine._timeout_grace, 5.0),
    ):
        monkeypatch.delenv(env, raising=False)
        assert read() == default
        monkeypatch.setenv(env, "1.5")
        assert read() == 1.5
        monkeypatch.setenv(env, "0")
        assert read() == 0.0
        for bad in ("later", "-1"):
            monkeypatch.setenv(env, bad)
            with pytest.raises(ValueError, match=env):
                read()


def test_fault_parsing_rejects_malformed(monkeypatch):
    assert faults.parse_faults("") == []
    parsed = faults.parse_faults("kill:udp, raise:flaky:2")
    assert [(d.kind, d.token, d.limit) for d in parsed] == [
        ("kill", "udp", None),
        ("raise", "flaky", 2),
    ]
    for bad in ("explode:udp", "kill", "kill:udp:often", "kill:udp:0", "kill:a:1:2"):
        with pytest.raises(faults.FaultSpecError):
            faults.parse_faults(bad)


def test_fault_budget_is_claimed_atomically(monkeypatch, tmp_path):
    monkeypatch.setenv(faults.FAULT_DIR_ENV, str(tmp_path / "budget"))
    directive = faults.parse_faults("raise:flaky:2")[0]
    assert faults._claim(directive)
    assert faults._claim(directive)
    assert not faults._claim(directive)  # budget of 2 exhausted
    unlimited = faults.parse_faults("raise:flaky")[0]
    assert all(faults._claim(unlimited) for _ in range(5))


# ---------------------------------------------------------------------------
# Worker exceptions: aggregation, policies, retries
# ---------------------------------------------------------------------------


def test_batch_error_aggregates_every_failure(monkeypatch):
    monkeypatch.setenv(faults.FAULT_ENV, "raise:bad-a,raise:bad-b")
    specs = _specs(["bad-a", "ok", "bad-b"])
    stats = BatchStats()
    with pytest.raises(engine.BatchError) as info:
        run_batch(specs, no_cache=True, progress=stats, retries=0)
    exc = info.value
    assert "2 of 3 specs failed (1 completed)" in str(exc)
    assert "1 more failure attached" in str(exc)
    assert [f.label for f in exc.failures] == ["bad-a", "bad-b"]
    assert all(f.kind == "error" for f in exc.failures)
    assert [r is not None for r in exc.results] == [False, True, False]
    assert stats.failed == 2 and len(stats.failures) == 2
    assert "2 FAILED (error)" in stats.summary()


def test_keep_going_returns_none_for_failed_specs(monkeypatch):
    monkeypatch.setenv(faults.FAULT_ENV, "raise:bad")
    specs = _specs(["ok-1", "bad", "ok-2"])
    results = run_batch(
        specs, no_cache=True, retries=0, on_failure="keep-going"
    )
    assert [r is not None for r in results] == [True, False, True]


def test_fail_fast_aborts_the_batch(monkeypatch):
    monkeypatch.setenv(faults.FAULT_ENV, "raise:bad")
    specs = _specs(["bad", "ok-1", "ok-2"])
    stats = BatchStats()
    with pytest.raises(engine.BatchError) as info:
        run_batch(
            specs,
            jobs=1,  # deterministic order: the failing spec runs first
            no_cache=True,
            retries=0,
            on_failure="fail-fast",
            progress=stats,
        )
    assert info.value.completed == 0  # nothing after the failure ran
    assert stats.simulated == 0


def test_retry_then_succeed_matches_clean_run(monkeypatch, tmp_path):
    # A unit that fails once and succeeds on retry must leave no trace in
    # the counters: serial and pooled retried runs are byte-identical to a
    # clean serial run.  (REPRO_RETRIES>0 identity — acceptance criterion.)
    specs = _specs(["flaky", "steady"])
    clean = run_batch(specs, jobs=1, no_cache=True)

    monkeypatch.setenv(faults.FAULT_ENV, "raise:flaky:1")
    monkeypatch.setenv(faults.FAULT_DIR_ENV, str(tmp_path / "serial"))
    serial_stats = BatchStats()
    serial = run_batch(
        specs, jobs=1, no_cache=True, retries=1, progress=serial_stats
    )
    assert serial_stats.retried == 1 and serial_stats.failed == 0
    retried_events = [e for e in serial_stats.failures]
    assert retried_events == []

    monkeypatch.setenv(faults.FAULT_DIR_ENV, str(tmp_path / "pooled"))
    pooled_stats = BatchStats()
    pooled = run_batch(
        specs, jobs=2, no_cache=True, retries=1, progress=pooled_stats
    )
    assert pooled_stats.retried == 1 and pooled_stats.failed == 0

    assert _serialized(serial) == _serialized(clean)
    assert _serialized(pooled) == _serialized(clean)


def test_retry_budget_exhaustion_counts_attempts(monkeypatch):
    monkeypatch.setenv(faults.FAULT_ENV, "raise:doomed")
    specs = _specs(["doomed"])
    with pytest.raises(engine.BatchError) as info:
        run_batch(specs, jobs=1, no_cache=True, retries=2)
    failure = info.value.failures[0]
    assert failure.attempts == 3  # initial try + 2 retries
    assert failure.kind == "error"
    assert "injected fault" in failure.message


# ---------------------------------------------------------------------------
# Broken-pool recovery (the PR-motivating bug)
# ---------------------------------------------------------------------------


def test_worker_death_fails_one_spec_not_the_batch(monkeypatch):
    # A worker dying breaks the entire ProcessPoolExecutor.  The engine
    # must rebuild it, attribute the crash to the culprit unit only, and
    # finish every other spec.
    monkeypatch.setenv(faults.FAULT_ENV, "kill:dead")
    specs = _specs(["dead", "inno-a", "inno-b", "inno-c"])
    stats = BatchStats()
    with pytest.raises(engine.BatchError) as info:
        run_batch(specs, jobs=2, no_cache=True, retries=0, progress=stats)
    exc = info.value
    assert [f.label for f in exc.failures] == ["dead"]
    assert exc.failures[0].kind == "crash"
    assert "worker process died" in exc.failures[0].message
    assert exc.completed == 3
    assert [r is not None for r in exc.results] == [False, True, True, True]
    assert stats.failed == 1 and "crash" in stats.summary()


def test_worker_death_retry_recovers_byte_identical(monkeypatch, tmp_path):
    # Killed exactly once: the re-run must succeed and the batch match a
    # clean serial run bit-for-bit (acceptance criterion).
    specs = _specs(["dead", "steady"])
    clean = run_batch(specs, jobs=1, no_cache=True)
    monkeypatch.setenv(faults.FAULT_ENV, "kill:dead:1")
    monkeypatch.setenv(faults.FAULT_DIR_ENV, str(tmp_path / "kill-once"))
    stats = BatchStats()
    recovered = run_batch(
        specs, jobs=2, no_cache=True, retries=1, progress=stats
    )
    assert stats.failed == 0
    assert _serialized(recovered) == _serialized(clean)


def test_crash_does_not_strand_units_sharing_its_key(monkeypatch):
    # All three specs share one program key (same seed), and the first
    # unit's worker dies.  The other two must still run.
    monkeypatch.setenv(faults.FAULT_ENV, "kill:dies")
    specs = [
        spec_for("mediawiki", FAST.with_ftq_depth(16), 1, "dies"),
        spec_for("mediawiki", FAST.with_ftq_depth(32), 1, "d-32"),
        spec_for("mediawiki", FAST.with_ftq_depth(16), 1, "d-16"),
    ]
    with pytest.raises(engine.BatchError) as info:
        run_batch(specs, jobs=2, no_cache=True, retries=0)
    exc = info.value
    assert [f.label for f in exc.failures] == ["dies"]
    assert exc.failures[0].kind == "crash"
    assert exc.completed == 2


# ---------------------------------------------------------------------------
# Timeouts: in-worker SIGALRM and the parent-side backstop
# ---------------------------------------------------------------------------


def test_unit_timeout_serial_keep_going(monkeypatch):
    specs = _specs(["ok", "slow"])
    # The "ok" unit's result is computed before the timed batch, so only the
    # "slow" unit can reach the 0.2s budget -- a slow moment of a shared
    # host cannot push the real simulation over it.
    ok_result = engine._execute(specs[0])

    def stub_execute(spec):
        if spec.label == "slow":
            time.sleep(30)
        return ok_result

    monkeypatch.setattr(engine, "_execute", stub_execute)
    stats = BatchStats()
    results = run_batch(
        specs,
        jobs=1,
        no_cache=True,
        retries=0,
        unit_timeout=0.2,
        on_failure="keep-going",
        progress=stats,
    )
    assert results[0] is not None and results[1] is None
    assert stats.failures[0].failure_kind == "timeout"
    assert "0.2s wall-clock" in stats.failures[0].error


def test_unit_timeout_interrupts_hung_worker(monkeypatch):
    # The hang fault sleeps "forever" inside the worker; the in-worker
    # SIGALRM must cut it short and report a timeout failure while the
    # other spec completes normally.
    monkeypatch.setenv(faults.FAULT_ENV, "hang:stuck")
    monkeypatch.setenv(faults.HANG_SECONDS_ENV, "30")
    specs = _specs(["stuck", "fine"])
    stats = BatchStats()
    results = run_batch(
        specs,
        jobs=2,
        no_cache=True,
        retries=0,
        unit_timeout=0.3,
        on_failure="keep-going",
        progress=stats,
    )
    assert results[0] is None and results[1] is not None
    assert stats.failures[0].failure_kind == "timeout"


def test_hard_hang_hits_parent_backstop(monkeypatch):
    # hang-hard blocks SIGALRM, emulating a worker stuck in uninterruptible
    # code.  Only the parent-side backstop (terminate at 2x timeout +
    # grace, then rebuild the pool) can clear it.  retries=1 keeps the test
    # robust on a loaded box: if the innocent spec is still running when
    # the backstop sweeps, it is re-run and succeeds, while the truly hung
    # unit hangs again and exhausts the budget.
    monkeypatch.setenv(faults.FAULT_ENV, "hang-hard:stuck")
    monkeypatch.setenv(faults.HANG_SECONDS_ENV, "30")
    monkeypatch.setenv(engine.TIMEOUT_GRACE_ENV, "0.5")
    specs = _specs(["stuck", "fine"])
    stats = BatchStats()
    results = run_batch(
        specs,
        jobs=2,
        no_cache=True,
        retries=1,
        unit_timeout=0.3,
        on_failure="keep-going",
        progress=stats,
    )
    assert results[0] is None and results[1] is not None
    assert [f.spec.label for f in stats.failures] == ["stuck"]
    assert stats.failures[0].failure_kind == "timeout"
    assert "unresponsive" in stats.failures[0].error


# ---------------------------------------------------------------------------
# Sampled specs: per-interval failure attribution
# ---------------------------------------------------------------------------


def test_sampled_interval_failure_names_the_interval(monkeypatch):
    monkeypatch.setenv(faults.FAULT_ENV, "raise:samp#1")
    sampled = FAST.with_sampling(2, 100)
    specs = [
        spec_for("mediawiki", sampled, 1, "samp"),
        spec_for("mediawiki", FAST, 2, "plain"),
    ]
    with pytest.raises(engine.BatchError) as info:
        run_batch(specs, jobs=2, no_cache=True, retries=0)
    exc = info.value
    assert [f.label for f in exc.failures] == ["samp"]
    assert exc.failures[0].interval == 1
    assert exc.completed == 1 and exc.results[1] is not None


# ---------------------------------------------------------------------------
# Corrupt-artifact fallbacks
# ---------------------------------------------------------------------------


def test_corrupt_program_read_rebuilds(monkeypatch, tmp_path):
    store = program_store.ProgramStore()
    program_store.materialize("mediawiki", 9)
    assert store.load("mediawiki", 9) is not None

    program_store.clear_memo()
    monkeypatch.setenv(faults.FAULT_ENV, "corrupt-program:mediawiki:1")
    # The poisoned read is a miss, so the program is rebuilt from the
    # profile and the store entry rewritten.
    program, source = program_store.get_program("mediawiki", 9)
    assert source == "built" and program is not None
    program_store.clear_memo()
    assert store.load("mediawiki", 9) is not None  # fault budget exhausted
