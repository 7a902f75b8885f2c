"""Parallel experiment engine: run-spec batches, process pools, disk cache.

Every figure in the reproduction is a sweep over (workload x config x seed)
tuples.  This module is the single entry point that executes such sweeps:

* :class:`RunSpec` — a frozen description of one simulation (workload or
  explicit program, configuration, seed, presentation label).
* :func:`run_batch` — execute a batch of specs, fanning out over a
  ``concurrent.futures.ProcessPoolExecutor`` (:mod:`repro.sim.pool`; worker
  count from the ``REPRO_JOBS`` environment variable, default
  ``os.cpu_count()``), and return results **in spec order** regardless of
  completion order.
* :class:`ResultCache` — a content-addressed on-disk cache of serialized
  :class:`~repro.sim.metrics.SimResult` objects under ``~/.cache/repro``
  (override with ``REPRO_CACHE_DIR``, disable with ``REPRO_NO_CACHE=1`` or
  ``run_batch(..., no_cache=True)``).  Writes are atomic; a corrupted cache
  file is treated as a miss, never a crash.
* :class:`RunEvent` / :class:`BatchStats` — per-run progress and timing
  callbacks (runs completed, cache hits, warmup reuse, wall-clock per run)
  surfaced by the CLI.

Two sweep-level reuse layers sit below the result cache (both disabled by
``REPRO_NO_CHECKPOINT=1``, both byte-identical to the from-scratch path):

* the **program store** (:mod:`repro.workloads.store`) — each distinct
  (workload, seed) program is synthesized once per batch in the parent and
  hydrated by workers from ``<cache_root>/programs/``;
* **functional-warmup checkpointing** (:mod:`repro.sim.checkpoint`) —
  specs are grouped by :func:`~repro.sim.checkpoint.checkpoint_key` (the
  program digest, the seed, and the warmup-affecting config subset, so an
  FTQ-depth sweep shares one key); a run that finds its key's checkpoint
  restores it instead of re-walking the warmup, and one that misses walks
  and stores it.  The serial path runs units in order, so the first run of
  a group creates and the rest restore; on the pool path units that start
  before their key's checkpoint lands each walk the warmup (a compiled
  walk costs about what a restore does) and write the same blob.

A spec whose config enables **interval sampling** (``SimConfig.sampling``,
see :mod:`repro.sim.sampling`) is one work unit too, run as a chain: one
walker simulator restores or creates the warmup checkpoint, fast-forwards
to each interval in turn, and hands its functional state over in memory to
a fresh simulator per interval, which simulates the measured slice.  The
engine merges the per-interval counters into a single :class:`SimResult`
(with a ``sampling`` block carrying the per-interval IPCs and the CI of the
merged IPC).
Only the warmup is checkpointed; the retry budget and
``REPRO_UNIT_TIMEOUT`` cover the whole chain.

There is no other way to run a batch: the figure drivers, the CLI, the
analysis helpers, the benchmark harness and the examples all build a spec
grid and call :func:`run_batch`, so every run goes through all three
layers.  :func:`_resolve_spec` is the one place that turns a (workload,
config, seed) into a program and an effective config;
:func:`repro.sim.profile.build_simulator` reuses it for runs that bypass
the engine.

Result-cache keys cover the full configuration dataclass (which includes
the instruction count), the profile name, the seed, and a fingerprint of
the installed package source, so editing any simulator module invalidates
stale entries automatically.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.common.artifacts import (
    CACHE_DIR_ENV,
    atomic_write_bytes,
    cache_root,
    canonical_key,
    clear_dir,
    dir_stats,
    env_truthy,
    package_fingerprint,
    read_bytes_or_none,
    requested_faults,
    shard_path,
)
from repro.common.config import SimConfig
from repro.common.errors import ReproError
from repro.sim import checkpoint as ckpt
from repro.sim.metrics import SimResult
from repro.workloads import store as program_store
from repro.workloads.profiles import WorkloadProfile, get_profile
from repro.workloads.program import Program
from repro.workloads.store import ProgramStore, get_program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.simulator import Simulator

JOBS_ENV = "REPRO_JOBS"
NO_CACHE_ENV = "REPRO_NO_CACHE"
RETRIES_ENV = "REPRO_RETRIES"
UNIT_TIMEOUT_ENV = "REPRO_UNIT_TIMEOUT"
RETRY_BACKOFF_ENV = "REPRO_RETRY_BACKOFF"
FAILURE_POLICY_ENV = "REPRO_FAILURE_POLICY"
TIMEOUT_GRACE_ENV = "REPRO_TIMEOUT_GRACE"

FAILURE_POLICIES = ("raise", "fail-fast", "keep-going")

# Schema 2: the prefetcher config became TechniqueConfig (kind + nested
# per-technique params dataclass), changing the asdict() shape that enters
# cache keys — bumped so pre-redesign entries can never alias.
_CACHE_SCHEMA = 2

_RESULT_CLASSES = ("results", "programs", "checkpoints")


# ---------------------------------------------------------------------------
# RunSpec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """One simulation to run: (workload | program) x config x seed x label.

    ``workload`` names a suite profile (see :data:`repro.workloads.profiles.SUITE`)
    unless ``program`` is given, in which case the explicit program is
    simulated and ``workload`` is just the reported name.  ``label`` becomes
    the result's ``config_name``; it is presentation only and does not enter
    the cache key, so e.g. ``ftq32`` and ``base-ftq32`` runs of the same
    configuration share one cache entry.
    """

    workload: str
    config: SimConfig
    seed: int = 1
    label: str = "custom"
    program: Program | None = dataclasses.field(
        default=None, compare=False, hash=False
    )

    @property
    def cacheable(self) -> bool:
        """Only profile-derived runs are content-addressable on disk."""
        return self.program is None


def spec_for(
    profile: WorkloadProfile | str,
    config: SimConfig,
    seed: int = 1,
    label: str = "custom",
) -> RunSpec:
    """Build a :class:`RunSpec` for a suite workload profile."""
    name = profile if isinstance(profile, str) else profile.name
    return RunSpec(workload=name, config=config, seed=seed, label=label)


# ---------------------------------------------------------------------------
# Execution of a single spec (runs inside pool workers)
# ---------------------------------------------------------------------------


def _checkpoint_key_for(spec: RunSpec) -> str | None:
    """The warmup checkpoint key of a spec, or ``None`` when not keyable.

    Explicit-program specs have no content digest, a zero-block warmup has
    no state worth caching, and ``REPRO_NO_CHECKPOINT`` disables the layer.
    """
    if (
        not spec.cacheable
        or spec.config.functional_warmup_blocks <= 0
        or not ckpt.checkpointing_enabled()
    ):
        return None
    program_key = program_store.program_key(spec.workload, spec.seed)
    return ckpt.checkpoint_key(program_key, spec.seed, spec.config)


def _resolve_spec(spec: RunSpec):
    """Resolve ``(program, effective config, data profile, program source)``.

    Profiles may pin workload-intrinsic core parameters (a property of the
    code, not of the technique under test); they are applied on top of the
    spec's config so every technique sees the same workload behaviour.  The
    checkpoint-key helpers keep using ``spec.config`` — the overlay never
    touches warmup- or sampling-relevant fields.
    """
    if spec.program is not None:
        return spec.program, spec.config, None, "inline"
    prof = get_profile(spec.workload)
    program, source = get_program(spec.workload, spec.seed)
    config = spec.config
    if prof.load_dependence_fraction is not None:
        core = dataclasses.replace(
            config.core, load_dependence_fraction=prof.load_dependence_fraction
        )
        config = config.replace(core=core)
    return program, config, prof.data, source


def _warmed_simulator(
    spec: RunSpec, program, config: SimConfig, data_profile, meta: dict
) -> Simulator:
    """A simulator for ``spec`` past its functional warmup, when keyable.

    Restores the spec's warmup checkpoint, or walks the warmup and stores
    it under its key (a corrupt or stale snapshot counts as a miss and is
    overwritten).  Specs with no checkpoint key — an explicit program, a
    zero-block warmup, ``REPRO_NO_CHECKPOINT`` — get a pristine simulator
    that warms itself when it runs.  Records ``checkpoint`` and
    ``warmup_seconds`` in ``meta``.
    """
    # Imported at the first simulation, not with the engine: a batch served
    # from the result cache never loads the simulator.
    from repro.sim.simulator import Simulator

    simulator = Simulator(program, config, data_profile=data_profile)
    if spec.program is not None:
        return simulator
    if not ckpt.checkpointing_enabled():
        meta["checkpoint"] = "off"
        return simulator
    key = _checkpoint_key_for(spec)
    if key is None:
        return simulator
    warmup_started = time.perf_counter()
    store = ckpt.CheckpointStore()
    blob = store.get(key)
    if blob is not None:
        try:
            ckpt.restore_warmup(simulator, blob)
            meta["checkpoint"] = "restored"
        except ckpt.CheckpointError:
            # Corrupt/stale snapshot: rebuild from scratch on a pristine
            # simulator and overwrite the bad entry.
            blob = None
            simulator = Simulator(program, config, data_profile=data_profile)
    if blob is None:
        simulator.functional_warmup(spec.config.functional_warmup_blocks)
        store.put(key, ckpt.capture_warmup(simulator))
        meta["checkpoint"] = "created"
    meta["warmup_seconds"] += time.perf_counter() - warmup_started
    return simulator


def _execute(spec: RunSpec) -> tuple[SimResult, float, dict]:
    """Simulate one spec; returns (result, wall seconds, execution metadata).

    The metadata dict reports where the pre-measurement work came from:
    ``program_source`` is ``"memo"``/``"disk"``/``"built"``/``"inline"``,
    ``checkpoint`` is ``"restored"``/``"created"``/``"off"``/``"none"``,
    ``warmup_seconds`` is the wall-clock spent restoring or re-creating the
    functional warmup — for a sampled spec also its fast-forwards and
    hand-offs — (contained in the total ``seconds``), and ``intervals``
    counts the sampling intervals merged into the result (0: full run).
    """
    started = time.perf_counter()
    meta = {
        "program_source": "inline",
        "checkpoint": "none",
        "warmup_seconds": 0.0,
        "intervals": 0,
    }
    program, config, data_profile, meta["program_source"] = _resolve_spec(spec)
    simulator = _warmed_simulator(spec, program, config, data_profile, meta)
    if spec.config.sampling.enabled:
        from repro.sim import sampling  # only sampled specs load it

        result = sampling.run_sampled(spec, simulator, program, config, data_profile, meta)
    else:
        simulator.run()
        result = SimResult(
            workload=spec.workload,
            config_name=spec.label,
            counters=simulator.measured_counters(),
            avg_ftq_occupancy=simulator.ftq.average_occupancy,
            final_ftq_depth=simulator.ftq.depth,
        )
    return result, time.perf_counter() - started, meta


# ---------------------------------------------------------------------------
# Work units: supervised execution, timeouts, failure records
# ---------------------------------------------------------------------------


class UnitTimeoutError(ReproError):
    """A single work unit exceeded its ``REPRO_UNIT_TIMEOUT`` wall-clock."""


class BatchError(ReproError, RuntimeError):
    """One or more specs of a batch failed permanently.

    Raised after the batch drains (policy ``"raise"``, the default) or as
    soon as the first spec fails (``"fail-fast"``).  Carries the complete
    picture instead of just the first worker exception:

    * ``failures`` — one :class:`SpecFailure` per failed spec, spec order;
    * ``results`` — the partial result list, ``None`` at failed indices;
    * ``total`` / ``completed`` — batch size and successful-spec count.
    """

    def __init__(
        self,
        failures: Sequence["SpecFailure"],
        results: Sequence[SimResult | None],
        total: int,
    ):
        self.failures = sorted(failures, key=lambda f: f.index)
        self.results = list(results)
        self.total = total
        self.completed = sum(1 for r in self.results if r is not None)
        first = self.failures[0]
        message = (
            f"{len(self.failures)} of {total} specs failed "
            f"({self.completed} completed): "
            f"{first.workload}/{first.label}: {first.message}"
        )
        extra = len(self.failures) - 1
        if extra:
            message += f"; {extra} more failure{'s' if extra > 1 else ''} attached"
        super().__init__(message)


@dataclass(frozen=True)
class SpecFailure:
    """Structured record of one spec that failed permanently.

    ``kind`` is ``"error"`` (the unit raised), ``"timeout"`` (it exceeded
    the per-unit wall-clock budget), or ``"crash"`` (its worker process
    died — the ``BrokenProcessPool`` shape).  ``attempts`` counts every
    execution tried, retries included; ``interval`` is the sampling
    interval the spec's unit raised in (``-1`` for a full-fidelity run,
    and for a crash or a parent-side timeout, which name no interval).
    """

    index: int
    workload: str
    label: str
    seed: int
    kind: str
    message: str
    attempts: int
    interval: int = -1

    def describe(self) -> str:
        return (
            f"{self.workload}/{self.label} (seed {self.seed}): "
            f"[{self.kind}] {self.message} after {self.attempts} "
            f"attempt{'s' if self.attempts != 1 else ''}"
        )


def _setting(
    env: str, default, parse, what: str, minimum, *,
    strict: bool = False, value=None, argument: str = "",
):
    """An engine setting: ``value`` (the ``argument`` argument) if given,
    else the environment variable ``env`` if set, else ``default``.

    ``parse`` (``int`` or ``float``) reads it, and it must be at least
    ``minimum`` (above it when ``strict``); otherwise a :class:`ValueError`
    names the source of the bad value.
    """
    source = f"{argument} argument"
    if value is None:
        text = os.environ.get(env, "").strip()
        if not text:
            return default
        source, value = f"{env}={text!r}", text
    try:
        value = parse(value)
    except (TypeError, ValueError):
        kind = "an integer" if parse is int else "a number of seconds"
        raise ValueError(f"{source}: {what} must be {kind}") from None
    if not (value > minimum if strict else value >= minimum):  # NaN fails too
        bound = f"{'>' if strict else '>='} {minimum}{'' if parse is int else ' seconds'}"
        raise ValueError(f"{source}: {what} must be {bound}, got {value}")
    return value


def resolve_retries(retries: int | None = None) -> int:
    """Per-unit retry budget: explicit argument > ``REPRO_RETRIES`` > 1."""
    return _setting(RETRIES_ENV, 1, int, "retry count", 0, value=retries, argument="retries")


def resolve_unit_timeout(timeout: float | None = None) -> float | None:
    """Per-unit wall-clock budget in seconds, or ``None`` (no limit)."""
    return _setting(
        UNIT_TIMEOUT_ENV, None, float, "timeout", 0,
        strict=True, value=timeout, argument="unit_timeout",
    )


def resolve_failure_policy(policy: str | None = None) -> str:
    """Failure policy: argument > ``REPRO_FAILURE_POLICY`` > ``"raise"``.

    * ``"raise"`` — finish every other spec, then raise :class:`BatchError`;
    * ``"fail-fast"`` — abort the batch at the first permanent failure;
    * ``"keep-going"`` — never raise; failed specs yield ``None`` results.
    """
    if policy is None:
        policy = os.environ.get(FAILURE_POLICY_ENV, "").strip() or "raise"
    if policy not in FAILURE_POLICIES:
        raise ValueError(
            f"unknown failure policy {policy!r}; expected one of "
            + ", ".join(FAILURE_POLICIES)
        )
    return policy


def _retry_backoff() -> float:
    """Base delay of the exponential retry backoff (``REPRO_RETRY_BACKOFF``
    seconds, default 0.25)."""
    return _setting(RETRY_BACKOFF_ENV, 0.25, float, "retry backoff", 0)


def _timeout_grace() -> float:
    """Extra slack the pool's parent-side timeout backstop grants a worker
    (``REPRO_TIMEOUT_GRACE`` seconds, default 5)."""
    return _setting(TIMEOUT_GRACE_ENV, 5.0, float, "timeout grace", 0)


def _unit_tokens(spec: RunSpec) -> list[str]:
    """The fault-injection tokens addressing one work unit (one spec)."""
    return [spec.label, f"{spec.workload}/{spec.label}"]


def _fire_unit_faults(tokens: list[str]) -> None:
    """Fire the ``REPRO_FAULT`` directives matching ``tokens``, if any is set."""
    faults = requested_faults()
    if faults is not None:
        faults.fire_unit_faults(tokens)


@contextmanager
def _unit_alarm(timeout: float | None):
    """Bound a unit's wall-clock with ``SIGALRM`` (raises UnitTimeoutError).

    Only armable from a main thread on platforms with ``SIGALRM`` (pool
    workers always qualify; so does the serial path under normal use) —
    elsewhere the timeout falls back to the parent-side backstop alone.
    """
    if (
        not timeout
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):  # noqa: ARG001 - signal handler signature
        raise UnitTimeoutError(
            f"unit exceeded the {timeout:g}s wall-clock timeout"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _run_unit(spec: RunSpec, timeout: float | None) -> tuple:
    """Execute one work unit (one spec) under the fault and timeout guards.

    This is the single entry point both the serial loop and the pool
    workers submit, so retry/timeout/fault semantics are identical on
    every path.  A sampled spec is one unit: the timeout and the retries
    cover its whole interval chain, its spec-level fault tokens fire once
    here and its per-interval tokens inside the chain.
    """
    with _unit_alarm(timeout):
        _fire_unit_faults(_unit_tokens(spec))
        return _execute(spec)


# ---------------------------------------------------------------------------
# On-disk result cache
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CacheInfo:
    """Summary of the on-disk artifact store (``repro cache info``).

    ``entries``/``size_bytes`` count cached *results* (the original artifact
    class); programs and checkpoints are reported separately.
    """

    root: str
    entries: int
    size_bytes: int
    programs: int = 0
    program_bytes: int = 0
    checkpoints: int = 0
    checkpoint_bytes: int = 0


class ResultCache:
    """Content-addressed store of serialized :class:`SimResult` objects.

    Layout: ``<root>/<key[:2]>/<key>.json`` where ``key`` is the SHA-256 of
    the canonical JSON of (schema, package fingerprint, workload, seed,
    instruction count, full config dataclass).  Values carry the result's
    ``to_dict()`` form.  ``put`` writes atomically (temp file + ``os.replace``)
    and swallows filesystem errors; ``get`` treats any unreadable or
    malformed file as a miss.

    The same root also shelters the other artifact classes (``programs/``
    and ``checkpoints/`` subtrees); :meth:`info` and :meth:`clear` can
    report and purge them per class.
    """

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else cache_root()

    # -- keys ----------------------------------------------------------------

    def key_for(self, spec: RunSpec) -> str:
        return canonical_key(
            {
                "schema": _CACHE_SCHEMA,
                "fingerprint": package_fingerprint(),
                "workload": spec.workload,
                "seed": spec.seed,
                "instructions": spec.config.max_instructions,
                "config": dataclasses.asdict(spec.config),
            }
        )

    def path_for(self, spec: RunSpec, key: str | None = None) -> Path:
        """Where ``spec``'s result lives; ``key`` is its :meth:`key_for`,
        when the caller has derived it already."""
        return shard_path(self.root, key or self.key_for(spec), ".json")

    # -- read/write ----------------------------------------------------------

    def get(self, spec: RunSpec, key: str | None = None) -> SimResult | None:
        """The cached result for ``spec``, or ``None`` on any kind of miss
        (``key`` as in :meth:`path_for`)."""
        if not spec.cacheable:
            return None
        raw = read_bytes_or_none(self.path_for(spec, key))
        if raw is None:
            return None
        try:
            data = json.loads(raw)
            if not isinstance(data, dict) or data.get("schema") != _CACHE_SCHEMA:
                return None
            result = SimResult.from_dict(data["result"])
        except (ValueError, KeyError, TypeError):
            return None
        # The label is presentation-only and not part of the key; restamp it
        # so differently-labelled submissions of one config read correctly.
        result.workload = spec.workload
        result.config_name = spec.label
        return result

    def put(self, spec: RunSpec, result: SimResult, key: str | None = None) -> None:
        """Atomically persist ``result``; filesystem errors are non-fatal
        (``key`` as in :meth:`path_for`)."""
        if not spec.cacheable:
            return
        payload = {"schema": _CACHE_SCHEMA, "result": result.to_dict()}
        atomic_write_bytes(
            self.path_for(spec, key), json.dumps(payload).encode("utf-8")
        )

    # -- maintenance ---------------------------------------------------------

    def _program_store(self) -> ProgramStore:
        return ProgramStore(self.root / "programs")

    def _checkpoint_store(self) -> ckpt.CheckpointStore:
        return ckpt.CheckpointStore(self.root / "checkpoints")

    def info(self) -> CacheInfo:
        entries, size = dir_stats(self.root, "*/*.json")
        programs, program_bytes = self._program_store().stats()
        checkpoints, checkpoint_bytes = self._checkpoint_store().stats()
        return CacheInfo(
            root=str(self.root),
            entries=entries,
            size_bytes=size,
            programs=programs,
            program_bytes=program_bytes,
            checkpoints=checkpoints,
            checkpoint_bytes=checkpoint_bytes,
        )

    def clear(self, classes: Iterable[str] | None = None) -> int:
        """Delete cached artifacts; returns the number of files removed.

        ``classes`` selects among ``"results"``, ``"programs"``, and
        ``"checkpoints"`` (default: results only, the historical behaviour).
        """
        selected = tuple(classes) if classes is not None else ("results",)
        unknown = set(selected) - set(_RESULT_CLASSES)
        if unknown:
            raise ValueError(f"unknown cache classes: {sorted(unknown)}")
        removed = 0
        if "results" in selected:
            removed += clear_dir(self.root, "*/*.json")
        if "programs" in selected:
            removed += self._program_store().clear()
        if "checkpoints" in selected:
            removed += self._checkpoint_store().clear()
        return removed


def default_cache() -> ResultCache:
    """The cache at the active :func:`cache_root`."""
    return ResultCache()


def _cache_disabled_by_env() -> bool:
    return env_truthy(NO_CACHE_ENV)


# ---------------------------------------------------------------------------
# Progress callbacks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunEvent:
    """One finished spec inside a batch (delivered to progress callbacks).

    A spec that failed permanently is reported too: ``result`` is ``None``
    and ``error``/``failure_kind`` carry the failure message and shape
    (``"error"``/``"timeout"``/``"crash"``).  ``attempts`` counts every
    execution tried, retries included (1 = first try succeeded).
    ``program_source`` says where the spec's program came from: the batch
    materializes each program before its units run, so the first unit of
    each (workload, seed) reports how the batch got it and later ones
    ``"memo"``.
    """

    index: int  # position in the submitted spec list
    spec: RunSpec
    result: SimResult | None  # None when the spec failed permanently
    cached: bool  # served from the disk cache (no simulator invocation)
    seconds: float  # wall-clock for this run (lookup time on a hit)
    completed: int  # specs finished (succeeded or failed) so far
    total: int
    # Pre-measurement reuse (defaults describe a cache hit / legacy event):
    checkpoint: str = "none"  # "restored" | "created" | "off" | "none"
    program_source: str = "inline"  # "memo" | "disk" | "built" | "inline"
    # Restoring or re-creating the warmup; for a sampled spec also the
    # walker's fast-forwards and its per-interval hand-offs.
    warmup_seconds: float = 0.0
    intervals: int = 0  # sampling intervals merged into this result (0 = full)
    # Failure reporting (None/defaults on success):
    error: str | None = None  # permanent-failure message
    failure_kind: str | None = None  # "error" | "timeout" | "crash"
    attempts: int = 1  # executions tried, retries included


ProgressCallback = Callable[[RunEvent], None]

_default_progress: ProgressCallback | None = None


def set_default_progress(callback: ProgressCallback | None) -> ProgressCallback | None:
    """Install a progress callback used when ``run_batch`` gets none.

    Returns the previous callback so callers can restore it.
    """
    global _default_progress
    previous = _default_progress
    _default_progress = callback
    return previous


class BatchStats:
    """A progress callback that accumulates batch counters.

    ``simulated`` counts actual simulator invocations — a warm-cache rerun
    of a batch finishes with ``simulated == 0`` and ``cache_hits == runs``.
    ``checkpoint_restores``/``checkpoint_creates`` count warmup reuse among
    the simulated runs, and ``warmup_seconds`` is the wall-clock those runs
    spent inside the warmup phase (restored or re-created).  Failed specs
    are counted (``failed``) and kept (``failures``, one event per spec),
    and ``retried`` totals the extra attempts the batch spent on recovery.
    """

    def __init__(self) -> None:
        self.runs = 0
        self.cache_hits = 0
        self.simulated = 0
        self.sim_seconds = 0.0
        self.checkpoint_restores = 0
        self.checkpoint_creates = 0
        self.warmup_seconds = 0.0
        self.intervals = 0
        self.failed = 0
        self.failures: list[RunEvent] = []
        self.retried = 0

    def __call__(self, event: RunEvent) -> None:
        self.runs += 1
        self.retried += max(0, event.attempts - 1)
        if event.error is not None:
            self.failed += 1
            self.failures.append(event)
        elif event.cached:
            self.cache_hits += 1
        else:
            self.simulated += 1
            self.sim_seconds += event.seconds
            self.warmup_seconds += event.warmup_seconds
            self.intervals += event.intervals
            if event.checkpoint == "restored":
                self.checkpoint_restores += 1
            elif event.checkpoint == "created":
                self.checkpoint_creates += 1

    def summary(self) -> str:
        text = (
            f"{self.runs} runs: {self.simulated} simulated "
            f"({self.sim_seconds:.2f}s), {self.cache_hits} cache hits"
        )
        if self.checkpoint_restores or self.checkpoint_creates:
            text += (
                f", {self.checkpoint_restores} warmups restored "
                f"({self.checkpoint_creates} created)"
            )
        if self.intervals:
            text += f", {self.intervals} sampled intervals"
        if self.retried:
            text += f", {self.retried} retr{'ies' if self.retried != 1 else 'y'}"
        if self.failed:
            kinds = sorted(
                {e.failure_kind for e in self.failures if e.failure_kind}
            )
            text += f", {self.failed} FAILED"
            if kinds:
                text += f" ({'/'.join(kinds)})"
        return text


# ---------------------------------------------------------------------------
# run_batch
# ---------------------------------------------------------------------------


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit argument > ``REPRO_JOBS`` > ``os.cpu_count()``.

    A non-positive or non-numeric worker count is rejected with a clear
    ``ValueError`` naming its source — ``REPRO_JOBS=0`` must not reach
    ``ProcessPoolExecutor``, whose own error would not say where the
    nonsense value came from.
    """
    return _setting(
        JOBS_ENV, os.cpu_count() or 1, int, "worker count", 1, value=jobs, argument="jobs"
    )


def run_batch(
    specs: Sequence[RunSpec] | Iterable[RunSpec],
    *,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    no_cache: bool = False,
    progress: ProgressCallback | None = None,
    retries: int | None = None,
    unit_timeout: float | None = None,
    on_failure: str | None = None,
    sample_error: float | None = None,
) -> list[SimResult]:
    """Execute a batch of :class:`RunSpec` and return results in spec order.

    ``sample_error`` turns on adaptive sampling: after the batch runs, any
    sampled spec whose per-interval relative CI95
    (``result.sampling["ipc_relative_ci95"]``) exceeds the target fraction
    is escalated via :func:`repro.sim.sampling.escalate_sampling` (more
    intervals first, then longer detailed warmup) and re-run, up to five
    rounds total (:func:`repro.sim.sampling.run_adaptive`); the final
    result replaces the original at its spec index and carries a
    ``sampling["adaptive"]`` block (``target``/``rounds``/``met``).
    Full-fidelity specs pass through untouched.

    Cache hits are resolved first (in spec order).  The remaining specs fan
    out over a process pool when more than one worker is available and more
    than one run is pending, otherwise they execute in-process; each spec
    is one work unit, a sampled one included (its intervals run as one
    chain inside the unit, see :func:`repro.sim.sampling.run_sampled`).
    Before the pool spawns, each distinct (workload, seed) program is
    materialized once in this process.  Units are submitted as they come: one that finds its
    warmup checkpoint restores it, and one that misses walks the warmup and
    writes it, so pooled units sharing a missing key may each write it.
    Completion order never affects the returned order.

    **Failure handling** (identical semantics on the serial and pool
    paths): each work unit (one spec) gets ``1 + retries`` executions
    (``retries`` argument > ``REPRO_RETRIES`` > 1) with exponential
    backoff (``REPRO_RETRY_BACKOFF`` base seconds) between attempts, and
    an optional per-unit wall-clock budget (``unit_timeout`` argument >
    ``REPRO_UNIT_TIMEOUT``), enforced inside the unit via ``SIGALRM`` with
    a parent-side terminate-and-rebuild backstop for hard-hung workers.  A
    worker process dying (OOM kill, segfault) breaks the pool: the engine
    rebuilds it, re-runs the in-flight units one at a time to attribute
    the crash (only the confirmed culprit consumes retry attempts), and
    resumes.  What happens after a unit exhausts its attempts is the
    ``on_failure`` policy (argument > ``REPRO_FAILURE_POLICY``):
    ``"raise"`` (default) finishes every other spec then raises
    :class:`BatchError` carrying all :class:`SpecFailure` records and the
    partial results; ``"fail-fast"`` aborts immediately; ``"keep-going"``
    returns the partial result list with ``None`` at failed indices.
    """
    if sample_error is not None:
        from repro.sim import sampling

        return sampling.run_adaptive(
            list(specs),
            sample_error=sample_error,
            jobs=jobs,
            cache=cache,
            no_cache=no_cache,
            progress=progress,
            retries=retries,
            unit_timeout=unit_timeout,
            on_failure=on_failure,
        )
    spec_list = list(specs)
    total = len(spec_list)
    callback = progress if progress is not None else _default_progress
    retries = resolve_retries(retries)
    unit_timeout = resolve_unit_timeout(unit_timeout)
    policy = resolve_failure_policy(on_failure)
    backoff = _retry_backoff()

    if no_cache or _cache_disabled_by_env():
        active_cache: ResultCache | None = None
    else:
        active_cache = cache if cache is not None else default_cache()

    results: list[SimResult | None] = [None] * total
    # Each cacheable spec's result key, derived once for its get and put.
    keys: list[str | None] = [None] * total
    completed = 0
    pending: list[int] = []

    for index, spec in enumerate(spec_list):
        hit = None
        lookup_started = time.perf_counter()
        if active_cache is not None and spec.cacheable:
            keys[index] = active_cache.key_for(spec)
            hit = active_cache.get(spec, keys[index])
        if hit is None:
            pending.append(index)
            continue
        results[index] = hit
        completed += 1
        if callback is not None:
            callback(
                RunEvent(
                    index=index,
                    spec=spec,
                    result=hit,
                    cached=True,
                    seconds=time.perf_counter() - lookup_started,
                    completed=completed,
                    total=total,
                )
            )

    failures: list[SpecFailure] = []
    failed_specs: set[int] = set()

    # How this batch got each program it materialized below; the first unit
    # that finds it in the memo reports that instead.
    sources: dict[tuple[str, int], str] = {}

    def deliver(index: int, payload: tuple, attempts: int) -> None:
        """Record one spec's successful unit (``attempts`` tried in all)."""
        nonlocal completed
        result, seconds, meta = payload
        spec = spec_list[index]
        if active_cache is not None:
            active_cache.put(spec, result, keys[index])
        results[index] = result
        completed += 1
        source = meta.get("program_source", "inline")
        if source == "memo":
            source = sources.pop((spec.workload, spec.seed), source)
        if callback is not None:
            callback(
                RunEvent(
                    index=index,
                    spec=spec,
                    result=result,
                    cached=False,
                    seconds=seconds,
                    completed=completed,
                    total=total,
                    checkpoint=meta.get("checkpoint", "none"),
                    program_source=source,
                    warmup_seconds=meta.get("warmup_seconds", 0.0),
                    intervals=meta.get("intervals", 0),
                    attempts=attempts,
                )
            )

    def fail(failure: SpecFailure) -> None:
        """Record a permanent spec failure (and abort under fail-fast)."""
        nonlocal completed
        failed_specs.add(failure.index)
        failures.append(failure)
        completed += 1
        if callback is not None:
            callback(
                RunEvent(
                    index=failure.index,
                    spec=spec_list[failure.index],
                    result=None,
                    cached=False,
                    seconds=0.0,
                    completed=completed,
                    total=total,
                    error=failure.message,
                    failure_kind=failure.kind,
                    attempts=failure.attempts,
                )
            )
        if policy == "fail-fast":
            raise BatchError(failures, results, total)

    def failure_for(
        index: int, kind: str, message: str, attempts: int, interval: int = -1
    ) -> SpecFailure:
        spec = spec_list[index]
        return SpecFailure(
            index=index,
            workload=spec.workload,
            label=spec.label,
            seed=spec.seed,
            kind=kind,
            message=message,
            attempts=attempts,
            interval=interval,
        )

    def classify(exc: BaseException) -> tuple[str, str, int]:
        """``(kind, message, sampling interval)`` of a unit's exception."""
        interval = getattr(exc, "sampling_interval", -1)
        if isinstance(exc, UnitTimeoutError):
            return "timeout", str(exc), interval
        return "error", f"{type(exc).__name__}: {exc}", interval

    if pending and ckpt.checkpointing_enabled():
        # Build every distinct program once in the parent: forked workers
        # inherit the memo, spawned ones hydrate the on-disk pickle.
        for workload, seed in sorted(
            {
                (spec_list[i].workload, spec_list[i].seed)
                for i in pending
                if spec_list[i].cacheable
            }
        ):
            sources[workload, seed] = program_store.materialize(workload, seed)

    # Every pending spec is one work unit, a sampled one included (its
    # intervals chain inside the unit).  Both execution paths run the same
    # units, so retry/timeout/fault semantics (and therefore results) are
    # identical serial and pooled.
    workers = min(resolve_jobs(jobs), len(pending)) if pending else 0
    if workers <= 1:
        # Units run in order, so the first unit of each checkpoint group
        # creates the snapshot and later ones restore it.
        for index in pending:
            attempts = 0
            while True:
                attempts += 1
                try:
                    payload = _run_unit(spec_list[index], unit_timeout)
                except Exception as exc:  # noqa: BLE001 - classified below
                    kind, message, interval = classify(exc)
                    if attempts <= retries:
                        if backoff > 0:
                            time.sleep(backoff * (2 ** (attempts - 1)))
                        continue
                    fail(failure_for(index, kind, message, attempts, interval))
                    break
                deliver(index, payload, attempts)
                break
    else:
        from repro.sim.pool import run_pool  # only a pooled batch loads it

        run_pool(
            spec_list=spec_list,
            units=pending,
            deliver=deliver,
            fail=fail,
            failure_for=failure_for,
            classify=classify,
            workers=workers,
            retries=retries,
            unit_timeout=unit_timeout,
            backoff=backoff,
        )

    # Defensive: a scheduler bug must surface as a failure record, never as
    # a silent ``None`` in the returned results.
    for index in pending:  # pragma: no cover - invariant violation
        if results[index] is None and index not in failed_specs:
            fail(
                failure_for(
                    index, "error", "internal scheduler error: spec never completed", 1
                )
            )

    if failures:
        failures.sort(key=lambda f: (f.index, f.interval))
        if policy != "keep-going":
            raise BatchError(failures, results, total)
    return results  # type: ignore[return-value]
