"""Content-addressed on-disk store of synthesized programs' flat columns.

Synthesizing a workload's program (``profiles.py`` -> ``synth.py`` ->
``builder.py``) costs more wall-clock than a short measured region, and a
sweep re-pays it once per pool worker: every worker process used to rebuild
the identical program from the profile before its first run.  This store
eliminates that redundancy:

* ``run_batch`` **materializes** each distinct (workload, seed) program once
  in the parent process — synthesized if needed, then its
  :meth:`Program.state` (the entry and the flat column buffers of
  :mod:`repro.workloads.tables`, about 1.5 MiB for the largest suite
  program) pickled to ``<cache_root>/programs/<key[:2]>/<key>.pkl``;
* pool workers (and later cold processes) **hydrate** the pickle instead of
  re-running synthesis: they unpickle four buffers and check them
  (:func:`~repro.workloads.tables.checked_columns`: one C pass wherever
  the kernels build, Python otherwise) before anything reads them, C
  included.  The :class:`~repro.workloads.blocks.BasicBlock` view
  is built only if Python walks the program.  On Linux the fork start
  method means workers also inherit the parent's in-process memo directly.

Keys are content-addressed over (schema, package fingerprint, workload
name, the full :class:`WorkloadProfile` dataclass, seed), so editing the
synthesis pipeline or a profile invalidates stale entries automatically.
A stored program round-trips to a functionally identical object (all
behaviour is a pure function of its fields and the seed), which
``tests/sim/test_checkpoint.py`` locks in block for block, and a blob that
fails a check is a miss (``tests/workloads/test_store.py``).

``REPRO_NO_CHECKPOINT=1`` bypasses the disk layer entirely (synthesis runs
from scratch, as before this store existed); it is the only layer the
variable still turns off, its name dating from the stored warmup
checkpoints, which are gone.  The in-process memo stays active either
way, preserving the long-standing ``program_for`` identity guarantee
within one process.
"""

from __future__ import annotations

import dataclasses
import pickle
from pathlib import Path

from repro.common.artifacts import (
    atomic_write_bytes,
    cache_root,
    canonical_key,
    clear_dir,
    dir_stats,
    package_fingerprint,
    read_bytes_or_none,
    requested_faults,
    reuse_disabled,
    shard_path,
)
from repro.workloads.profiles import WorkloadProfile, get_profile
from repro.workloads.program import Program

# Schema 3: the entry and the flat column buffers, no object graph.
PROGRAM_SCHEMA = 3

# In-process memo: (workload name, seed) -> Program.  Deliberately not keyed
# by store root: `program_for("x", 1) is program_for("x", 1)` must hold for
# the life of the process (the simulator compares program identity nowhere,
# but callers and tests rely on the memo to amortize synthesis).
_MEMO: dict[tuple[str, int], Program] = {}
# (workload name, seed) -> store key (program_key): one derivation per
# program and process, like the memo's one synthesis.
_KEYS: dict[tuple[str, int], str] = {}


class ProgramStore:
    """Pickled :meth:`Program.state` tuples under ``<root>/<key[:2]>/<key>.pkl``."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else cache_root() / "programs"

    # -- keys ----------------------------------------------------------------

    @staticmethod
    def key_for(workload: str, seed: int) -> str:
        """Content key over the profile's full parameter set and the seed
        (callers go through :func:`program_key`)."""
        return canonical_key(
            {
                "schema": PROGRAM_SCHEMA,
                "fingerprint": package_fingerprint(),
                "workload": workload,
                "seed": seed,
                "profile": dataclasses.asdict(get_profile(workload)),
            }
        )

    def path_for(self, workload: str, seed: int) -> Path:
        return shard_path(self.root, program_key(workload, seed), ".pkl")

    # -- read/write ----------------------------------------------------------

    def load(self, workload: str, seed: int) -> Program | None:
        """The stored program, or ``None`` on any kind of miss.

        A corrupt or truncated pickle, or columns that fail a check, is a
        miss (the program is rebuilt and the entry rewritten), never a
        crash.
        """
        blob = read_bytes_or_none(self.path_for(workload, seed))
        if blob is None:
            return None
        faults = requested_faults()
        if faults is not None and faults.corrupt_artifact("corrupt-program", workload):
            # Fault injection: pretend the stored pickle is corrupt so the
            # rebuild-and-rewrite fallback below is exercised end-to-end.
            blob = b"injected-corrupt-program"
        try:
            return Program.from_state(pickle.loads(blob))
        except Exception:  # noqa: BLE001 - any unpickling or check failure is a miss
            return None

    def store(self, workload: str, seed: int, program: Program) -> None:
        """Atomically persist ``program``; filesystem errors are non-fatal."""
        blob = pickle.dumps(program.state(), protocol=pickle.HIGHEST_PROTOCOL)
        atomic_write_bytes(self.path_for(workload, seed), blob)

    # -- maintenance ---------------------------------------------------------

    def stats(self) -> tuple[int, int]:
        """(entries, bytes) currently stored."""
        return dir_stats(self.root, "*/*.pkl")

    def clear(self) -> int:
        """Delete every stored program; returns the number removed."""
        return clear_dir(self.root, "*/*.pkl")


def program_key(workload: str, seed: int) -> str:
    """:meth:`ProgramStore.key_for`, derived once per (workload, seed) in a
    process: the key does not depend on the store's root, and its inputs
    (the schema, the package fingerprint, the profile) are fixed for the
    process's life."""
    key = _KEYS.get((workload, seed))
    if key is None:
        key = _KEYS[workload, seed] = ProgramStore.key_for(workload, seed)
    return key


def synthesize(profile: WorkloadProfile, seed: int) -> Program:
    """Build ``profile``'s program (:func:`repro.workloads.synth.synthesize`).

    The synthesis pipeline is imported here, on the first build, so a
    process that only hydrates stored programs never loads it.
    """
    from repro.workloads.synth import synthesize as build

    return build(profile, seed)


def get_program(
    profile: WorkloadProfile | str, seed: int = 1
) -> tuple[Program, str]:
    """The program for a suite profile plus where it came from.

    The source tag is ``"memo"`` (in-process hit), ``"disk"`` (hydrated from
    the store), or ``"built"`` (synthesized; persisted to the store unless
    ``REPRO_NO_CHECKPOINT`` is set).
    """
    name = profile if isinstance(profile, str) else profile.name
    memo_key = (name, seed)
    program = _MEMO.get(memo_key)
    if program is not None:
        return program, "memo"
    if reuse_disabled():
        program = synthesize(get_profile(name), seed)
        _MEMO[memo_key] = program
        return program, "built"
    store = ProgramStore()
    program = store.load(name, seed)
    if program is not None:
        _MEMO[memo_key] = program
        return program, "disk"
    program = synthesize(get_profile(name), seed)
    store.store(name, seed, program)
    _MEMO[memo_key] = program
    return program, "built"


def program_for(profile: WorkloadProfile | str, seed: int = 1) -> Program:
    """The (memoized, store-backed) synthetic program for a profile."""
    return get_program(profile, seed)[0]


def materialize(workload: str, seed: int = 1) -> str:
    """Ensure the program exists in the memo and on disk (parent-side);
    where it came from (:func:`get_program`'s source tag).

    Called by ``run_batch`` before spawning pool workers so that every
    distinct program in the batch is built exactly once: forked workers
    inherit the memo, and freshly spawned processes hydrate from disk.
    """
    program, source = get_program(workload, seed)
    if not reuse_disabled():
        store = ProgramStore()
        if not store.path_for(workload, seed).exists():
            store.store(workload, seed, program)
    return source


def clear_memo() -> None:
    """Drop the in-process memo and key memo (test isolation helper)."""
    _MEMO.clear()
    _KEYS.clear()
