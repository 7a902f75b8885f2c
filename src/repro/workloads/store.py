"""Content-addressed on-disk store of synthesized :class:`Program` objects.

Synthesizing a workload's program (``profiles.py`` -> ``synth.py`` ->
``builder.py``) costs more wall-clock than a short measured region, and a
sweep re-pays it once per pool worker: every worker process used to rebuild
the identical program from the profile before its first run.  This store
eliminates that redundancy:

* ``run_batch`` **materializes** each distinct (workload, seed) program once
  in the parent process — synthesized if needed, then pickled to
  ``<cache_root>/programs/<key[:2]>/<key>.pkl``;
* pool workers (and later cold processes) **hydrate** the pickle instead of
  re-running synthesis.  On Linux the fork start method means workers also
  inherit the parent's in-process memo directly.

Keys are content-addressed over (schema, package fingerprint, workload
name, the full :class:`WorkloadProfile` dataclass, seed), so editing the
synthesis pipeline or a profile invalidates stale entries automatically.
A pickled program round-trips to a functionally identical object (all
behaviour is a pure function of its fields and the seed), which
``tests/sim/test_checkpoint.py`` locks in byte-for-byte.

``REPRO_NO_CHECKPOINT=1`` bypasses the disk layer entirely (synthesis runs
from scratch, as before this store existed); the in-process memo stays
active either way, preserving the long-standing ``program_for`` identity
guarantee within one process.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
from pathlib import Path

from repro.common import faults
from repro.common.artifacts import (
    atomic_write_bytes,
    cache_root,
    canonical_key,
    clear_dir,
    dir_stats,
    package_fingerprint,
    read_bytes_or_none,
    reuse_disabled,
    shard_path,
)
from repro.workloads.profiles import WorkloadProfile, get_profile
from repro.workloads.program import Program

# Schema 2: blocks and branches are slotted and pickle as constructor calls.
PROGRAM_SCHEMA = 2

# In-process memo: (workload name, seed) -> Program.  Deliberately not keyed
# by store root: `program_for("x", 1) is program_for("x", 1)` must hold for
# the life of the process (the simulator compares program identity nowhere,
# but callers and tests rely on the memo to amortize synthesis).
_MEMO: dict[tuple[str, int], Program] = {}


class ProgramStore:
    """Pickled :class:`Program` objects under ``<root>/<key[:2]>/<key>.pkl``."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else cache_root() / "programs"

    # -- keys ----------------------------------------------------------------

    def key_for(self, workload: str, seed: int) -> str:
        """Content key over the profile's full parameter set and the seed."""
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
        return shard_path(self.root, self.key_for(workload, seed), ".pkl")

    # -- read/write ----------------------------------------------------------

    def load(self, workload: str, seed: int) -> Program | None:
        """The stored program, or ``None`` on any kind of miss.

        A corrupt or truncated pickle is a miss (the program is rebuilt and
        the entry rewritten), never a crash.
        """
        blob = read_bytes_or_none(self.path_for(workload, seed))
        if blob is None:
            return None
        if faults.corrupt_artifact("corrupt-program", workload):
            # Fault injection: pretend the stored pickle is corrupt so the
            # rebuild-and-rewrite fallback below is exercised end-to-end.
            blob = b"injected-corrupt-program"
        # The cyclic GC would scan the tens of thousands of objects the
        # pickle creates several times over while they are built; none of
        # them is garbage, so it is paused until they all exist.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            program = pickle.loads(blob)
        except Exception:  # noqa: BLE001 - any unpickling failure is a miss
            return None
        finally:
            if gc_was_enabled:
                gc.enable()
        return program if isinstance(program, Program) else None

    def store(self, workload: str, seed: int, program: Program) -> None:
        """Atomically persist ``program``; filesystem errors are non-fatal."""
        blob = pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)
        atomic_write_bytes(self.path_for(workload, seed), blob)

    # -- maintenance ---------------------------------------------------------

    def stats(self) -> tuple[int, int]:
        """(entries, bytes) currently stored."""
        return dir_stats(self.root, "*/*.pkl")

    def clear(self) -> int:
        """Delete every stored program; returns the number removed."""
        return clear_dir(self.root, "*/*.pkl")


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


def materialize(workload: str, seed: int = 1) -> None:
    """Ensure the program exists in the memo and on disk (parent-side).

    Called by ``run_batch`` before spawning pool workers so that every
    distinct program in the batch is built exactly once: forked workers
    inherit the memo, and freshly spawned processes hydrate from disk.
    """
    program, _ = get_program(workload, seed)
    if not reuse_disabled():
        store = ProgramStore()
        if not store.path_for(workload, seed).exists():
            store.store(workload, seed, program)


def clear_memo() -> None:
    """Drop the in-process memo (test isolation helper)."""
    _MEMO.clear()
