"""Functional-warmup checkpointing: snapshot and restore warmed state.

Every run in a sweep replays the identical functional warmup — 12k oracle
blocks of BTB/TAGE/iBTB/cache training — before its first measured cycle.
On a compiled simulator that walk runs in C, whatever the preset (see
``Simulator._walk_true_path``), and restoring a checkpoint costs about
what the walk costs; what a checkpoint saves is the Python walk of a
simulator on the object structures (``compiled=False``,
``REPRO_NO_COMPILED``, or kernels that do not build), 0.07-0.5 s per
warmup (docs/performance.md, "What checkpoints still buy").  Units that
share a missing key may each walk the warmup and write the same blob; the
write is an atomic replace.

The functional state is one table, :func:`_components`: every component
:meth:`Simulator.functional_warmup` and ``fast_forward_to`` change, by
checkpoint key (``None`` where a configuration has none).  Each answers
the state protocol of :mod:`repro.common.packed` (``state``,
``load_state``, ``copy_from``), and everything here is a loop over the
table plus :func:`_finish_load` (the frontend's pc, the warmup baseline
and the warmed flag):

* :func:`capture_state` / :func:`restore_state` — the wire form, a dict of
  each component's ``state()``.  A restored simulator behaves
  byte-for-byte like one that walked itself (``tests/sim/test_checkpoint.py``
  enforces equality of ``measured_counters()`` per preset), and a
  malformed part raises :class:`CheckpointError`.  The states are
  layout-neutral, so a snapshot captured by the compiled structures
  restores into the object ones and vice versa;
* :func:`handoff` — the same state moved from one live simulator into a
  pristine one by ``copy_from``, without the wire form.  Sampled runs hand
  the walker's state to a fresh simulator per interval (``sim/engine.py``);
* :func:`capture_warmup` / :func:`restore_warmup` — the wire form pickled,
  the warmup checkpoint's bytes, which :class:`CheckpointStore` persists
  under ``<cache_root>/checkpoints/`` keyed by :func:`checkpoint_key`.

**Key derivation is explicit**: only the configuration fields that can
influence warmup-produced state enter the key — ``functional_warmup_blocks``
plus the full ``branch``, ``memory``, and ``udp`` sub-configs (the warmup
trains predictors, fills the hierarchy, and seeds the useful-set, and
nothing else).  Measured-region knobs — FTQ depth and the rest of the
frontend config, core widths, UFTQ mode, the prefetcher selection, the
instruction budget, the sampling shape — are deliberately excluded, so an
entire FTQ-depth sweep shares a single checkpoint
(``tests/sim/test_checkpoint_key.py``).

``REPRO_NO_CHECKPOINT=1`` opts out (the engine re-runs warmup from
scratch); a corrupt or stale snapshot raises :class:`CheckpointError`,
which callers treat as a miss.
"""

from __future__ import annotations

import dataclasses
import pickle
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING

from repro.common.artifacts import (
    NO_CHECKPOINT_ENV,
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
from repro.common.config import SimConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.simulator import Simulator

__all__ = [
    "NO_CHECKPOINT_ENV",
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "CheckpointStore",
    "capture_state",
    "capture_warmup",
    "checkpoint_key",
    "checkpointing_enabled",
    "handoff",
    "restore_state",
    "restore_warmup",
    "warmup_config_subset",
]

# Bumped whenever the wire form changes, so an older blob is a miss that
# re-warms.  Schema 6: one entry per component of ``_components``, its
# ``state()``, and the object data generator lists pcs ascending, like the
# compiled one.
CHECKPOINT_SCHEMA = 6


class CheckpointError(Exception):
    """A snapshot cannot be restored (corrupt, stale, or shape-mismatched)."""


def checkpointing_enabled() -> bool:
    """False when ``REPRO_NO_CHECKPOINT`` opts out of warmup reuse."""
    return not reuse_disabled()


# ---------------------------------------------------------------------------
# Key derivation
# ---------------------------------------------------------------------------

# The configuration fields functional warmup reads, directly or through the
# components it trains.  Everything else in SimConfig only affects the
# measured region and must NOT enter the key (that sharing is the point).
WARMUP_CONFIG_FIELDS = ("functional_warmup_blocks", "branch", "memory", "udp")


def warmup_config_subset(config: SimConfig) -> dict:
    """The canonical dict of config fields that shape warmed state.

    * ``functional_warmup_blocks`` — how far the oracle walks;
    * ``branch`` — BTB/iBTB/TAGE/RAS geometry and history lengths;
    * ``memory`` — L1I/L1D/L2/LLC geometry (set counts, associativity);
    * ``udp`` — whether a useful-set exists and its Bloom/coalescer sizing.
    """
    return {
        "functional_warmup_blocks": config.functional_warmup_blocks,
        "branch": dataclasses.asdict(config.branch),
        "memory": dataclasses.asdict(config.memory),
        "udp": dataclasses.asdict(config.udp),
    }


def checkpoint_key(program_key: str, seed: int, config: SimConfig) -> str:
    """Content key of the warmed state a (program, seed, config) produces."""
    return canonical_key(
        {
            "schema": CHECKPOINT_SCHEMA,
            "fingerprint": package_fingerprint(),
            "program": program_key,
            "seed": seed,
            "warmup": warmup_config_subset(config),
        }
    )


# ---------------------------------------------------------------------------
# The components, capture, restore and hand-off
# ---------------------------------------------------------------------------


def _components(sim: "Simulator") -> dict:
    """Every component the functional walk changes, by checkpoint key
    (``None`` where ``sim``'s configuration has none)."""
    bpu = sim.bpu
    hierarchy = sim.hierarchy
    return {
        "oracle": sim.oracle,
        "history": bpu.history,
        "tage": bpu.tage,
        "btb": bpu.btb,
        "ibtb": bpu.ibtb,
        "ras": bpu.ras,
        "l1i": sim.l1i,
        "l1d": hierarchy.l1d,
        "l2": hierarchy.l2,
        "llc": hierarchy.llc,
        "stream": hierarchy.stream,
        "data_gen": sim.data_gen,
        "useful_set": sim.udp.useful_set if sim.udp is not None else None,
        "counters": sim.counters,
    }


def _pairs(sim: "Simulator", parts: dict) -> list[tuple]:
    """``(component, part)`` for each of ``sim``'s components, ``parts``
    holding another simulator's components or their states by key."""
    pairs = []
    for key, component in _components(sim).items():
        part = parts[key]
        if (component is None) != (part is None):
            raise CheckpointError(f"{key} enablement mismatch")
        if component is not None:
            pairs.append((component, part))
    return pairs


def _require_warmed(sim: "Simulator") -> None:
    if not sim._warmed or sim.cycle != 0:
        raise CheckpointError("capture requires a warmed, unstarted simulator")


def _require_pristine(sim: "Simulator") -> None:
    if sim._warmed or sim.cycle != 0:
        raise CheckpointError("restore requires a pristine simulator")


def capture_state(sim: "Simulator") -> dict:
    """All state :meth:`Simulator.functional_warmup` and fast-forwards mutate.

    Must be called on a simulator that is warmed (by a warmup, a restore or
    a fast-forward) and has not yet executed a measured cycle.  The dict
    holds copies only, so the donor may keep walking while a restored
    simulator runs.
    """
    _require_warmed(sim)
    state = {
        key: component.state() if component is not None else None
        for key, component in _components(sim).items()
    }
    baseline = sim._warmup_baseline
    state.update(
        schema=CHECKPOINT_SCHEMA,
        spec_pc=sim.frontend.spec_pc,
        warmup_baseline=dict(baseline) if baseline is not None else None,
    )
    return state


def capture_warmup(sim: "Simulator") -> bytes:
    """:func:`capture_state`, pickled: the warmup checkpoint's bytes."""
    return pickle.dumps(capture_state(sim), protocol=pickle.HIGHEST_PROTOCOL)


def restore_state(sim: "Simulator", state: dict) -> None:
    """Inject :func:`capture_state` output into a freshly constructed simulator.

    After this returns, ``sim.run()`` (or ``run_interval``) proceeds
    directly to the measured region (``_warmed`` is set), producing
    counters byte-identical to walking from scratch.  Everything is copied
    in, so ``state`` stays reusable.  Raises :class:`CheckpointError` on any
    malformed or incompatible state; the simulator must then be considered
    unusable (callers construct a fresh one and warm from scratch).
    """
    _require_pristine(sim)
    if not isinstance(state, dict) or state.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError("checkpoint schema mismatch")
    try:
        for component, part in _pairs(sim, state):
            component.load_state(part)
        _finish_load(sim, state["spec_pc"], state["warmup_baseline"])
    except CheckpointError:
        raise
    except Exception as exc:  # noqa: BLE001 - malformed snapshot contents
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc


def restore_warmup(sim: "Simulator", blob: bytes) -> None:
    """Unpickle a :func:`capture_warmup` blob and :func:`restore_state` it.

    Raises :class:`CheckpointError` on any corrupt, stale (older schema) or
    incompatible snapshot, which callers treat as a miss.
    """
    _require_pristine(sim)
    try:
        state = pickle.loads(blob)
    except Exception as exc:  # noqa: BLE001 - any unpickling failure
        raise CheckpointError(f"unreadable checkpoint: {exc}") from exc
    restore_state(sim, state)


def handoff(walker: "Simulator", sim: "Simulator") -> None:
    """``restore_state(sim, capture_state(walker))`` without the wire form.

    Moves exactly the state :func:`capture_state` defines from the warmed,
    unstarted ``walker`` into the pristine ``sim``, which must be built for
    the same program and geometry: each component takes its twin's state
    in place (``copy_from``).  ``sim`` then shares no mutable object with
    ``walker``.
    """
    _require_warmed(walker)
    _require_pristine(sim)
    for component, source in _pairs(sim, _components(walker)):
        component.copy_from(source)
    _finish_load(sim, walker.frontend.spec_pc, walker._warmup_baseline)


def _finish_load(sim: "Simulator", spec_pc: int, baseline) -> None:
    """Load the frontend's pc and the warmup baseline, and mark ``sim``
    warmed."""
    sim.frontend.spec_pc = spec_pc
    sim._warmup_baseline = dict(baseline) if baseline is not None else None
    sim._warmed = True


# ---------------------------------------------------------------------------
# On-disk store
# ---------------------------------------------------------------------------

# Small per-process memo of recently used blobs: within one serial batch the
# same checkpoint is restored once per spec, and the blob bytes are
# immutable, so re-reading the file every time is pure waste.
_BLOB_MEMO: OrderedDict[tuple[str, str], bytes] = OrderedDict()
_BLOB_MEMO_CAPACITY = 8


class CheckpointStore:
    """Pickled warmup snapshots under ``<root>/<key[:2]>/<key>.ckpt``."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else cache_root() / "checkpoints"

    def path_for(self, key: str) -> Path:
        return shard_path(self.root, key, ".ckpt")

    def get(self, key: str) -> bytes | None:
        """The stored snapshot bytes, or ``None`` on a miss.

        Content validation happens in :func:`restore_warmup`; a blob that
        fails to restore should be treated as a miss by the caller.
        """
        memo_key = (str(self.root), key)
        blob = _BLOB_MEMO.get(memo_key)
        if blob is not None:
            _BLOB_MEMO.move_to_end(memo_key)
        else:
            blob = read_bytes_or_none(self.path_for(key))
            if blob is not None:
                self._memoize(memo_key, blob)
        faults = requested_faults() if blob is not None else None
        if faults is not None and faults.corrupt_artifact("corrupt-checkpoint", key):
            # Fault injection: serve garbage instead of the stored snapshot
            # to drive the caller's corrupt-blob fallback.  The good blob
            # stays memoized, so only this read is poisoned.
            return b"\x00 injected-corrupt-checkpoint"
        return blob

    def put(self, key: str, blob: bytes) -> None:
        """Atomically persist a snapshot; filesystem errors are non-fatal."""
        atomic_write_bytes(self.path_for(key), blob)
        self._memoize((str(self.root), key), blob)

    @staticmethod
    def _memoize(memo_key: tuple[str, str], blob: bytes) -> None:
        _BLOB_MEMO[memo_key] = blob
        _BLOB_MEMO.move_to_end(memo_key)
        while len(_BLOB_MEMO) > _BLOB_MEMO_CAPACITY:
            _BLOB_MEMO.popitem(last=False)

    # -- maintenance ---------------------------------------------------------

    def stats(self) -> tuple[int, int]:
        """(entries, bytes) currently stored."""
        return dir_stats(self.root, "*/*.ckpt")

    def clear(self) -> int:
        """Delete every stored snapshot; returns the number removed."""
        _BLOB_MEMO.clear()
        return clear_dir(self.root, "*/*.ckpt")
