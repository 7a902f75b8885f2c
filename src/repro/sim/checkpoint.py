"""Functional-warmup checkpointing: snapshot and restore warmed state.

Every run in a sweep replays the identical functional warmup — 12k oracle
blocks of BTB/TAGE/iBTB/cache training — before its first measured cycle.
Where that walk runs in C (every configuration the compiled cycle driver
runs, see ``Simulator._walk_true_path``), restoring a checkpoint costs
about what the walk costs; what a checkpoint saves is the Python walk of
the object path and of the configurations that keep it, 0.07-0.5 s per
warmup (docs/performance.md, "What checkpoints still buy").  This module
makes warmup a cacheable artifact, in two layers:

* :func:`capture_state` / :func:`restore_state` — the single definition of
  the functional state, as an unpickled dict: everything
  ``Simulator.functional_warmup`` and a (possibly warming)
  ``fast_forward_to`` mutate — the oracle walk position, the
  L1I/L1D/L2/LLC contents with their LRU order, the BTB/iBTB/TAGE tables,
  the global history, the RAS, the stream data prefetcher's table, the
  data-address generator's occurrence counters, the UDP useful-set (Bloom
  filters + coalescer), the counter values, and the warmup baseline
  snapshot.  A restored simulator behaves byte-for-byte like one that
  walked itself (``tests/sim/test_checkpoint.py`` enforces equality of
  ``measured_counters()`` per preset).  The captured dict shares no
  mutable object with its donor, so sampled runs hand it over in memory:
  the engine's walker simulator fast-forwards between intervals and
  passes its state to a fresh simulator per interval (``sim/engine.py``);
* :func:`capture_warmup` / :func:`restore_warmup` — the same state pickled
  to bytes and back, the warmup-checkpoint wire form;
* :class:`CheckpointStore` persists the pickled snapshots under
  ``<cache_root>/checkpoints/`` keyed by :func:`checkpoint_key`.

**Key derivation is explicit**: only the configuration fields that can
influence warmup-produced state enter the key — ``functional_warmup_blocks``
plus the full ``branch``, ``memory``, and ``udp`` sub-configs (the warmup
trains predictors, fills the hierarchy, and seeds the useful-set, and
nothing else).  Measured-region knobs — FTQ depth and the rest of the
frontend config, core widths, UFTQ mode, the prefetcher selection, the
instruction budget, the sampling shape — are deliberately excluded, so an
entire FTQ-depth sweep shares a single checkpoint
(``tests/sim/test_checkpoint_key.py``).

Restoration rules worth knowing when extending the simulator:

* **all** predictor and cache state is serialized layout-neutrally and
  restored in place (``state_dict``/``load_state`` on TAGE,
  ``state_packed``/``load_packed`` on the BTB, the iBTB and the caches):
  a snapshot captured by the compiled (C-kernel) structures restores into
  the object ones and vice versa, and no component object is ever swapped
  out from under the closures and hooks that alias it;
* cache, BTB and iBTB contents travel as packed per-set buffers in
  LRU->MRU order (:mod:`repro.common.packed`: a count per set plus one
  flat buffer per payload plane, so pickling is a memcpy and the compiled
  classes build and load them in one C call) — replacement order is part
  of the state, the physical layout (dict of objects vs. flat way arrays)
  is not.

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

from repro.common import faults
from repro.common.artifacts import (
    NO_CHECKPOINT_ENV,
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
    "restore_state",
    "restore_warmup",
    "warmup_config_subset",
]

# Schema 2: layout-neutral predictor/cache serialization (state_dict /
# state_lines) replacing pickled component objects, so compiled-mode and
# object-mode simulators share checkpoints interchangeably.
# Schema 3: warming fast-forward state — the stream data prefetcher's table
# and the data-address generator's per-PC occurrence counters join the
# snapshot (both mutated by the data-side replay of
# ``Simulator.fast_forward_to``), and the warm flag enters the interval key.
# Cache contents and occurrence counters switch to packed array buffers
# (``state_packed``/``occurrences_state``): sampled runs serialize them once
# per interval, so the wire form must pickle as a memcpy.
# Schema 4: BTB/iBTB contents move to the caches' packed per-set buffers,
# TAGE's bimodal base travels as its counter bytes instead of the object,
# and the interval checkpoint key is gone (sampled runs hand state over
# in memory).
CHECKPOINT_SCHEMA = 4


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
# Capture
# ---------------------------------------------------------------------------


def capture_state(sim: "Simulator") -> dict:
    """All state :meth:`Simulator.functional_warmup` and fast-forwards mutate.

    Must be called on a simulator that is warmed (by a warmup, a restore or
    a fast-forward) and has not yet executed a measured cycle.  The dict
    holds copies only (ints, tuples, bytes, fresh lists and dicts), so the
    donor may keep walking while a restored simulator runs.
    """
    if not sim._warmed or sim.cycle != 0:
        raise CheckpointError("capture requires a warmed, unstarted simulator")
    bpu = sim.bpu
    useful = None
    if sim.udp is not None:
        us = sim.udp.useful_set
        useful = {
            "exact": sorted(us._exact),
            "filters": {
                size: (bytes(f._array), f.inserted)
                for size, f in us.filters.items()
            },
            "coalescer": list(us.coalescer._lines),
            "window": (us._window_unuseful, us._window_total),
        }
    baseline = sim._warmup_baseline
    return {
        "schema": CHECKPOINT_SCHEMA,
        "oracle": {
            "pc": sim.oracle.pc,
            "call_stack": list(sim.oracle.call_stack),
            "blocks_walked": sim.oracle.blocks_walked,
            "instrs_walked": sim.oracle.instrs_walked,
            "occurrences": dict(sim.oracle._occurrences),
        },
        "spec_pc": sim.frontend.spec_pc,
        "history": bpu.history.checkpoint(),
        "tage": bpu.tage.state_dict(),
        "btb": bpu.btb.state_packed(),
        "ibtb": bpu.ibtb.state_packed(),
        "ras": {
            "stack": list(bpu.ras._stack),
            "overflows": bpu.ras.overflows,
            "underflows": bpu.ras.underflows,
        },
        "caches": {
            "l1i": sim.l1i.state_packed(),
            "l1d": sim.hierarchy.l1d.state_packed(),
            "l2": sim.hierarchy.l2.state_packed(),
            "llc": sim.hierarchy.llc.state_packed(),
        },
        # Warming fast-forward state: the data replay trains the stream
        # prefetcher and advances the data generator's occurrence counters,
        # so both must reach an interval's simulator for chained warm walks
        # to equal one direct jump.
        "stream": (
            sim.hierarchy.stream.state_dict()
            if sim.hierarchy.stream is not None
            else None
        ),
        "warm_data": sim.data_gen.occurrences_state(),
        "useful_set": useful,
        "counters": dict(sim.counters._values),
        "warmup_baseline": dict(baseline) if baseline is not None else None,
    }


def capture_warmup(sim: "Simulator") -> bytes:
    """:func:`capture_state`, pickled: the warmup checkpoint's bytes."""
    return pickle.dumps(capture_state(sim), protocol=pickle.HIGHEST_PROTOCOL)


# ---------------------------------------------------------------------------
# Restore
# ---------------------------------------------------------------------------


def restore_state(sim: "Simulator", state: dict) -> None:
    """Inject :func:`capture_state` output into a freshly constructed simulator.

    After this returns, ``sim.run()`` (or ``run_interval``) proceeds
    directly to the measured region (``_warmed`` is set), producing
    counters byte-identical to walking from scratch.  Everything is copied
    in, so ``state`` stays reusable.  Raises :class:`CheckpointError` on any
    malformed or incompatible state; the simulator must then be considered
    unusable (callers construct a fresh one and warm from scratch).
    """
    if sim._warmed or sim.cycle != 0:
        raise CheckpointError("restore requires a pristine simulator")
    if not isinstance(state, dict) or state.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError("checkpoint schema mismatch")
    try:
        oracle_state = state["oracle"]
        caches = state["caches"]

        oracle = sim.oracle
        oracle.pc = oracle_state["pc"]
        oracle.call_stack[:] = oracle_state["call_stack"]
        oracle.blocks_walked = oracle_state["blocks_walked"]
        oracle.instrs_walked = oracle_state["instrs_walked"]
        oracle._occurrences.clear()
        oracle._occurrences.update(oracle_state["occurrences"])

        bpu = sim.bpu
        # In place: TAGE holds the same GlobalHistory object, and the BTB is
        # aliased by registry-wired hooks — nothing is swapped, only loaded.
        bpu.history.restore(state["history"])
        bpu.tage.load_state(state["tage"])
        bpu.btb.load_packed(state["btb"])
        bpu.ibtb.load_packed(state["ibtb"])
        ras_state = state["ras"]
        bpu.ras._stack[:] = ras_state["stack"]
        bpu.ras.overflows = ras_state["overflows"]
        bpu.ras.underflows = ras_state["underflows"]

        sim.l1i.load_packed(caches["l1i"])
        sim.hierarchy.l1d.load_packed(caches["l1d"])
        sim.hierarchy.l2.load_packed(caches["l2"])
        sim.hierarchy.llc.load_packed(caches["llc"])

        stream_state = state["stream"]
        if (stream_state is None) != (sim.hierarchy.stream is None):
            raise CheckpointError("stream prefetcher enablement mismatch")
        if stream_state is not None:
            sim.hierarchy.stream.load_state(stream_state)
        sim.data_gen.load_occurrences_state(state["warm_data"])

        useful = state["useful_set"]
        if (useful is None) != (sim.udp is None):
            raise CheckpointError("UDP enablement mismatch")
        if useful is not None:
            us = sim.udp.useful_set
            us._exact = set(useful["exact"])
            for size, (array, inserted) in useful["filters"].items():
                bloom = us.filters[size]
                if len(array) != len(bloom._array):
                    raise CheckpointError("bloom filter geometry mismatch")
                bloom._array[:] = array
                bloom.inserted = inserted
            us.coalescer._lines = OrderedDict(
                (addr, None) for addr in useful["coalescer"]
            )
            us._window_unuseful, us._window_total = useful["window"]

        # In place: interned incrementer closures bind this exact dict.
        values = sim.counters._values
        values.clear()
        for name in sim.counters._interned:
            values[name] = 0
        values.update(state["counters"])

        sim.frontend.spec_pc = state["spec_pc"]
        baseline = state["warmup_baseline"]
        sim._warmup_baseline = dict(baseline) if baseline is not None else None
        sim._warmed = True
    except CheckpointError:
        raise
    except Exception as exc:  # noqa: BLE001 - malformed snapshot contents
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc


def restore_warmup(sim: "Simulator", blob: bytes) -> None:
    """Unpickle a :func:`capture_warmup` blob and :func:`restore_state` it.

    Raises :class:`CheckpointError` on any corrupt, stale (older schema) or
    incompatible snapshot, which callers treat as a miss.
    """
    if sim._warmed or sim.cycle != 0:
        raise CheckpointError("restore requires a pristine simulator")
    try:
        state = pickle.loads(blob)
    except Exception as exc:  # noqa: BLE001 - any unpickling failure
        raise CheckpointError(f"unreadable checkpoint: {exc}") from exc
    restore_state(sim, state)


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

    def exists(self, key: str) -> bool:
        memo_key = (str(self.root), key)
        return memo_key in _BLOB_MEMO or self.path_for(key).is_file()

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
        if blob is not None and faults.corrupt_artifact("corrupt-checkpoint", key):
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
