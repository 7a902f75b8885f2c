"""The branch structures' state in flat arrays, for the compiled cycle driver.

Each class here is the compiled twin of an object structure: the BTB and
iBTB (:mod:`repro.branch.btb`), the global history
(:mod:`repro.branch.history`), TAGE (:mod:`repro.branch.tage`) and the
loop predictor (:mod:`repro.branch.loop_predictor`).  The driver predicts
and trains them in C (``repro/common/kernels/``); Python builds their
descriptors and runs the state protocol (``state``, ``load_state``,
``copy_from``), whose formats the object twins share, so checkpoints
round-trip between the two.  The object classes stay the oracle and are
imported only where a simulator runs them.

What both sides need lives here too: TAGE's confidence classes and
history geometry, the BTBs' packed planes and the state checks, so a
compiled run imports no object predictor.
"""

from __future__ import annotations

from array import array

from repro.branch.bimodal import BimodalPredictor
from repro.common.config import BranchConfig
from repro.common.packed import (
    address, copy_buffers, export_ways, import_ways, put, unpack, view, zeros
)
from repro.workloads.program import BranchKind

# TAGE's confidence classes, from the provider counter's magnitude (UDP's
# off-path estimator consumes them).
CONF_LOW = 0
CONF_MEDIUM = 1
CONF_HIGH = 2

CONFIDENCE_NAMES = {CONF_LOW: "low", CONF_MEDIUM: "medium", CONF_HIGH: "high"}

# The planes of the BTBs' packed checkpoint form (repro.common.packed), with
# their array typecodes: BTB entries are (pc, kind, target), iBTB entries
# (tag, target).
BTB_PLANES = {"pcs": "q", "kinds": "B", "targets": "q"}
IBTB_PLANES = {"tags": "q", "targets": "q"}


def geometric_lengths(n: int, lo: int, hi: int) -> list[int]:
    """Geometric history-length series from ``lo`` to ``hi`` over ``n`` tables."""
    lengths = []
    for i in range(n):
        value = lo * (hi / lo) ** (i / (n - 1)) if n > 1 else lo
        length = int(round(value))
        if lengths and length <= lengths[-1]:
            length = lengths[-1] + 1
        lengths.append(length)
    return lengths


def tage_foldings(config: BranchConfig) -> list[tuple[int, int]]:
    """The (history length, fold width) pairs TAGE requires of its history.

    The branch unit builds the shared global history with exactly these
    foldings: one index fold and one tag fold per tagged table, in table
    order.
    """
    foldings = []
    for length in geometric_lengths(
        config.tage_tables, config.tage_min_hist, config.tage_max_hist
    ):
        foldings.append((length, config.tage_table_bits))
        foldings.append((length, config.tage_tag_bits))
    return foldings


def checked_tables(state: dict, count: int, size: int, base: BimodalPredictor) -> list:
    """``state``'s tables, once its geometry is checked (else ValueError)."""
    tables_state = state["tables"]
    if len(tables_state) != count:
        raise ValueError("TAGE table count mismatch")
    if any(len(part) != size for table in tables_state for part in table):
        raise ValueError("TAGE table geometry mismatch")
    if len(state["base"]) != base.size:
        raise ValueError("bimodal table geometry mismatch")
    if not all(type(state[key]) is int for key in ("use_alt_counter", "tick")):
        raise ValueError("TAGE counters are not integers")
    return tables_state


def check_history(state: tuple[int, tuple[int, ...]], mask: int, folds: int) -> None:
    """ValueError unless ``state`` is ``(bits within mask, one int per folding)``."""
    bits, folded = state
    if (
        type(bits) is not int
        or bits & ~mask
        or len(folded) != folds
        or not all(type(value) is int for value in folded)
    ):
        raise ValueError(f"history state is not (bits, {folds} folded registers)")


class BranchTargetBufferC:
    """A BTB's state in flat arrays, for the compiled cycle driver.

    Way payloads (kind, target, tag pc) live in preallocated flat ``int64``
    arrays of ``num_sets * assoc`` ways the driver probes and fills in C.
    Replacement state is a monotonic stamp array (victim = minimum stamp),
    which picks the same victim as the object BTB's minimum ``lru``.  The
    packed :meth:`state` format (LRU→MRU per set) round-trips with
    :class:`~repro.branch.btb.BranchTargetBuffer`.  :meth:`fill` and
    :meth:`contains` are the two calls Python still makes into it: a
    plug-in technique's BTB hooks run them from inside the driver (which
    predecodes for shadow-btb itself).
    """

    def __init__(self, entries: int, assoc: int) -> None:
        from repro.common import cc

        kernels = cc.kernels()
        if kernels is None:  # pragma: no cover - the simulator guards this
            raise RuntimeError("compiled kernels unavailable")
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        ways = self.num_sets * assoc
        self._kinds = zeros(ways)
        self._targets = zeros(ways)
        self._pcs = zeros(ways, fill=-1)
        self._stamps = zeros(ways)
        self._planes = (self._pcs, self._kinds, self._targets, self._stamps)
        di = zeros(10)
        di[0] = address(self._pcs)
        di[1] = address(self._kinds)
        di[2] = address(self._targets)
        di[3] = address(self._stamps)
        di[4] = self.num_sets
        di[5] = assoc
        # di[6]=stamp, di[7]=hits, di[8]=misses, di[9]=occupancy
        self._di = di
        self._desc = address(di)
        self._k_contains = kernels.btb_contains
        self._k_fill = kernels.btb_fill
        self._k_export = kernels.ways_export
        self._k_import = kernels.ways_import

    def contains(self, pc: int) -> bool:
        """Tag check without touching recency or statistics."""
        return bool(self._k_contains(self._desc, pc))

    def fill(self, pc: int, kind: BranchKind, target: int) -> None:
        """Insert or refresh the entry for the branch at ``pc``."""
        self._k_fill(self._desc, pc, int(kind), target)

    @property
    def hits(self) -> int:
        return self._di[7]

    @hits.setter
    def hits(self, value: int) -> None:
        self._di[7] = value

    @property
    def misses(self) -> int:
        return self._di[8]

    @misses.setter
    def misses(self, value: int) -> None:
        self._di[8] = value

    @property
    def occupancy(self) -> int:
        return self._di[9]

    def state(self) -> dict:
        """Same packed format as :meth:`~repro.branch.btb.BranchTargetBuffer.state`."""
        counts, pcs, kinds, targets = export_ways(
            self._k_export, self._stamps, self.assoc,
            (self._pcs, 8), (self._kinds, 1), (self._targets, 8),
        )
        return {
            "counts": counts,
            "pcs": pcs,
            "kinds": kinds,
            "targets": targets,
            "hits": self.hits,
            "misses": self.misses,
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state` output in place (validated first)."""
        _, (_, kinds, _) = unpack(state, BTB_PLANES, self.num_sets, self.assoc, "BTB")
        if kinds and max(kinds) > max(BranchKind):
            raise ValueError("BTB kinds plane holds an unknown branch kind")
        hits, misses = int(state["hits"]), int(state["misses"])
        total = import_ways(
            self._k_import, self._stamps, self.assoc, self._di[6], state,
            (self._pcs, 8, "pcs"), (self._kinds, 1, "kinds"), (self._targets, 8, "targets"),
        )
        self._di[6] += total  # stamp
        self._di[9] = total  # occupancy
        self.hits = hits
        self.misses = misses

    def copy_from(self, other: "BranchTargetBufferC") -> None:
        """Copy a same-geometry compiled BTB's ways and stamp, hits, misses
        and occupancy in place."""
        copy_buffers(self._planes, other._planes, self._di, other._di, (6, 7, 8, 9))


class IndirectTargetBufferC:
    """An iBTB's state in flat arrays, for the compiled cycle driver.

    The descriptor shares the BTB's layout, with tags stored in the ``pcs``
    array and the ``kinds`` plane unused; the driver hashes the set and
    tag exactly like :meth:`~repro.branch.btb.IndirectTargetBuffer._key`.
    """

    def __init__(self, entries: int, assoc: int, history_bits: int = 12) -> None:
        from repro.common import cc

        kernels = cc.kernels()
        if kernels is None:  # pragma: no cover - the simulator guards this
            raise RuntimeError("compiled kernels unavailable")
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        self.history_bits = history_bits
        ways = self.num_sets * assoc
        self._tags = zeros(ways, fill=-1)
        self._targets = zeros(ways)
        self._stamps = zeros(ways)
        self._planes = (self._tags, self._targets, self._stamps)
        di = zeros(10)
        di[0] = address(self._tags)
        di[1] = address(self._targets)  # kinds plane: never touched for iBTB
        di[2] = address(self._targets)
        di[3] = address(self._stamps)
        di[4] = self.num_sets
        di[5] = assoc
        # di[6]=stamp, di[7]=hits, di[8]=misses, di[9]=occupancy
        self._di = di
        self._desc = address(di)
        self._k_export = kernels.ways_export
        self._k_import = kernels.ways_import

    @property
    def hits(self) -> int:
        return self._di[7]

    @hits.setter
    def hits(self, value: int) -> None:
        self._di[7] = value

    @property
    def misses(self) -> int:
        return self._di[8]

    @misses.setter
    def misses(self, value: int) -> None:
        self._di[8] = value

    def state(self) -> dict:
        """Same packed format as :meth:`~repro.branch.btb.IndirectTargetBuffer.state`."""
        counts, tags, targets = export_ways(
            self._k_export, self._stamps, self.assoc, (self._tags, 8), (self._targets, 8)
        )
        return {
            "counts": counts,
            "tags": tags,
            "targets": targets,
            "hits": self.hits,
            "misses": self.misses,
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state` output in place (validated first)."""
        unpack(state, IBTB_PLANES, self.num_sets, self.assoc, "iBTB")
        hits, misses = int(state["hits"]), int(state["misses"])
        total = import_ways(
            self._k_import, self._stamps, self.assoc, self._di[6], state,
            (self._tags, 8, "tags"), (self._targets, 8, "targets"),
        )
        self._di[6] += total  # stamp
        self._di[9] = total  # occupancy
        self.hits = hits
        self.misses = misses

    def copy_from(self, other: "IndirectTargetBufferC") -> None:
        """Copy a same-geometry compiled iBTB's ways and stamp, hits, misses
        and occupancy in place."""
        copy_buffers(self._planes, other._planes, self._di, other._di, (6, 7, 8, 9))


class GlobalHistoryC:
    """The global history in flat arrays, for the compiled cycle driver.

    Raw bits live in uint64 words and the foldings in an int64 array the
    TAGE descriptor points into; the driver pushes outcomes in C
    (``hist_push_into``) and snapshots both arrays for its resteers.
    ``checkpoint``/``restore`` keep the object format
    ``(bits_int, tuple(folded))``, so warmup checkpoints round-trip between
    both implementations.
    """

    def __init__(self, max_length: int, foldings: list[tuple[int, int]]) -> None:
        self.max_length = max_length
        self._mask = (1 << max_length) - 1
        self.num_folds = count = len(foldings)
        self._folded_arr = zeros(count)
        self._folded_mv = memoryview(self._folded_arr)[:count]
        self._lengths = array("q", [l for l, _ in foldings] + [0])
        self._out_shifts = array("q", [l % w for l, w in foldings] + [0])
        self._widths = array("q", [w for _, w in foldings] + [1])
        self._masks_arr = array("q", [(1 << w) - 1 for _, w in foldings] + [0])
        # The shifted register covers max_length bits; extra zero words are
        # allocated (but never shifted into) so an out-bit read for a folding
        # length beyond max_length sees 0 — exactly what the interpreted
        # ``(bits >> (length - 1)) & 1`` yields on the masked integer.
        self._n_words = max(1, (max_length + 63) // 64)
        max_len = max([max_length] + [l for l, _ in foldings])
        alloc_words = max(self._n_words, (max_len + 63) // 64)
        self._words = zeros(alloc_words, "Q")
        self._words_bytes = memoryview(self._words).cast("B")
        top_bits = max_length - 64 * (self._n_words - 1)
        top_mask = (1 << top_bits) - 1
        di = zeros(9)
        di[0] = address(self._folded_arr)
        di[1] = address(self._lengths)
        di[2] = address(self._out_shifts)
        di[3] = address(self._widths)
        di[4] = address(self._masks_arr)
        di[5] = count
        di[6] = address(self._words)
        di[7] = self._n_words
        view(di, "Q")[8] = top_mask
        self._di = di
        self._desc = address(di)

    @property
    def bits(self) -> int:
        return int.from_bytes(self._words_bytes[: self._n_words * 8], "little")

    @bits.setter
    def bits(self, value: int) -> None:
        # Every allocated word: those above the shifted ones stay zero.
        self._words_bytes[:] = (value & self._mask).to_bytes(len(self._words_bytes), "little")

    def checkpoint(self) -> tuple[int, tuple[int, ...]]:
        return self.bits, tuple(self._folded_mv)

    def restore(self, state: tuple[int, tuple[int, ...]]) -> None:
        self.bits = state[0]
        put(self._folded_arr, state[1])

    state = checkpoint

    def load_state(self, state: tuple[int, tuple[int, ...]]) -> None:
        """:meth:`restore`, validated first."""
        check_history(state, self._mask, self.num_folds)
        self.restore(state)

    def copy_from(self, other: "GlobalHistoryC") -> None:
        """Copy a same-shape compiled history's words and folds in place."""
        copy_buffers((self._words, self._folded_arr), (other._words, other._folded_arr))


class TagePredictorC:
    """TAGE's tables in flat arrays, for the compiled cycle driver.

    Storage is three preallocated flat ``int64`` arrays of ``tables * size``
    entries (tags, signed counters, usefulness) plus the bimodal base's
    counter bytes, which the driver probes and trains in C
    (``repro/common/kernels/tage.c``).  The descriptor points into the
    shared :class:`GlobalHistoryC`'s fold array.
    ``use_alt_counter`` and ``_tick`` live in the descriptor so C-side
    updates are visible to :meth:`state`, whose format is
    :class:`~repro.branch.tage.TagePredictor`'s.
    """

    def __init__(self, config: BranchConfig, history: GlobalHistoryC) -> None:
        from repro.common import cc

        kernels = cc.kernels()
        if kernels is None:  # pragma: no cover - the simulator guards this
            raise RuntimeError("compiled kernels unavailable")
        self.config = config
        self.history = history
        self.base = BimodalPredictor(table_bits=13)
        self.hist_lengths = geometric_lengths(
            config.tage_tables, config.tage_min_hist, config.tage_max_hist
        )
        self._index_mask = (1 << config.tage_table_bits) - 1
        self._size = size = 1 << config.tage_table_bits
        self._num_tables = num_tables = len(self.hist_lengths)
        self._tags_arr = zeros(num_tables * size)
        self._ctrs_arr = zeros(num_tables * size)
        self._useful_arr = zeros(num_tables * size)
        self._tables_mv = tuple(
            memoryview(arr) for arr in (self._tags_arr, self._ctrs_arr, self._useful_arr)
        )
        self._idx_scratch = zeros(num_tables)
        self._tag_scratch = zeros(num_tables)
        di = zeros(24)
        di[0] = address(self._tags_arr)
        di[1] = address(self._ctrs_arr)
        di[2] = address(self._useful_arr)
        di[3] = num_tables
        di[4] = size
        di[5] = self._index_mask
        di[6] = (1 << config.tage_tag_bits) - 1
        di[7] = config.tage_table_bits
        di[8] = address(history._folded_arr)
        # di[9]/di[10]: the bimodal base's counters and index mask.  Loads
        # copy into that bytearray in place, and the memoryview held here
        # keeps it from resizing, so the pointer stays valid for the
        # predictor's lifetime.
        self._base_pin = memoryview(self.base.table)
        di[9] = kernels.buffer_address(self.base.table)
        di[10] = self.base.size - 1
        di[11] = config.tage_use_alt_threshold  # use_alt_counter
        di[12] = config.tage_use_alt_threshold
        # di[13]: tick; di[14..21]: prediction outputs
        di[22] = address(self._idx_scratch)
        di[23] = address(self._tag_scratch)
        self._di = di
        self._dmv = memoryview(di)
        self._desc = address(di)

    @property
    def use_alt_counter(self) -> int:
        return int(self._dmv[11])

    @use_alt_counter.setter
    def use_alt_counter(self, value: int) -> None:
        self._di[11] = value

    @property
    def _tick(self) -> int:
        return int(self._dmv[13])

    @_tick.setter
    def _tick(self, value: int) -> None:
        self._di[13] = value

    def _rows(self, t: int) -> slice:
        return slice(t * self._size, (t + 1) * self._size)

    def state(self) -> dict:
        """Same layout-neutral format as :meth:`~repro.branch.tage.TagePredictor.state`."""
        tags, ctrs, useful = self._tables_mv
        return {
            "base": bytes(self.base.table),
            "tables": [
                (
                    tags[self._rows(t)].tolist(),
                    ctrs[self._rows(t)].tolist(),
                    bytes(useful[self._rows(t)].tolist()),
                )
                for t in range(self._num_tables)
            ],
            "use_alt_counter": self.use_alt_counter,
            "tick": self._tick,
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state` output in place (validated first)."""
        tables_state = checked_tables(state, self._num_tables, self._size, self.base)
        tags_mv, ctrs_mv, useful_mv = self._tables_mv
        for t, (tags, ctrs, useful) in enumerate(tables_state):
            rows = self._rows(t)
            tags_mv[rows] = array("q", tags)
            ctrs_mv[rows] = array("q", ctrs)
            useful_mv[rows] = array("q", list(useful))
        self._base_pin[:] = state["base"]
        self.use_alt_counter = state["use_alt_counter"]
        self._tick = state["tick"]

    def copy_from(self, other: "TagePredictorC") -> None:
        """Copy a same-geometry compiled predictor's tables, bimodal base,
        ``use_alt_counter`` and tick in place (C points into all of them)."""
        copy_buffers(
            (*self._tables_mv, self._base_pin),
            (*other._tables_mv, other._base_pin),
            self._di, other._di, (11, 13),
        )


class LoopPredictorC:
    """The loop predictor's table in flat arrays, for the compiled cycle driver.

    The driver predicts, trains and resets it in C (``loop_predict``,
    ``loop_update`` and the recovery in ``repro/common/kernels/driver.c``,
    ``LoopDesc`` in ``kernels.h``), exactly like
    :class:`~repro.branch.loop_predictor.LoopPredictor`, which stays the
    oracle.  An empty slot has tag -1.
    """

    def __init__(self, entries: int = 64, confidence_threshold: int = 3,
                 max_trip: int = 4096) -> None:
        if entries & (entries - 1):
            raise ValueError("loop predictor size must be a power of two")
        self.entries = entries
        self.confidence_threshold = confidence_threshold
        self.max_trip = max_trip
        self._columns = (zeros(entries, fill=-1), zeros(entries), zeros(entries), zeros(entries))
        di = zeros(9)
        for i, column in enumerate(self._columns):
            di[i] = address(column)
        di[4] = entries - 1
        di[5] = confidence_threshold
        di[6] = max_trip
        # di[7]=overrides, di[8]=correct_overrides
        self._di = di
        self._desc = address(di)

    @property
    def overrides(self) -> int:
        return self._di[7]

    @property
    def correct_overrides(self) -> int:
        return self._di[8]

    def state(self) -> list[tuple[int, int, int, int] | None]:
        """Same format as :meth:`~repro.branch.loop_predictor.LoopPredictor.state`."""
        return [
            None if row[0] == -1 else row
            for row in zip(*(column.tolist() for column in self._columns))
        ]
