"""TAGE conditional-branch direction predictor with confidence classes.

A faithful TAGE core: a bimodal base predictor plus ``N`` tagged tables
indexed by geometrically increasing global-history lengths (folded in O(1)
by :class:`~repro.branch.history.GlobalHistory`).  The longest-history hit
provides the prediction; allocation-on-mispredict, usefulness counters with
periodic aging, and the use-alt-on-newly-allocated heuristic follow the
reference design (Seznec's TAGE; the paper's baseline is TAGE-SC-L — we omit
the statistical corrector and loop predictor, documented in DESIGN.md).

The paper's UDP mechanism consumes the predictor's *confidence*
(High / Medium / Low), derived from the provider counter magnitude exactly
as in the TAGE literature: a weak counter is Low, a saturated one is High.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.branch.bimodal import BimodalPredictor
from repro.branch.history import GlobalHistory, GlobalHistoryC
from repro.common.cc import resolve_compiled
from repro.common.config import BranchConfig
from repro.common.packed import address, zeros

CONF_LOW = 0
CONF_MEDIUM = 1
CONF_HIGH = 2

CONFIDENCE_NAMES = {CONF_LOW: "low", CONF_MEDIUM: "medium", CONF_HIGH: "high"}


@dataclass
class TagePrediction:
    """A direction prediction plus everything needed to train it later."""

    pc: int
    taken: bool
    confidence: int
    provider: int  # tagged-table index, or -1 for bimodal
    provider_index: int
    alt_taken: bool
    alt_provider: int
    alt_index: int
    indices: tuple[int, ...]
    tags: tuple[int, ...]
    newly_allocated: bool
    # Set by the branch unit when the loop predictor overrides TAGE
    # (TAGE-SC-L's "L" component); None = no override.
    loop_override: bool | None = None


def _geometric_lengths(n: int, lo: int, hi: int) -> list[int]:
    """Geometric history-length series from ``lo`` to ``hi`` over ``n`` tables."""
    lengths = []
    for i in range(n):
        value = lo * (hi / lo) ** (i / (n - 1)) if n > 1 else lo
        length = int(round(value))
        if lengths and length <= lengths[-1]:
            length = lengths[-1] + 1
        lengths.append(length)
    return lengths


class _TaggedTable:
    """One tagged TAGE component."""

    __slots__ = ("size", "tag_mask", "tags", "ctrs", "useful")

    def __init__(self, table_bits: int, tag_bits: int) -> None:
        self.size = 1 << table_bits
        self.tag_mask = (1 << tag_bits) - 1
        self.tags = [0] * self.size
        # Signed saturating counters in [-4, 3]; >= 0 predicts taken.
        self.ctrs = [0] * self.size
        self.useful = bytearray(self.size)


class TagePredictor:
    """TAGE with a bimodal base and geometric tagged tables."""

    def __init__(self, config: BranchConfig, history: GlobalHistory) -> None:
        self.config = config
        self.history = history
        self.base = BimodalPredictor(table_bits=13)
        self.hist_lengths = _geometric_lengths(
            config.tage_tables, config.tage_min_hist, config.tage_max_hist
        )
        self.tables = [
            _TaggedTable(config.tage_table_bits, config.tage_tag_bits)
            for _ in self.hist_lengths
        ]
        self._index_mask = (1 << config.tage_table_bits) - 1
        # use_alt_on_na: 4-bit counter; >= threshold prefers the alternate
        # prediction when the provider entry is newly allocated.
        self.use_alt_counter = config.tage_use_alt_threshold
        self._tick = 0

    @staticmethod
    def expected_foldings(config: BranchConfig) -> list[tuple[int, int]]:
        """The (history length, fold width) pairs this predictor requires.

        The owning branch unit constructs the shared :class:`GlobalHistory`
        with exactly these foldings: one index fold and one tag fold per
        tagged table, in table order.
        """
        lengths = _geometric_lengths(
            config.tage_tables, config.tage_min_hist, config.tage_max_hist
        )
        foldings = []
        for length in lengths:
            foldings.append((length, config.tage_table_bits))
            foldings.append((length, config.tage_tag_bits))
        return foldings

    # -- index/tag computation ----------------------------------------------

    def _index(self, pc: int, table: int) -> int:
        fold = self.history.folded[2 * table].folded
        return ((pc >> 2) ^ (pc >> (self.config.tage_table_bits + 2)) ^ fold) & self._index_mask

    def _tag(self, pc: int, table: int) -> int:
        fold = self.history.folded[2 * table + 1].folded
        return ((pc >> 2) ^ (fold << 1) ^ (fold >> 1)) & self.tables[table].tag_mask

    # -- prediction ----------------------------------------------------------

    def predict(self, pc: int) -> TagePrediction:
        """Predict the direction of the conditional branch at ``pc``."""
        # Inlined _index/_tag: this is the hottest predictor leaf (one call
        # per scanned branch), so the per-table method calls matter.
        tables = self.tables
        folded = self.history.folded
        index_mask = self._index_mask
        pc_idx = (pc >> 2) ^ (pc >> (self.config.tage_table_bits + 2))
        pc_tag = pc >> 2
        indices_list = []
        tags_list = []
        for t, table in enumerate(tables):
            indices_list.append((pc_idx ^ folded[2 * t].folded) & index_mask)
            f = folded[2 * t + 1].folded
            tags_list.append((pc_tag ^ (f << 1) ^ (f >> 1)) & table.tag_mask)
        indices = tuple(indices_list)
        tags = tuple(tags_list)

        provider = -1
        alt_provider = -1
        for t in range(len(tables) - 1, -1, -1):
            if tables[t].tags[indices[t]] == tags[t]:
                if provider < 0:
                    provider = t
                else:
                    alt_provider = t
                    break

        if alt_provider >= 0:
            alt_index = indices[alt_provider]
            alt_taken = self.tables[alt_provider].ctrs[alt_index] >= 0
        else:
            alt_index = -1
            alt_taken = self.base.predict(pc)

        if provider >= 0:
            index = indices[provider]
            ctr = self.tables[provider].ctrs[index]
            newly_allocated = (
                self.tables[provider].useful[index] == 0 and ctr in (-1, 0)
            )
            if newly_allocated and self.use_alt_counter >= self.config.tage_use_alt_threshold:
                taken = alt_taken
            else:
                taken = ctr >= 0
            confidence = self._confidence_from_ctr(ctr)
        else:
            index = -1
            newly_allocated = False
            taken = alt_taken
            confidence = self._confidence_from_base(pc)

        return TagePrediction(
            pc=pc,
            taken=taken,
            confidence=confidence,
            provider=provider,
            provider_index=index,
            alt_taken=alt_taken,
            alt_provider=alt_provider,
            alt_index=alt_index,
            indices=indices,
            tags=tags,
            newly_allocated=newly_allocated,
        )

    @staticmethod
    def _confidence_from_ctr(ctr: int) -> int:
        """Map a signed 3-bit counter to High/Medium/Low confidence."""
        magnitude = abs(2 * ctr + 1)  # 1, 3, 5, 7
        if magnitude >= 5:
            return CONF_HIGH
        if magnitude >= 3:
            return CONF_MEDIUM
        return CONF_LOW

    def _confidence_from_base(self, pc: int) -> int:
        counter = self.base.counter(pc)
        if counter in (0, 3):
            return CONF_HIGH  # saturated bimodal: a stable, well-known branch
        return CONF_LOW

    # -- training --------------------------------------------------------------

    def update(self, prediction: TagePrediction, taken: bool) -> None:
        """Train with the resolved outcome of a previously made prediction."""
        pc = prediction.pc
        mispredicted = prediction.taken != taken

        # use_alt_on_na bookkeeping: when the provider was newly allocated and
        # provider/alt disagreed, learn which one to trust.
        if (
            prediction.provider >= 0
            and prediction.newly_allocated
            and (self.tables[prediction.provider].ctrs[prediction.provider_index] >= 0)
            != prediction.alt_taken
        ):
            provider_correct = (
                self.tables[prediction.provider].ctrs[prediction.provider_index] >= 0
            ) == taken
            if provider_correct and self.use_alt_counter > 0:
                self.use_alt_counter -= 1
            elif not provider_correct and self.use_alt_counter < 15:
                self.use_alt_counter += 1

        if prediction.provider >= 0:
            table = self.tables[prediction.provider]
            index = prediction.provider_index
            provider_taken = table.ctrs[index] >= 0
            # Usefulness: provider differs from alternate and was correct.
            if provider_taken != prediction.alt_taken:
                if provider_taken == taken:
                    if table.useful[index] < 3:
                        table.useful[index] += 1
                elif table.useful[index] > 0:
                    table.useful[index] -= 1
            self._update_ctr(table, index, taken)
            # Also train the alternate/base when the entry was new and useless.
            if prediction.newly_allocated:
                if prediction.alt_provider >= 0:
                    self._update_ctr(
                        self.tables[prediction.alt_provider], prediction.alt_index, taken
                    )
                else:
                    self.base.update(pc, taken)
        else:
            self.base.update(pc, taken)

        if mispredicted:
            self._allocate(prediction, taken)
            self._tick += 1
            if self._tick >= 1 << 14:
                self._age_useful()
                self._tick = 0

    @staticmethod
    def _update_ctr(table: _TaggedTable, index: int, taken: bool) -> None:
        ctr = table.ctrs[index]
        if taken:
            if ctr < 3:
                table.ctrs[index] = ctr + 1
        elif ctr > -4:
            table.ctrs[index] = ctr - 1

    def _allocate(self, prediction: TagePrediction, taken: bool) -> None:
        """Allocate an entry in a longer-history table after a misprediction."""
        start = prediction.provider + 1
        # Find the first longer table with a dead (u == 0) entry.
        for t in range(start, len(self.tables)):
            table = self.tables[t]
            index = prediction.indices[t]
            if table.useful[index] == 0:
                table.tags[index] = prediction.tags[t]
                table.ctrs[index] = 0 if taken else -1
                return
        # No room: decay usefulness along the way (standard TAGE behaviour).
        for t in range(start, len(self.tables)):
            table = self.tables[t]
            index = prediction.indices[t]
            if table.useful[index] > 0:
                table.useful[index] -= 1

    def _age_useful(self) -> None:
        """Periodic graceful reset of usefulness counters."""
        for table in self.tables:
            useful = table.useful
            for i in range(table.size):
                if useful[i]:
                    useful[i] -= 1

    # -- checkpoint serialization (layout-neutral) ----------------------------

    def state_dict(self) -> dict:
        """Serializable predictor state, independent of the table layout.

        The same format is produced and consumed by :class:`TagePredictor`
        and :class:`TagePredictorC`, so a warmup checkpoint captured by
        either restores into the other (cross-mode round-trips in
        ``tests/sim/test_modes.py``).
        """
        return {
            "base": bytes(self.base.table),
            "tables": [
                (list(t.tags), list(t.ctrs), bytes(t.useful)) for t in self.tables
            ],
            "use_alt_counter": self.use_alt_counter,
            "tick": self._tick,
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place (geometry must match)."""
        tables_state = state["tables"]
        if len(tables_state) != len(self.tables):
            raise ValueError("TAGE table count mismatch")
        for table, (tags, ctrs, useful) in zip(self.tables, tables_state):
            if any(len(part) != table.size for part in (tags, ctrs, useful)):
                raise ValueError("TAGE table geometry mismatch")
            table.tags[:] = tags
            table.ctrs[:] = ctrs
            table.useful[:] = useful
        self._load_base(state["base"])
        self.use_alt_counter = state["use_alt_counter"]
        self._tick = state["tick"]

    def _load_base(self, table: bytes) -> None:
        """Copy the bimodal counters in place (never swap the object)."""
        if len(table) != self.base.size:
            raise ValueError("bimodal table geometry mismatch")
        self.base.table[:] = table


class TagePredictorC(TagePredictor):
    """TAGE with compiled predict/update kernels over structure-of-arrays tables.

    Storage is three preallocated flat ``int64`` arrays of ``tables * size``
    entries (tags, signed counters, usefulness) the kernels address through
    raw pointers.
    One C call per prediction (all index/tag folds, the provider scan, and
    the confidence classification) and one per training event (including
    allocation and the periodic usefulness aging).  Requires the shared
    history to be a :class:`~repro.branch.history.GlobalHistoryC`, whose
    folded-fold array the descriptor points into.  ``use_alt_counter`` and
    ``_tick`` live in the descriptor so C-side updates are visible to
    ``state_dict``.  Byte-identical to :class:`TagePredictor` in
    predictions, allocations, and counters (``tests/sim/test_modes.py``).
    """

    def __init__(self, config: BranchConfig, history: GlobalHistoryC) -> None:
        from repro.common import cc

        kernels = cc.kernels()
        if kernels is None or not isinstance(history, GlobalHistoryC):
            raise RuntimeError("compiled kernels unavailable")
        self.config = config
        self.history = history
        self.base = BimodalPredictor(table_bits=13)
        self.hist_lengths = _geometric_lengths(
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
        self.tables = None  # table state lives in the arrays; fail loudly
        self._idx_scratch = zeros(num_tables)
        self._tag_scratch = zeros(num_tables)
        self._idx_mv = memoryview(self._idx_scratch)[:num_tables]
        self._tag_mv = memoryview(self._tag_scratch)[:num_tables]
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
        self._k_predict = kernels.tage_predict
        self._k_update = kernels.tage_update

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

    def predict(self, pc: int) -> TagePrediction:
        """Predict the direction of the conditional branch at ``pc``."""
        self._k_predict(self._desc, pc)
        dmv = self._dmv
        return TagePrediction(
            pc=pc,
            taken=bool(dmv[14]),
            confidence=dmv[15],
            provider=dmv[16],
            provider_index=dmv[17],
            alt_taken=bool(dmv[18]),
            alt_provider=dmv[19],
            alt_index=dmv[20],
            indices=tuple(self._idx_mv),
            tags=tuple(self._tag_mv),
            newly_allocated=bool(dmv[21]),
        )

    def update(self, prediction: TagePrediction, taken: bool) -> None:
        """Train with the resolved outcome of a previously made prediction."""
        self._k_update(
            self._desc,
            prediction.pc,
            1 if taken else 0,
            1 if prediction.taken else 0,
            prediction.provider,
            prediction.provider_index,
            1 if prediction.alt_taken else 0,
            prediction.alt_provider,
            prediction.alt_index,
            1 if prediction.newly_allocated else 0,
            prediction.indices,
            prediction.tags,
        )

    def _rows(self, t: int) -> slice:
        return slice(t * self._size, (t + 1) * self._size)

    def state_dict(self) -> dict:
        """Same layout-neutral format as :meth:`TagePredictor.state_dict`."""
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
        """Restore :meth:`state_dict` output in place (geometry must match)."""
        tables_state = state["tables"]
        if len(tables_state) != self._num_tables:
            raise ValueError("TAGE table count mismatch")
        tags_mv, ctrs_mv, useful_mv = self._tables_mv
        for t, (tags, ctrs, useful) in enumerate(tables_state):
            if any(len(part) != self._size for part in (tags, ctrs, useful)):
                raise ValueError("TAGE table geometry mismatch")
            rows = self._rows(t)
            tags_mv[rows] = array("q", tags)
            ctrs_mv[rows] = array("q", ctrs)
            useful_mv[rows] = array("q", list(useful))
        self._load_base(state["base"])
        self.use_alt_counter = state["use_alt_counter"]
        self._tick = state["tick"]


def tage_from_config(
    config: BranchConfig,
    history: GlobalHistory,
    compiled: bool | None = None,
) -> TagePredictor:
    """Construct the TAGE predictor (C kernels when ``compiled`` resolves on
    and the shared history is the compiled one)."""
    if resolve_compiled(compiled) and isinstance(history, GlobalHistoryC):
        return TagePredictorC(config, history)
    return TagePredictor(config, history)
