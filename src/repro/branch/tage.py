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
The compiled cycle driver's twin, and what both share, are in
:mod:`repro.branch.compiled`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.branch.bimodal import BimodalPredictor
from repro.branch.compiled import (
    CONF_HIGH,
    CONF_LOW,
    CONF_MEDIUM,
    checked_tables,
    geometric_lengths,
)
from repro.branch.history import GlobalHistory
from repro.common.config import BranchConfig
from repro.common.packed import Stateful


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


class TagePredictor(Stateful):
    """TAGE with a bimodal base and geometric tagged tables."""

    def __init__(self, config: BranchConfig, history: GlobalHistory) -> None:
        self.config = config
        self.history = history
        self.base = BimodalPredictor(table_bits=13)
        self.hist_lengths = geometric_lengths(
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

    # -- state protocol (repro.common.packed) --------------------------------

    def state(self) -> dict:
        """Serializable predictor state, independent of the table layout.

        The same format is produced and consumed by :class:`TagePredictor`
        and :class:`~repro.branch.compiled.TagePredictorC`, so a warmup
        checkpoint captured by either restores into the other (cross-mode
        round-trips in ``tests/sim/test_modes.py``).
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
        """Restore :meth:`state` output in place (validated first)."""
        size = 1 << self.config.tage_table_bits
        tables_state = checked_tables(state, len(self.tables), size, self.base)
        for table, (tags, ctrs, useful) in zip(self.tables, tables_state):
            table.tags[:] = tags
            table.ctrs[:] = ctrs
            table.useful[:] = useful
        self.base.table[:] = state["base"]  # in place: never swap the object
        self.use_alt_counter = state["use_alt_counter"]
        self._tick = state["tick"]
