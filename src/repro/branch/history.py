"""Global branch history for history-indexed predictors.

Implements the folded-history scheme used by TAGE: a single global history
register (shifted on every predicted branch) plus, per tagged table, two
circular-shift-register foldings (index and tag widths) that are updated
incrementally in O(1) per branch.

The history is *speculative*: it is updated at prediction time by the
decoupled frontend (including on the wrong path) and restored from a
checkpoint on resteer, which is how real FDIP frontends behave.
"""

from __future__ import annotations

from array import array

from repro.common.packed import Stateful, address, copy_buffers, put, view, zeros


class FoldedHistory:
    """Incrementally folds the most recent ``length`` history bits into ``width`` bits."""

    __slots__ = ("length", "width", "folded", "_out_shift", "_mask")

    def __init__(self, length: int, width: int) -> None:
        self.length = length
        self.width = width
        self.folded = 0
        self._out_shift = length % width
        self._mask = (1 << width) - 1

    def update(self, new_bit: int, outgoing_bit: int) -> None:
        """Shift in ``new_bit`` and retire ``outgoing_bit`` (the bit aged out)."""
        folded = (self.folded << 1) | new_bit
        folded ^= outgoing_bit << self._out_shift
        folded ^= folded >> self.width  # fold the carry-out back in
        self.folded = folded & self._mask

    def snapshot(self) -> int:
        return self.folded

    def restore(self, value: int) -> None:
        self.folded = value


class GlobalHistory(Stateful):
    """The speculative global history register with checkpoint/restore.

    Keeps the raw history as an integer bit-vector (newest bit = LSB) plus
    per-(length, width) folded registers for TAGE.  ``checkpoint()`` returns
    an opaque state usable by ``restore()`` after a pipeline flush; the
    state protocol (:mod:`repro.common.packed`) uses the same tuple.
    """

    def __init__(self, max_length: int, foldings: list[tuple[int, int]]) -> None:
        self.max_length = max_length
        self.bits = 0
        self._mask = (1 << max_length) - 1
        self.folded = [FoldedHistory(length, width) for length, width in foldings]

    def push(self, taken: bool) -> None:
        """Record one branch outcome (speculatively)."""
        new_bit = 1 if taken else 0
        bits = self.bits
        # Inlined FoldedHistory.update: this runs for every predicted branch
        # times every folding register (~2 per TAGE table), so the method
        # call per fold is the dominant cost at this leaf.
        for f in self.folded:
            folded = (f.folded << 1) | new_bit
            folded ^= ((bits >> (f.length - 1)) & 1) << f._out_shift
            folded ^= folded >> f.width
            f.folded = folded & f._mask
        self.bits = ((bits << 1) | new_bit) & self._mask

    def low_bits(self, n: int) -> int:
        """The ``n`` most recent outcome bits."""
        return self.bits & ((1 << n) - 1)

    def checkpoint(self) -> tuple[int, tuple[int, ...]]:
        """Snapshot the full speculative history state."""
        return self.bits, tuple(f.folded for f in self.folded)

    def restore(self, state: tuple[int, tuple[int, ...]]) -> None:
        """Restore a snapshot taken by :meth:`checkpoint` (resteer recovery)."""
        self.bits, folded_values = state
        for folded, value in zip(self.folded, folded_values):
            folded.restore(value)

    state = checkpoint

    def load_state(self, state: tuple[int, tuple[int, ...]]) -> None:
        """:meth:`restore`, validated first."""
        _check_history(state, self._mask, len(self.folded))
        self.restore(state)


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
        _check_history(state, self._mask, self.num_folds)
        self.restore(state)

    def copy_from(self, other: "GlobalHistoryC") -> None:
        """Copy a same-shape compiled history's words and folds in place."""
        copy_buffers((self._words, self._folded_arr), (other._words, other._folded_arr))


def _check_history(state: tuple[int, tuple[int, ...]], mask: int, folds: int) -> None:
    """ValueError unless ``state`` is ``(bits within mask, one int per folding)``."""
    bits, folded = state
    if (
        type(bits) is not int
        or bits & ~mask
        or len(folded) != folds
        or not all(type(value) is int for value in folded)
    ):
        raise ValueError(f"history state is not (bits, {folds} folded registers)")
