"""Global branch history for history-indexed predictors.

Implements the folded-history scheme used by TAGE: a single global history
register (shifted on every predicted branch) plus, per tagged table, two
circular-shift-register foldings (index and tag widths) that are updated
incrementally in O(1) per branch.

The history is *speculative*: it is updated at prediction time by the
decoupled frontend (including on the wrong path) and restored from a
checkpoint on resteer, which is how real FDIP frontends behave.  The
compiled cycle driver's twin is
:class:`~repro.branch.compiled.GlobalHistoryC`.
"""

from __future__ import annotations

from repro.branch.compiled import check_history
from repro.common.packed import Stateful


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
        check_history(state, self._mask, len(self.folded))
        self.restore(state)
