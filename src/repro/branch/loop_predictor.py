"""Loop predictor: the "L" component of TAGE-SC-L.

Detects branches with a stable trip count (loop back-edges) and overrides
TAGE with a perfect trip-count prediction once the count has been confirmed
``confidence_threshold`` times.  The paper's baseline predictor is
TAGE-SC-L; the core TAGE implementation in :mod:`repro.branch.tage` omits
the loop component, so this module restores it as an optional extension
(enable via ``BranchConfig.use_loop_predictor`` — see
``BranchPredictionUnit``).

Each entry tracks: the learned trip count, the current iteration counter,
and a confidence counter.  Prediction: taken while the iteration counter is
below ``trip - 1``, not-taken at the boundary.  Speculative iteration state
is checkpointed by sequence number and repaired on resteer by the owning
unit (simplification: we reset the iteration counter on recovery, which
costs at most one trip of re-learning).  The compiled cycle driver's twin
is :class:`~repro.branch.compiled.LoopPredictorC`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class _LoopEntry:
    tag: int
    trip_count: int = 0  # learned iterations per loop (0 = unknown)
    current: int = 0  # iterations seen in the current traversal
    confidence: int = 0
    age: int = 0


class LoopPredictor:
    """Direct-mapped loop-termination predictor."""

    def __init__(self, entries: int = 64, confidence_threshold: int = 3,
                 max_trip: int = 4096) -> None:
        if entries & (entries - 1):
            raise ValueError("loop predictor size must be a power of two")
        self.entries = entries
        self.confidence_threshold = confidence_threshold
        self.max_trip = max_trip
        self._table: list[_LoopEntry | None] = [None] * entries
        self.overrides = 0
        self.correct_overrides = 0

    def _slot(self, pc: int) -> int:
        return (pc >> 2) & (self.entries - 1)

    def _entry(self, pc: int) -> _LoopEntry | None:
        entry = self._table[self._slot(pc)]
        if entry is not None and entry.tag == pc:
            return entry
        return None

    def predict(self, pc: int) -> bool | None:
        """Confident trip-count prediction, or None to defer to TAGE."""
        entry = self._entry(pc)
        if (
            entry is None
            or entry.confidence < self.confidence_threshold
            or entry.trip_count == 0
        ):
            return None
        self.overrides += 1
        return entry.current < entry.trip_count - 1

    def update(self, pc: int, taken: bool, predicted: bool | None = None) -> None:
        """Observe a resolved outcome; learn/confirm the trip count."""
        if predicted is not None and predicted == taken:
            self.correct_overrides += 1
        slot = self._slot(pc)
        entry = self._table[slot]
        if entry is None or entry.tag != pc:
            # Allocate only on a not-taken outcome (a potential loop exit):
            # back-edges are taken almost always, so exits delimit trips.
            if not taken:
                self._table[slot] = _LoopEntry(tag=pc)
            return
        if taken:
            entry.current += 1
            if entry.current > self.max_trip:
                # Not a bounded loop: poison the entry.
                entry.trip_count = 0
                entry.confidence = 0
                entry.current = 0
            return
        # Loop exit: the traversal had (current + 1) iterations.
        observed_trip = entry.current + 1
        if observed_trip == entry.trip_count:
            if entry.confidence < self.confidence_threshold:
                entry.confidence += 1
        else:
            entry.trip_count = observed_trip
            entry.confidence = 0
        entry.current = 0

    def reset_speculation(self) -> None:
        """Pipeline flush: drop in-flight iteration counts (cheap repair)."""
        for entry in self._table:
            if entry is not None:
                entry.current = 0

    @property
    def override_accuracy(self) -> float:
        if self.overrides == 0:
            return 1.0
        return self.correct_overrides / self.overrides

    def state(self) -> list[tuple[int, int, int, int] | None]:
        """Per slot ``(tag, trip_count, current, confidence)``, or None."""
        return [
            None if e is None else (e.tag, e.trip_count, e.current, e.confidence)
            for e in self._table
        ]
