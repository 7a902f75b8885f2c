"""Deterministic branch-outcome behaviours.

Each static branch owns a behaviour object mapping a *dynamic occurrence
index* to a ground-truth outcome.  Outcomes are pure functions of
``(branch seed, occurrence index)`` via a 64-bit mixing hash, so they are
random-access (no replay state) and exactly reproducible.

The behaviour mix is what gives each synthetic workload its branch
*predictability* profile: loop and pattern behaviours are learnable by TAGE,
biased behaviours are learnable by the bimodal base, and noisy/random
behaviours produce the irreducible misprediction floor that characterises
workloads like ``xgboost``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import GOLDEN, MASK64, mix64


def unit_hash(seed: int, index: int) -> float:
    """Deterministic uniform value in [0, 1) for ``(seed, index)``."""
    return mix64(seed ^ (index * GOLDEN & MASK64)) / float(1 << 64)


class DirectionBehavior:
    """Base class: ground-truth taken/not-taken per occurrence."""

    def taken(self, occurrence: int) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class AlwaysTaken(DirectionBehavior):
    """Unconditionally taken (used for testing and trivial CFGs)."""

    def taken(self, occurrence: int) -> bool:
        return True


@dataclass(frozen=True)
class BiasedBehavior(DirectionBehavior):
    """Taken with independent probability ``p_taken`` per occurrence.

    With ``p_taken`` near 0 or 1 this is easy for a bimodal predictor; near
    0.5 it is unpredictable by any history-based mechanism — the model of a
    data-dependent branch.
    """

    seed: int
    p_taken: float

    def taken(self, occurrence: int) -> bool:
        return unit_hash(self.seed, occurrence) < self.p_taken


@dataclass(frozen=True)
class LoopBehavior(DirectionBehavior):
    """A loop back-edge: taken ``trip_count - 1`` times, then not taken.

    Perfectly learnable by TAGE once the history covers the trip count.
    """

    trip_count: int

    def taken(self, occurrence: int) -> bool:
        if self.trip_count <= 1:
            return False
        return (occurrence % self.trip_count) != self.trip_count - 1


@dataclass(frozen=True)
class PatternBehavior(DirectionBehavior):
    """A repeating bit pattern with per-occurrence noise flips.

    ``pattern`` is an int whose low ``length`` bits repeat; ``noise`` is the
    probability that an occurrence's outcome is flipped, setting the
    learnability ceiling for history predictors.
    """

    seed: int
    pattern: int
    length: int
    noise: float = 0.0

    def taken(self, occurrence: int) -> bool:
        bit = bool((self.pattern >> (occurrence % self.length)) & 1)
        if self.noise > 0.0 and unit_hash(self.seed ^ 0xA5A5, occurrence) < self.noise:
            return not bit
        return bit


@dataclass(frozen=True)
class PhasedBehavior(DirectionBehavior):
    """Alternates between two sub-behaviours every ``phase_length`` occurrences.

    Models program phase changes (the paper's motivation for keeping UFTQ
    always-on).
    """

    first: DirectionBehavior
    second: DirectionBehavior
    phase_length: int

    def taken(self, occurrence: int) -> bool:
        phase = (occurrence // self.phase_length) % 2
        active = self.first if phase == 0 else self.second
        return active.taken(occurrence)


class TargetBehavior:
    """Base class: ground-truth indirect-branch target selection.

    Behaviours select an *index* into the owning branch's target list rather
    than an address, so programs can be built with forward label references
    (addresses are patched after the behaviour is constructed).
    """

    def select(self, occurrence: int, num_targets: int) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class FixedTarget(TargetBehavior):
    """Monomorphic indirect branch (always the same target)."""

    index: int = 0

    def select(self, occurrence: int, num_targets: int) -> int:
        return self.index


@dataclass(frozen=True)
class WeightedTargets(TargetBehavior):
    """Polymorphic indirect branch: targets drawn from a fixed distribution.

    ``hot_fraction`` of occurrences go to the first target; the rest are
    spread uniformly over the remaining targets.  With few targets and a high
    hot fraction this is learnable by the indirect target buffer; with many
    equally likely targets it is not (virtual-dispatch-heavy code).
    """

    seed: int
    hot_fraction: float = 0.8

    def select(self, occurrence: int, num_targets: int) -> int:
        if num_targets == 1:
            return 0
        u = unit_hash(self.seed, occurrence)
        if u < self.hot_fraction:
            return 0
        rest = num_targets - 1
        idx = int((u - self.hot_fraction) / (1.0 - self.hot_fraction) * rest)
        return 1 + min(idx, rest - 1)


@dataclass(frozen=True)
class ZipfTargets(TargetBehavior):
    """Zipf-distributed target selection (heavy head, long tail).

    Models call-site popularity in datacenter code: a dispatcher with a
    Zipf ``alpha`` near 1 concentrates reuse on hot functions while still
    covering the whole footprint over time; ``alpha`` near 0 approaches
    uniform traversal (low reuse, the ``xgboost`` regime).
    """

    seed: int
    alpha: float = 1.0

    def select(self, occurrence: int, num_targets: int) -> int:
        if num_targets == 1:
            return 0
        # Inverse-CDF sampling against the (cached-per-call) Zipf weights is
        # too slow per occurrence; use the standard approximation
        # index ~ floor(N * u^(1/(1-alpha))) for alpha < 1, and a harmonic
        # inverse for alpha == 1.
        u = unit_hash(self.seed, occurrence)
        if self.alpha <= 0.0:
            return int(u * num_targets)
        if self.alpha >= 0.999:
            # u -> N^u - 1 maps uniform u to a log-spread rank in [0, N).
            idx = int(num_targets**u) - 1
        else:
            idx = int(num_targets * u ** (1.0 / (1.0 - self.alpha)))
        return min(max(idx, 0), num_targets - 1)


@dataclass(frozen=True)
class RotatingTargets(TargetBehavior):
    """Cycles deterministically through the target list.

    Learnable by a history-indexed indirect predictor, unlearnable by a
    last-target one — used to differentiate ITB designs.
    """

    def select(self, occurrence: int, num_targets: int) -> int:
        return occurrence % num_targets
