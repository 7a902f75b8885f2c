"""The branch prediction unit (BPU) facade.

Owns the shared speculative global history, the TAGE direction predictor,
the BTB, the indirect target buffer, and the return address stack; exposes
the operations the decoupled frontend walker needs:

* ``probe_btb`` — branch discovery inside a fetch block,
* ``predict_cond`` / ``predict_indirect`` / ``predict_return`` — target and
  direction prediction,
* ``speculate`` — push a predicted outcome into the speculative history,
* ``divergence_checkpoint`` — capture the corrected history at the point a
  misprediction is detected, for restoration when the branch resolves,
* ``recover`` — restore history and repair the RAS after a resteer.

Training entry points are called by the simulator with ground-truth
outcomes for on-path branches only (wrong-path work is squashed, so real
hardware never commits its training either).

The unit holds either the object structures, which those methods drive, or
their compiled twins (:mod:`repro.branch.compiled`), which only the
compiled cycle driver predicts and trains; the factories below import only
the side they build.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.branch.compiled import tage_foldings
from repro.branch.ras import ReturnAddressStack
from repro.common.config import BranchConfig
from repro.common.counters import Counters
from repro.workloads.program import BranchKind

if TYPE_CHECKING:  # the object structures load only where they run
    from repro.branch.btb import BTBEntry
    from repro.branch.tage import TagePrediction

HistoryState = tuple[int, tuple[int, ...]]


def btb_class(compiled: bool) -> type:
    """The compiled cycle driver's BTB arrays (``compiled``), else the
    object BTB; only the side asked for is imported."""
    if compiled:
        from repro.branch.compiled import BranchTargetBufferC as cls
    else:
        from repro.branch.btb import BranchTargetBuffer as cls
    return cls


def btb_from_config(config: BranchConfig, compiled: bool = False):
    """Construct the branch-discovery BTB.

    ``btb_levels == 1`` gives Table II's monolithic BTB; ``2`` gives the
    related-work hierarchical organization (see
    :mod:`repro.branch.two_level_btb`).  ``compiled`` selects the compiled
    cycle driver's array classes.
    """
    if config.btb_levels == 2:
        from repro.branch.two_level_btb import TwoLevelBTB

        return TwoLevelBTB(
            l1_entries=config.l1_btb_entries,
            l1_assoc=config.l1_btb_assoc,
            l2_entries=config.btb_entries,
            l2_assoc=config.btb_assoc,
            compiled=compiled,
        )
    return btb_class(compiled)(config.btb_entries, config.btb_assoc)


def ibtb_from_config(config: BranchConfig, compiled: bool = False):
    """Construct the indirect target buffer per Table II."""
    if compiled:
        from repro.branch.compiled import IndirectTargetBufferC as cls
    else:
        from repro.branch.btb import IndirectTargetBuffer as cls
    return cls(config.ibtb_entries, config.ibtb_assoc)


def tage_from_config(config: BranchConfig, history, compiled: bool = False):
    """The compiled cycle driver's TAGE arrays over a
    :class:`~repro.branch.compiled.GlobalHistoryC` (``compiled``), else the
    object predictor over a :class:`~repro.branch.history.GlobalHistory`."""
    if compiled:
        from repro.branch.compiled import TagePredictorC as cls
    else:
        from repro.branch.tage import TagePredictor as cls
    return cls(config, history)


class BranchPredictionUnit:
    """All branch prediction state of the decoupled frontend."""

    def __init__(
        self,
        config: BranchConfig,
        counters: Counters | None = None,
        compiled: bool = False,
    ) -> None:
        self.config = config
        self.counters = counters if counters is not None else Counters()
        # ``compiled``: the compiled cycle driver's array structures, which
        # only it predicts and trains; the methods below drive the object
        # structures, the oracle (tests/sim/test_modes.py).
        if compiled:
            from repro.branch.compiled import GlobalHistoryC as history_cls
        else:
            from repro.branch.history import GlobalHistory as history_cls
        self.history = history_cls(config.tage_max_hist, tage_foldings(config))
        self.tage = tage_from_config(config, self.history, compiled)
        self.btb = btb_from_config(config, compiled)
        self.ibtb = ibtb_from_config(config, compiled)
        self.ras = ReturnAddressStack(config.ras_entries)
        self.loop = None
        if config.use_loop_predictor:
            if compiled:
                from repro.branch.compiled import LoopPredictorC as loop_cls
            else:
                from repro.branch.loop_predictor import LoopPredictor as loop_cls
            self.loop = loop_cls(config.loop_predictor_entries)

    # -- frontend-facing prediction ------------------------------------------

    def probe_btb(self, pc: int) -> BTBEntry | None:
        """Branch discovery: is there a known branch at ``pc``?"""
        return self.btb.probe(pc)

    def predict_cond(self, pc: int) -> TagePrediction:
        """Direction prediction: TAGE, optionally overridden by the loop
        predictor when it has a confident trip count (TAGE-SC-L's "L")."""
        self.counters.bump("bpu_cond_predictions")
        prediction = self.tage.predict(pc)
        if self.loop is not None:
            override = self.loop.predict(pc)
            if override is not None:
                prediction.loop_override = override
                prediction.taken = override
                self.counters.bump("bpu_loop_overrides")
        return prediction

    def predict_indirect(self, pc: int, btb_entry: BTBEntry) -> int:
        """Target prediction for an indirect jump/call."""
        self.counters.bump("bpu_indirect_predictions")
        target = self.ibtb.predict(pc, self.history.low_bits(self.ibtb.history_bits))
        if target is None:
            target = btb_entry.target  # last-seen target stored in the BTB
        return target

    def predict_return(self) -> int | None:
        """Predicted return target from the RAS (None on underflow)."""
        self.counters.bump("bpu_return_predictions")
        return self.ras.pop()

    def speculate(self, taken: bool) -> None:
        """Push a predicted conditional outcome into the speculative history."""
        self.history.push(taken)

    def speculate_call(self, return_addr: int) -> None:
        """Speculative RAS push for a predicted call."""
        self.ras.push(return_addr)

    # -- divergence/recovery machinery ----------------------------------------

    def divergence_checkpoint(self, predicted_taken: bool, true_taken: bool) -> HistoryState:
        """Record corrected history at a detected misprediction.

        Called *before* :meth:`speculate` for the diverging branch: captures
        the history as it will be after the branch resolves with its true
        outcome, then leaves the live (speculative) history ready for the
        wrong-path push performed by the caller.
        """
        before = self.history.checkpoint()
        self.history.push(true_taken)
        corrected = self.history.checkpoint()
        self.history.restore(before)
        return corrected

    def checkpoint(self) -> HistoryState:
        """Snapshot the speculative history (used at non-conditional divergences)."""
        return self.history.checkpoint()

    def recover(self, state: HistoryState, true_call_stack: list[int]) -> None:
        """Restore history and repair the RAS after a resteer."""
        self.history.restore(state)
        self.ras.repair(true_call_stack)
        if self.loop is not None:
            self.loop.reset_speculation()
        self.counters.bump("bpu_recoveries")

    # -- training (on-path ground truth) ----------------------------------------

    def train_cond(self, prediction: TagePrediction, taken: bool) -> None:
        """Train TAGE (and the loop predictor) with a resolved outcome."""
        if prediction.taken != taken:
            self.counters.bump("bpu_cond_mispredicts")
        self.tage.update(prediction, taken)
        if self.loop is not None:
            self.loop.update(prediction.pc, taken, prediction.loop_override)

    def train_indirect(
        self, pc: int, target: int, kind: BranchKind = BranchKind.INDIRECT
    ) -> None:
        """Train the iBTB with a resolved on-path indirect target."""
        self.ibtb.train(pc, self.history.low_bits(self.ibtb.history_bits), target)
        self.btb.fill(pc, kind, target)

    def fill_btb(self, pc: int, kind: BranchKind, target: int) -> None:
        """Install a decoded branch into the BTB (decode-time discovery)."""
        self.btb.fill(pc, kind, target)
