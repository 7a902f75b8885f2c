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
"""

from __future__ import annotations

from repro.branch.btb import BTBEntry, btb_from_config, ibtb_from_config
from repro.branch.history import GlobalHistory, GlobalHistoryC
from repro.branch.loop_predictor import LoopPredictor
from repro.branch.ras import ReturnAddressStack
from repro.branch.tage import TagePrediction, TagePredictor, tage_from_config
from repro.common.cc import resolve_compiled
from repro.common.config import BranchConfig
from repro.common.counters import Counters
from repro.workloads.program import BranchKind

HistoryState = tuple[int, tuple[int, ...]]


class BranchPredictionUnit:
    """All branch prediction state of the decoupled frontend."""

    def __init__(
        self,
        config: BranchConfig,
        counters: Counters | None = None,
        compiled: bool | None = None,
    ) -> None:
        self.config = config
        self.counters = counters if counters is not None else Counters()
        # Compiled C-kernel structures unless REPRO_NO_COMPILED or no
        # compiler, else the object oracle; both are byte-identical in
        # behaviour (tests/sim/test_modes.py).
        compiled = resolve_compiled(compiled)
        foldings = TagePredictor.expected_foldings(config)
        history_cls = GlobalHistoryC if compiled else GlobalHistory
        self.history = history_cls(config.tage_max_hist, foldings)
        self.tage = tage_from_config(config, self.history, compiled)
        self.btb = btb_from_config(config, compiled)
        self.ibtb = ibtb_from_config(config, compiled)
        self.ras = ReturnAddressStack(config.ras_entries)
        self.loop = (
            LoopPredictor(config.loop_predictor_entries)
            if config.use_loop_predictor
            else None
        )

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
