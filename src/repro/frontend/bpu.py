"""The decoupled frontend walker (FTQ generation engine).

Each cycle the walker produces up to ``ftq_blocks_per_cycle`` fetch blocks:
it walks the static program from its speculative PC, discovering branches
*only through the BTB* (an undetected branch is walked straight past), and
consulting TAGE / the iBTB / the RAS for detected ones.  A predicted-taken
branch terminates the fetch block.

While the walker is on-path it shadows the :class:`OracleCursor`: every
completed basic block's true transition is compared against the walker's
chosen successor.  The first mismatch *diverges* the frontend — the oracle
is advanced once more (to the recovery point) and frozen, a
:class:`PendingResteer` is attached to the entry containing the offending
branch, and the walker continues down the wrong path exactly as real
hardware does, issuing fetch blocks that will be fetched, decoded, and
eventually squashed.

Divergence resolution stage:

* an undetected (BTB-miss) *direct* taken branch resolves at **decode**
  (Ishii's post-fetch correction);
* everything else (direction mispredicts, wrong indirect targets, RAS
  mispredicts, and BTB-missed returns/indirects) resolves at **execute**.
"""

from __future__ import annotations

from typing import Protocol

from repro.common.addr import FETCH_BLOCK_BYTES, INSTR_BYTES, block_of
from repro.common.config import FrontendConfig
from repro.common.counters import Counters
from repro.branch.unit import BranchPredictionUnit
from repro.frontend.compiled import WALKER_COUNTERS
from repro.frontend.fetch_block import (
    RESTEER_AT_DECODE,
    RESTEER_AT_EXECUTE,
    FTQEntry,
    PendingResteer,
    SeenBranch,
)
from repro.frontend.ftq import FetchTargetQueue
from repro.workloads.blocks import Branch
from repro.workloads.oracle import OracleCursor
from repro.workloads.program import BranchKind, Program


class PathEstimator(Protocol):
    """UDP's interface to the walker (see :mod:`repro.core.confidence`)."""

    @property
    def assumed_off_path(self) -> bool: ...

    def on_confidence(self, confidence: int) -> None: ...

    def on_btb_miss_predicted_taken(self) -> None: ...

    def reset(self) -> None: ...


class DecoupledFrontend:
    """Runs ahead of fetch, filling the FTQ with predicted fetch blocks."""

    def __init__(
        self,
        program: Program,
        bpu: BranchPredictionUnit,
        ftq: FetchTargetQueue,
        oracle: OracleCursor,
        config: FrontendConfig,
        counters: Counters,
        path_estimator: PathEstimator | None = None,
    ) -> None:
        self.program = program
        self.bpu = bpu
        self.ftq = ftq
        self.oracle = oracle
        self.config = config
        self.counters = counters
        self.path_estimator = path_estimator
        self.spec_pc = program.entry
        self.diverged = False
        self.next_seq = 0
        self._blocks_per_cycle = config.ftq_blocks_per_cycle
        # Interned fast-path counter slots (see Counters.incrementer).
        (
            self._c_ftq_full,
            self._c_blocks_on,
            self._c_blocks_off,
            self._c_btb_gen_hits,
            self._c_btb_gen_misses,
        ) = map(counters.incrementer, WALKER_COUNTERS)
        # Set while a divergence is in flight; cleared by recover()/the
        # decode-stage resteer.  Used for asserting single-divergence.
        self.pending_resteer: PendingResteer | None = None

    # -- per-cycle generation ----------------------------------------------

    def generate(self) -> list[FTQEntry]:
        """Produce up to ``ftq_blocks_per_cycle`` entries (FTQ space permitting)."""
        produced: list[FTQEntry] = []
        ftq = self.ftq
        for _ in range(self._blocks_per_cycle):
            if not ftq.has_space:
                self._c_ftq_full()
                break
            entry = self._walk_block()
            ftq.push(entry)
            produced.append(entry)
            if entry.on_path:
                self._c_blocks_on()
            else:
                self._c_blocks_off()
        return produced

    # -- the block walk ------------------------------------------------------

    def _walk_block(self) -> FTQEntry:
        program = self.program
        start = program.wrap(self.spec_pc)
        region_end = block_of(start) + FETCH_BLOCK_BYTES
        entry = FTQEntry(
            seq=self.next_seq,
            start=start,
            end=region_end,  # provisional; shortened by a predicted-taken branch
            on_path=not self.diverged,
            assumed_off_path=(
                self.path_estimator.assumed_off_path
                if self.path_estimator is not None
                else False
            ),
        )
        self.next_seq += 1
        ops = bytearray()
        cur = start
        started_on_path = not self.diverged
        diverged_at: int | None = None

        code_end = program.code_end
        while cur < region_end:
            if cur >= code_end:
                # Sequential walk fell off the end of the code region: end
                # the fetch block here and resume at the wrapped address
                # (keeps entry ranges contiguous; see Program.wrap).
                region_end = cur
                break
            block = program.block_at(cur)
            seg_end = block.end_addr
            if seg_end > region_end:
                seg_end = region_end
            branch = block.branch
            if branch is None or not (cur <= branch.pc < seg_end):
                # No control transfer inside this segment.
                self._append_ops(ops, block, cur, seg_end)
                if seg_end == block.end_addr and not self.diverged:
                    # Completed a fall-through basic block: trivially matches
                    # the oracle (its only successor is sequential).
                    self.oracle.advance(self.oracle.transition())
                cur = seg_end
                continue

            # The segment contains the block's terminating branch.
            self._append_ops(ops, block, cur, branch.pc + INSTR_BYTES)
            seen, walker_next = self._predict(branch)
            entry.branches.append(seen)

            if not self.diverged:
                resteer = self._shadow_oracle(branch, seen, walker_next)
                if resteer is not None:
                    entry.resteer = resteer
                    diverged_at = branch.pc
            elif seen.detected and branch.kind == BranchKind.COND:
                # Wrong-path conditional: speculative history still advances.
                self.bpu.speculate(seen.predicted_taken)

            if seen.predicted_taken:
                entry.end = branch.pc + INSTR_BYTES
                self.spec_pc = seen.predicted_target
                entry.ops = bytes(ops)
                self._finalize_path(entry, started_on_path, diverged_at)
                return entry
            cur = branch.fallthrough

        entry.end = region_end
        self.spec_pc = region_end
        entry.ops = bytes(ops)
        self._finalize_path(entry, started_on_path, diverged_at)
        return entry

    @staticmethod
    def _append_ops(ops: bytearray, block, lo: int, hi: int) -> None:
        if hi <= lo:
            return
        i0 = (lo - block.addr) // INSTR_BYTES
        i1 = (hi - block.addr) // INSTR_BYTES
        if block.ops:
            ops.extend(block.ops[i0:i1])
        else:
            ops.extend(b"\x00" * (i1 - i0))

    def _finalize_path(
        self, entry: FTQEntry, started_on_path: bool, diverged_at: int | None
    ) -> None:
        if not started_on_path:
            entry.on_path = False
            entry.on_path_instrs = 0
        elif diverged_at is not None:
            entry.on_path = True
            entry.on_path_instrs = (diverged_at + INSTR_BYTES - entry.start) // INSTR_BYTES
        else:
            entry.on_path = True
            entry.on_path_instrs = entry.num_instrs

    # -- prediction -------------------------------------------------------------

    def _predict(self, branch: Branch) -> tuple[SeenBranch, int]:
        """Predict the branch; returns the record and the walker's next PC."""
        btb_entry = self.bpu.probe_btb(branch.pc)
        estimator = self.path_estimator

        if btb_entry is None:
            self._c_btb_gen_misses()
            # Undetected branch: the walker is unaware and falls through.
            if estimator is not None and branch.kind == BranchKind.COND:
                # The paper: assume off-path when the predictor says "taken"
                # for a PC the BTB does not know.  Require a tagged-table hit
                # so cold bimodal noise does not flag every unknown branch.
                probe = self.bpu.tage.predict(branch.pc)
                if probe.taken and probe.provider >= 0:
                    estimator.on_btb_miss_predicted_taken()
            seen = SeenBranch(branch, detected=False, predicted_taken=False)
            return seen, branch.fallthrough

        self._c_btb_gen_hits()
        kind = btb_entry.kind
        predicted_taken = True
        predicted_target = btb_entry.target
        prediction = None
        if kind == BranchKind.COND:
            prediction = self.bpu.predict_cond(branch.pc)
            predicted_taken = prediction.taken
            if estimator is not None:
                estimator.on_confidence(prediction.confidence)
        elif kind == BranchKind.RET:
            ras_target = self.bpu.predict_return()
            if ras_target is None:
                predicted_taken = False  # RAS underflow: fall through (rare)
                predicted_target = 0
            else:
                predicted_target = ras_target
        elif kind.is_indirect:
            predicted_target = self.bpu.predict_indirect(branch.pc, btb_entry)

        if kind.is_call and predicted_taken:
            self.bpu.speculate_call(branch.fallthrough)

        seen = SeenBranch(
            branch,
            detected=True,
            predicted_taken=predicted_taken,
            predicted_target=predicted_target,
            prediction=prediction,
        )
        walker_next = predicted_target if predicted_taken else branch.fallthrough
        return seen, walker_next

    # -- oracle shadowing ----------------------------------------------------------

    def _shadow_oracle(
        self, branch: Branch, seen: SeenBranch, walker_next: int
    ) -> PendingResteer | None:
        """Compare the prediction with ground truth; create a resteer on mismatch."""
        truth = self.oracle.transition()
        assert truth.branch is branch, "oracle out of sync with walker"
        true_next = truth.next_pc
        diverges = walker_next != true_next

        prediction = seen.prediction
        if seen.detected and branch.kind == BranchKind.COND and prediction is not None:
            self.bpu.train_cond(prediction, truth.taken)
        if branch.kind.is_indirect:
            # Indirect targets are only known at execute: train (and BTB-fill)
            # whether or not the BTB detected the branch, otherwise an
            # undetected indirect branch would diverge on every occurrence.
            self.bpu.train_indirect(branch.pc, true_next, branch.kind)

        history_state: tuple | None = None
        if branch.kind == BranchKind.COND:
            if seen.detected:
                if diverges:
                    history_state = self.bpu.divergence_checkpoint(
                        seen.predicted_taken, truth.taken
                    )
                self.bpu.speculate(seen.predicted_taken)
            elif diverges:
                # Undetected: nothing was pushed; the corrected history must
                # include the true outcome.
                history_state = self.bpu.divergence_checkpoint(False, truth.taken)
        elif diverges:
            history_state = self.bpu.checkpoint()

        self.oracle.advance(truth)
        if not diverges:
            return None

        stage, cause = self._classify_divergence(branch, seen)
        self.diverged = True
        resteer = PendingResteer(
            branch_pc=branch.pc,
            stage=stage,
            resume_pc=true_next,
            history_state=history_state if history_state is not None else self.bpu.checkpoint(),
            kind=branch.kind,
            true_taken=truth.taken,
            cause=cause,
        )
        self.pending_resteer = resteer
        self.counters.bump(f"divergence_{cause}")
        return resteer

    def _classify_divergence(self, branch: Branch, seen: SeenBranch) -> tuple[str, str]:
        if not seen.detected:
            direct = branch.kind in (BranchKind.COND, BranchKind.JUMP, BranchKind.CALL)
            if direct and self.config.post_fetch_correction:
                return RESTEER_AT_DECODE, "btb_miss"
            return RESTEER_AT_EXECUTE, "btb_miss"
        if branch.kind == BranchKind.COND:
            return RESTEER_AT_EXECUTE, "cond_mispredict"
        if branch.kind == BranchKind.RET:
            return RESTEER_AT_EXECUTE, "ras_mispredict"
        return RESTEER_AT_EXECUTE, "indirect_mispredict"

    # -- wrong-path post-fetch correction & recovery --------------------------------

    def redirect_wrong_path(self, target: int) -> None:
        """Decode-time redirect while already diverged (wrong-path PFC).

        Decoding an undetected unconditional direct branch reveals its taken
        target; the frontend resteers to it but remains on the wrong path.
        """
        self.spec_pc = target
        self.counters.bump("wrong_path_pfc_redirects")

    def recover(self, resteer: PendingResteer) -> None:
        """Resteer to the true path after the diverging branch resolves."""
        self.spec_pc = resteer.resume_pc
        self.diverged = False
        self.pending_resteer = None
        self.bpu.recover(resteer.history_state, self.oracle.call_stack)
        if self.path_estimator is not None:
            self.path_estimator.reset()
        self.counters.bump("resteers")
        self.counters.bump(f"resteer_{resteer.cause}")
        self.counters.bump(f"resteer_at_{resteer.stage}")
