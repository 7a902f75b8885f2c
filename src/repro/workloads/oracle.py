"""The oracle cursor's walk in Python: true transitions, one block at a time.

:class:`OracleCursor` extends :class:`repro.workloads.trace.OracleCursorC`
-- the position, call stack and occurrence counts the compiled walk and
cycle driver advance in C -- with the walk itself: :meth:`~OracleCursor.transition`
computes the true outcome of the current block from the program's block
view and :meth:`~OracleCursor.advance` commits it.  The object path's
functional walk and frontend walk it, as do :func:`run_trace` and
:func:`trace_statistics`; a compiled run never imports this module.

The decoupled frontend *shadows* the cursor while it is on-path: for every
basic block the frontend's speculative walker processes, it asks the cursor
for the true transition and compares it with its own prediction.  On the
first mismatch the cursor is advanced once more (to the true successor — the
recovery point) and then frozen until the mispredicted branch resolves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.workloads.program import BranchKind, Program
from repro.workloads.trace import OracleCursorC

if TYPE_CHECKING:
    from repro.workloads.blocks import BasicBlock, Branch


@dataclass
class OracleTransition:
    """The ground-truth outcome of one basic block's terminating transfer."""

    block: BasicBlock
    branch: Branch | None
    taken: bool
    next_pc: int
    occurrence: int  # dynamic instance index of the branch; -1 if no branch


class OracleCursor(OracleCursorC):
    """Walks the true path of a program, one basic block at a time."""

    def transition(self) -> OracleTransition:
        """Compute (without committing) the true transition of the current block."""
        block = self.current_block()
        branch = block.branch
        if branch is None:
            return OracleTransition(block, None, False, block.end_addr, -1)
        occurrence = self._occurrences[block.index]
        if branch.kind == BranchKind.COND:
            taken = branch.true_taken(occurrence)
            next_pc = branch.target if taken else branch.fallthrough
        elif branch.kind == BranchKind.RET:
            taken = True
            next_pc = self.call_stack[-1] if self.call_stack else self.program.entry
        else:
            taken = True
            next_pc = branch.true_target(occurrence)
        return OracleTransition(block, branch, taken, next_pc, occurrence)

    def advance(self, transition: OracleTransition) -> None:
        """Commit a transition previously computed by :meth:`transition`."""
        branch = transition.branch
        if branch is not None:
            self._occurrences[transition.block.index] = transition.occurrence + 1
            if branch.kind.is_call:
                if len(self.call_stack) >= self.max_stack:
                    del self.call_stack[0]
                self.call_stack.append(branch.fallthrough)
            elif branch.kind == BranchKind.RET and self.call_stack:
                self.call_stack.pop()
        self.pc = transition.next_pc
        self.blocks_walked += 1
        self.instrs_walked += transition.block.num_instrs

    def step(self) -> OracleTransition:
        """Compute and commit one transition."""
        transition = self.transition()
        self.advance(transition)
        return transition


def run_trace(program: Program, num_blocks: int) -> list[OracleTransition]:
    """Materialize the first ``num_blocks`` true-path transitions.

    Used by tests and by the trace-driven example; the simulator itself walks
    the cursor incrementally.
    """
    cursor = OracleCursor(program)
    return [cursor.step() for _ in range(num_blocks)]


def trace_statistics(program: Program, num_blocks: int) -> dict[str, float]:
    """Dynamic-stream statistics over the first ``num_blocks`` true blocks.

    Reports taken rate, dynamic branch density, average block size, and the
    dynamic code coverage (unique lines touched), which characterise a
    workload's frontend pressure.
    """
    cursor = OracleCursor(program)
    lines: set[int] = set()
    taken = 0
    branches = 0
    instrs = 0
    for _ in range(num_blocks):
        t = cursor.step()
        instrs += t.block.num_instrs
        for addr in range(t.block.addr, t.block.end_addr, 64):
            lines.add(addr >> 6)
        lines.add((t.block.end_addr - 1) >> 6)
        if t.branch is not None:
            branches += 1
            taken += int(t.taken)
    return {
        "instructions": float(instrs),
        "dynamic_branches": float(branches),
        "taken_rate": taken / max(branches, 1),
        "avg_block_instrs": instrs / max(num_blocks, 1),
        "unique_lines": float(len(lines)),
        "touched_kib": len(lines) * 64 / 1024.0,
    }
