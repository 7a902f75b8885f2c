"""The oracle cursor: ground-truth dynamic control flow.

:class:`OracleCursor` walks the static program along the *true* path,
maintaining per-branch occurrence counters (which index the deterministic
behaviours) and the true call stack (which defines return targets).  The
counters are one flat ``int64`` array indexed by block, as the program's
columns are (a block's branch is its last instruction, so a block holds at
most one); the compiled walk and cycle driver (``repro/sim/driver.py``)
count in the same array in place.  Only :meth:`OracleCursor.transition`
and what builds on it walk the program's block view; construction and the
state protocol read its columns.

The decoupled frontend *shadows* the cursor while it is on-path: for every
basic block the frontend's speculative walker processes, it asks the cursor
for the true transition and compares it with its own prediction.  On the
first mismatch the cursor is advanced once more (to the true successor — the
recovery point) and then frozen until the mispredicted branch resolves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import SimulationError
from repro.common.packed import zeros
from repro.workloads.program import BasicBlock, Branch, BranchKind, Program


@dataclass
class OracleTransition:
    """The ground-truth outcome of one basic block's terminating transfer."""

    block: BasicBlock
    branch: Branch | None
    taken: bool
    next_pc: int
    occurrence: int  # dynamic instance index of the branch; -1 if no branch


class OracleCursor:
    """Walks the true path of a program, one basic block at a time."""

    def __init__(self, program: Program, max_stack: int = 256) -> None:
        self.program = program
        self.pc = program.entry
        self.max_stack = max_stack
        self.call_stack: list[int] = []
        self.blocks_walked = 0
        self.instrs_walked = 0
        # Per block, how often its branch has executed on-path.  Never
        # resized: C holds its address for the length of a call.
        self._occurrences = zeros(program.num_blocks)

    # -- inspection -------------------------------------------------------

    def current_block(self) -> BasicBlock:
        """The basic block the cursor currently points at."""
        block = self.program.block_at(self.pc)
        if block.addr != self.pc:
            raise SimulationError(
                f"oracle pc {self.pc:#x} is not a block start ({block.addr:#x})"
            )
        return block

    def occurrence_of(self, branch_pc: int) -> int:
        """How many times the branch at ``branch_pc`` has executed on-path."""
        if not self.program.contains(branch_pc):
            return 0
        block = self.program.block_at(branch_pc)
        if block.branch is None or block.branch.pc != branch_pc:
            return 0
        return self._occurrences[block.index]

    # -- walking ------------------------------------------------------------

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

    # -- state protocol (repro.common.packed) --------------------------------

    def state(self) -> dict:
        """The walk position, the true call stack and the occurrence counts
        (the bytes of the per-block ``int64`` array)."""
        return {
            "pc": self.pc,
            "call_stack": list(self.call_stack),
            "blocks_walked": self.blocks_walked,
            "instrs_walked": self.instrs_walked,
            "occurrences": self._occurrences.tobytes(),
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state` output in place, validated first: the
        compiled driver copies the call stack into a ``max_stack``-entry
        buffer and counts in the occurrence array."""
        pc, call_stack = state["pc"], state["call_stack"]
        walked = state["blocks_walked"], state["instrs_walked"]
        occurrences = memoryview(state["occurrences"]).cast("B")
        counts = memoryview(self._occurrences).cast("B")
        if len(occurrences) != len(counts):
            raise ValueError("oracle occurrence counts do not match the program's blocks")
        if len(call_stack) > self.max_stack or not all(
            type(value) is int for value in (pc, *call_stack, *walked)
        ):
            raise ValueError(f"oracle state is not integers, {self.max_stack} or fewer calls")
        if not self.program.is_block_start(pc):
            raise ValueError(f"oracle pc {pc:#x} is not a block start")
        self.pc = pc
        self.call_stack[:] = call_stack
        self.blocks_walked, self.instrs_walked = walked
        counts[:] = occurrences

    def copy_from(self, other: "OracleCursor") -> None:
        """Take a same-program cursor's position and counts, by direct copy."""
        self.pc = other.pc
        self.call_stack[:] = other.call_stack
        self.blocks_walked = other.blocks_walked
        self.instrs_walked = other.instrs_walked
        memoryview(self._occurrences)[:] = other._occurrences


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
