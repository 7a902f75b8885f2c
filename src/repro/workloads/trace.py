"""The oracle cursor: ground-truth dynamic control flow.

:class:`OracleCursorC` holds a walk along the program's *true* path: its pc,
the per-branch occurrence counters (which index the deterministic
behaviours) and the true call stack (which defines return targets).  The
counters are one flat ``int64`` array indexed by block, as the program's
columns are (a block's branch is its last instruction, so a block holds at
most one); the compiled walk and cycle driver (``repro/sim/driver.py``)
advance the cursor in C, counting in the same array in place.  Construction
and the state protocol read only the program's columns.

The walk in Python -- ``OracleCursor``, which extends it with
``transition``/``advance``/``step``, and ``run_trace``/``trace_statistics``
over it -- is :mod:`repro.workloads.oracle`, which this module resolves on
first use: only the object path, the analysis helpers and the trace tools
load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import exports as _exports
from repro.common.errors import SimulationError
from repro.common.packed import zeros
from repro.workloads.program import Program

if TYPE_CHECKING:  # the block view loads only where Python walks a program
    from repro.workloads.blocks import BasicBlock

__getattr__, __dir__ = _exports(__name__, (
    "repro.workloads.oracle", ("OracleCursor", "OracleTransition", "run_trace", "trace_statistics"),
))[1:]


class OracleCursorC:
    """A true-path walk's position, call stack and occurrence counts."""

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

    def copy_from(self, other: "OracleCursorC") -> None:
        """Take a same-program cursor's position and counts, by direct copy."""
        self.pc = other.pc
        self.call_stack[:] = other.call_stack
        self.blocks_walked = other.blocks_walked
        self.instrs_walked = other.instrs_walked
        memoryview(self._occurrences)[:] = other._occurrences
