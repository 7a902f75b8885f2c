"""Static program model: basic blocks, branches, and address mapping.

A synthetic *program* is a contiguous code region made of basic blocks laid
out back to back.  Each block holds a number of fixed 4-byte instructions and
is optionally terminated by a control-transfer instruction.  The frontend
walks this static structure exactly like real hardware walks instruction
bytes: it has no privileged knowledge of block boundaries — branch discovery
happens through the BTB, and *undetected* branches are simply walked over,
which is how wrong-path execution after BTB misses arises naturally.

Addresses are byte addresses; ``Program.block_at`` maps any code address to
the containing block, which is what lets the frontend walk arbitrary
(including wrong-path) addresses.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from enum import IntEnum

from repro.common.addr import INSTR_BYTES
from repro.common.errors import ProgramError
from repro.workloads.behavior import DirectionBehavior, TargetBehavior

# Per-instruction operation kinds, stored as one byte each in
# ``BasicBlock.ops`` to keep large programs compact.
OP_ALU = 0
OP_LOAD = 1
OP_STORE = 2


class BranchKind(IntEnum):
    """Control-transfer instruction classes."""

    COND = 0  # conditional direct branch
    JUMP = 1  # unconditional direct jump
    CALL = 2  # direct call (pushes return address)
    RET = 3  # return (pops return address)
    INDIRECT = 4  # indirect jump (e.g. switch table)
    INDIRECT_CALL = 5  # indirect call (virtual dispatch)

    @property
    def is_call(self) -> bool:
        return self in (BranchKind.CALL, BranchKind.INDIRECT_CALL)

    @property
    def is_indirect(self) -> bool:
        return self in (BranchKind.INDIRECT, BranchKind.INDIRECT_CALL)

    @property
    def is_unconditional(self) -> bool:
        return self != BranchKind.COND


@dataclass(slots=True)
class Branch:
    """A static control-transfer instruction terminating a basic block.

    ``pc`` is the branch instruction's own address; the not-taken successor is
    always ``pc + 4`` (the next sequential instruction).  Direct branches have
    a fixed ``target``; indirect branches select from ``targets`` via a
    :class:`TargetBehavior`; returns take their target from the call stack.
    """

    pc: int
    kind: BranchKind
    target: int = 0
    direction: DirectionBehavior | None = None
    targets: tuple[int, ...] = ()
    target_behavior: TargetBehavior | None = None

    def __reduce__(self):
        # Unpickling calls the constructor with the fields: a program holds
        # tens of thousands of branches and blocks, and one call each is
        # cheaper than filling their slots one attribute at a time.
        return Branch, (
            self.pc, self.kind, self.target, self.direction, self.targets,
            self.target_behavior,
        )

    @property
    def fallthrough(self) -> int:
        """Address of the next sequential instruction."""
        return self.pc + INSTR_BYTES

    def true_taken(self, occurrence: int) -> bool:
        """Ground-truth direction for dynamic instance ``occurrence``."""
        if self.kind != BranchKind.COND:
            return True
        assert self.direction is not None
        return self.direction.taken(occurrence)

    def true_target(self, occurrence: int) -> int:
        """Ground-truth taken-target for dynamic instance ``occurrence``.

        Returns only have a meaningful target via the call stack, which the
        oracle cursor supplies; calling this on a RET is an error.
        """
        if self.kind == BranchKind.RET:
            raise ProgramError("RET targets come from the call stack")
        if self.kind.is_indirect:
            assert self.target_behavior is not None
            index = self.target_behavior.select(occurrence, len(self.targets))
            return self.targets[index]
        return self.target


@dataclass(slots=True)
class BasicBlock:
    """A straight-line run of instructions, optionally ending in a branch."""

    addr: int
    num_instrs: int
    branch: Branch | None = None
    ops: bytes = b""
    # Index within Program.blocks, filled by Program.__init__.
    index: int = field(default=-1, repr=False)

    def __reduce__(self):
        # See Branch.__reduce__.
        return BasicBlock, (self.addr, self.num_instrs, self.branch, self.ops, self.index)

    @property
    def end_addr(self) -> int:
        """First byte past the last instruction of the block."""
        return self.addr + self.num_instrs * INSTR_BYTES

    @property
    def last_pc(self) -> int:
        """Address of the block's final instruction."""
        return self.addr + (self.num_instrs - 1) * INSTR_BYTES

    def validate(self) -> None:
        if self.num_instrs <= 0:
            raise ProgramError(f"block @{self.addr:#x}: empty block")
        if self.addr % INSTR_BYTES != 0:
            raise ProgramError(f"block @{self.addr:#x}: unaligned start")
        if self.ops and len(self.ops) != self.num_instrs:
            raise ProgramError(f"block @{self.addr:#x}: ops length mismatch")
        if self.branch is not None and self.branch.pc != self.last_pc:
            raise ProgramError(
                f"block @{self.addr:#x}: branch pc {self.branch.pc:#x} is not "
                f"the final instruction {self.last_pc:#x}"
            )

    def op_at(self, pc: int) -> int:
        """Operation kind (OP_ALU/OP_LOAD/OP_STORE) of the instruction at ``pc``."""
        if not self.ops:
            return OP_ALU
        offset = (pc - self.addr) // INSTR_BYTES
        return self.ops[offset]


class Program:
    """An immutable synthetic program: contiguous, address-sorted basic blocks.

    Blocks must tile the code region exactly (each block starts where the
    previous one ends) so that sequential "walking off" a block — which is
    what the frontend does after an undetected BTB miss — always lands in a
    defined block.  Walking past the final block wraps to ``code_start``
    (documented model simplification; synthesized programs end in an
    unconditional backward jump so the wrap is never exercised on-path).
    """

    def __init__(self, blocks: list[BasicBlock], entry: int | None = None) -> None:
        if not blocks:
            raise ProgramError("a program needs at least one block")
        blocks = sorted(blocks, key=lambda b: b.addr)
        for i, block in enumerate(blocks):
            block.validate()
            block.index = i
        for prev, cur in zip(blocks, blocks[1:]):
            if prev.end_addr != cur.addr:
                raise ProgramError(
                    f"gap/overlap between block @{prev.addr:#x} (end "
                    f"{prev.end_addr:#x}) and block @{cur.addr:#x}"
                )
        self.blocks = blocks
        self._starts = [b.addr for b in blocks]
        self.code_start = blocks[0].addr
        self.code_end = blocks[-1].end_addr
        self.entry = self.code_start if entry is None else entry
        if not self.contains(self.entry):
            raise ProgramError(f"entry {self.entry:#x} outside code region")
        self._validate_targets()

    def _validate_targets(self) -> None:
        starts = set(self._starts)
        for block in self.blocks:
            branch = block.branch
            if branch is None:
                continue
            targets: tuple[int, ...]
            if branch.kind == BranchKind.RET:
                targets = ()
            elif branch.kind.is_indirect:
                targets = branch.targets
                if not targets:
                    raise ProgramError(f"indirect branch @{branch.pc:#x} has no targets")
            else:
                targets = (branch.target,)
            for target in targets:
                if not self.contains(target):
                    raise ProgramError(
                        f"branch @{branch.pc:#x} targets {target:#x} outside code"
                    )
                if target not in starts:
                    raise ProgramError(
                        f"branch @{branch.pc:#x}: target {target:#x} is not a "
                        f"block start (the oracle walks block-aligned)"
                    )

    # -- address mapping ---------------------------------------------------

    def contains(self, addr: int) -> bool:
        """True if ``addr`` lies inside the code region."""
        return self.code_start <= addr < self.code_end

    def wrap(self, addr: int) -> int:
        """Map any address into the code region (wrap-around walking)."""
        if self.contains(addr):
            return addr
        span = self.code_end - self.code_start
        return self.code_start + (addr - self.code_start) % span

    def block_at(self, addr: int) -> BasicBlock:
        """Return the basic block containing ``addr`` (wrapping if outside)."""
        # Inlined wrap(): this is the hottest program-model call (every walked
        # fetch block), and in-region addresses are the overwhelming case.
        start = self.code_start
        if addr < start or addr >= self.code_end:
            addr = start + (addr - start) % (self.code_end - start)
        return self.blocks[bisect_right(self._starts, addr) - 1]

    def branch_between(self, start: int, end: int) -> Branch | None:
        """Return the first static branch with ``start <= pc < end``, if any.

        ``start`` and ``end`` must lie within one fetch block's reach (the
        caller iterates block by block); this scans at most a couple of basic
        blocks, so it stays O(log n).
        """
        addr = start
        while addr < end:
            block = self.block_at(addr)
            branch = block.branch
            if branch is not None and start <= branch.pc < end:
                return branch
            addr = block.end_addr
        return None

    # -- summary properties --------------------------------------------

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def footprint_bytes(self) -> int:
        """Total code footprint in bytes."""
        return self.code_end - self.code_start

    @property
    def num_branches(self) -> int:
        return sum(1 for b in self.blocks if b.branch is not None)

    def branch_kind_histogram(self) -> dict[BranchKind, int]:
        """Count of static branches per kind."""
        hist: dict[BranchKind, int] = {}
        for block in self.blocks:
            if block.branch is not None:
                hist[block.branch.kind] = hist.get(block.branch.kind, 0) + 1
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Program(blocks={self.num_blocks}, "
            f"footprint={self.footprint_bytes // 1024}KiB, "
            f"branches={self.num_branches})"
        )
