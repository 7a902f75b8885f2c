"""Imperative builder for synthetic programs.

The builder lays out basic blocks at increasing addresses and supports
forward references through :class:`Label`, so callers can emit structured
control flow (diamonds, loops, switches, calls) in source order and let the
builder patch taken-targets once the labels are placed.

Typical use::

    b = ProgramBuilder(base=0x10000)
    merge = b.label()
    b.block(4)                       # falls through
    b.cond_branch(3, target=merge, behavior=LoopBehavior(10))
    b.block(2, jump_to=merge)        # then-side, jumps over else-side
    b.place(merge)
    b.block(5)
    program = b.finish()
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.addr import INSTR_BYTES
from repro.common.errors import ProgramError
from repro.workloads.behavior import DirectionBehavior, TargetBehavior
from repro.workloads.blocks import BasicBlock, Branch
from repro.workloads.program import OP_ALU, BranchKind, Program


@dataclass(eq=False)
class Label:
    """A forward-referenceable code position."""

    name: str = ""
    addr: int | None = None

    @property
    def placed(self) -> bool:
        return self.addr is not None


@dataclass
class _Patch:
    """A branch whose target (or one of its indirect targets) is a label."""

    branch: Branch
    label: Label
    indirect_slot: int | None = None  # index into Branch.targets, or None


class ProgramBuilder:
    """Accumulates basic blocks and resolves labels into a :class:`Program`."""

    def __init__(self, base: int = 0x1_0000) -> None:
        if base % INSTR_BYTES:
            raise ProgramError("program base must be instruction-aligned")
        self.base = base
        self._cursor = base
        self._blocks: list[BasicBlock] = []
        self._patches: list[_Patch] = []
        self._labels: list[Label] = []
        self._entry: int | None = None

    # -- labels ----------------------------------------------------------

    def label(self, name: str = "") -> Label:
        """Create a new (unplaced) label."""
        label = Label(name)
        self._labels.append(label)
        return label

    def place(self, label: Label) -> None:
        """Bind ``label`` to the current cursor (the next block's address)."""
        if label.placed:
            raise ProgramError(f"label {label.name!r} placed twice")
        label.addr = self._cursor

    def here(self) -> int:
        """The address the next emitted block will start at."""
        return self._cursor

    def set_entry(self, addr: int | None = None) -> None:
        """Mark the program entry point (defaults to the current cursor)."""
        self._entry = self._cursor if addr is None else addr

    # -- block emission ----------------------------------------------------

    def _emit(self, num_instrs: int, branch: Branch | None, ops: bytes) -> BasicBlock:
        block = BasicBlock(self._cursor, num_instrs, branch, ops)
        self._blocks.append(block)
        self._cursor = block.end_addr
        return block

    def _branch_pc(self, num_instrs: int) -> int:
        return self._cursor + (num_instrs - 1) * INSTR_BYTES

    def block(
        self,
        num_instrs: int,
        ops: bytes = b"",
        jump_to: Label | int | None = None,
    ) -> BasicBlock:
        """Emit a plain block; optionally terminate it with a direct jump."""
        if jump_to is None:
            return self._emit(num_instrs, None, ops)
        branch = Branch(self._branch_pc(num_instrs), BranchKind.JUMP)
        self._target(branch, jump_to)
        return self._emit(num_instrs, branch, ops)

    def cond_branch(
        self,
        num_instrs: int,
        target: Label | int,
        behavior: DirectionBehavior,
        ops: bytes = b"",
    ) -> BasicBlock:
        """Emit a block ending in a conditional branch to ``target``."""
        branch = Branch(
            self._branch_pc(num_instrs), BranchKind.COND, direction=behavior
        )
        self._target(branch, target)
        return self._emit(num_instrs, branch, ops)

    def call(self, num_instrs: int, target: Label | int, ops: bytes = b"") -> BasicBlock:
        """Emit a block ending in a direct call."""
        branch = Branch(self._branch_pc(num_instrs), BranchKind.CALL)
        self._target(branch, target)
        return self._emit(num_instrs, branch, ops)

    def ret(self, num_instrs: int, ops: bytes = b"") -> BasicBlock:
        """Emit a block ending in a return."""
        branch = Branch(self._branch_pc(num_instrs), BranchKind.RET)
        return self._emit(num_instrs, branch, ops)

    def indirect(
        self,
        num_instrs: int,
        targets: list[Label | int],
        behavior: TargetBehavior,
        call: bool = False,
        ops: bytes = b"",
    ) -> BasicBlock:
        """Emit a block ending in an indirect jump/call over ``targets``.

        The behaviour object is expected to return one of the resolved target
        addresses; when targets are labels the caller should construct the
        behaviour through :meth:`finish`'s patching by passing a factory — in
        practice synthesis places all indirect targets before emitting the
        branch, so plain addresses are the common case.
        """
        kind = BranchKind.INDIRECT_CALL if call else BranchKind.INDIRECT
        branch = Branch(
            self._branch_pc(num_instrs),
            kind,
            targets=tuple(0 for _ in targets),
            target_behavior=behavior,
        )
        slots = list(branch.targets)
        for i, target in enumerate(targets):
            if isinstance(target, Label):
                self._patches.append(_Patch(branch, target, indirect_slot=i))
            else:
                slots[i] = target
        branch.targets = tuple(slots)
        return self._emit(num_instrs, branch, ops)

    def _target(self, branch: Branch, target: Label | int) -> None:
        if isinstance(target, Label):
            self._patches.append(_Patch(branch, target))
        else:
            branch.target = target

    # -- finalization ------------------------------------------------------

    def finish(self) -> Program:
        """Resolve labels and return the immutable :class:`Program`."""
        for label in self._labels:
            if not label.placed:
                raise ProgramError(f"label {label.name!r} never placed")
        for patch in self._patches:
            assert patch.label.addr is not None
            if patch.indirect_slot is None:
                patch.branch.target = patch.label.addr
            else:
                slots = list(patch.branch.targets)
                slots[patch.indirect_slot] = patch.label.addr
                patch.branch.targets = tuple(slots)
        return Program(self._blocks, entry=self._entry)


def make_ops(num_instrs: int, rng, load_frac: float, store_frac: float) -> bytes:
    """Generate per-instruction op kinds with the given load/store mix.

    The final instruction of a block that will carry a branch is forced to
    ALU by callers simply because branches replace that slot; keeping it ALU
    here is harmless either way.
    """
    out = bytearray(num_instrs)
    for i in range(num_instrs):
        u = rng.random()
        if u < load_frac:
            out[i] = 1  # OP_LOAD
        elif u < load_frac + store_frac:
            out[i] = 2  # OP_STORE
        else:
            out[i] = OP_ALU
    return bytes(out)
