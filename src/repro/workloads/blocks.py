"""A program's block view: basic blocks and branches, to and from its columns.

A :class:`~repro.workloads.program.Program` holds its ground truth as flat
columns (:mod:`repro.workloads.tables`).  :class:`BasicBlock`,
:class:`Branch` and the behaviour objects of
:mod:`repro.workloads.behavior` are a view of them: what a program is built
from (:func:`flatten` turns the blocks into the columns) and what Python
walks, built back from the columns the first time it does
(:func:`unflatten`, :attr:`Program.blocks`).  So this module loads to
synthesize or build a program, or to walk one on the object path; a
compiled run over a stored program reads only the columns and never
imports it.
"""

from __future__ import annotations

import gc
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.addr import INSTR_BYTES
from repro.common.errors import ProgramError
from repro.workloads.program import OP_ALU, BranchKind, Program
from repro.workloads.tables import (
    _COND,
    _INDIRECT,
    B_ALWAYS,
    B_BIASED,
    B_FIXED,
    B_LOOP,
    B_PATTERN,
    B_PHASED,
    B_ROTATING,
    B_WEIGHTED,
    B_ZIPF,
    BLOCK_COLUMNS,
    NODE_COLUMNS,
    Columns,
)

if TYPE_CHECKING:  # the behaviours load with a program's block view
    from repro.workloads.behavior import DirectionBehavior, TargetBehavior

_MASK64 = (1 << 64) - 1


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
    # Index within Program.blocks, filled by Program.__init__ (or the view).
    index: int = field(default=-1, repr=False)

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


# -- flatten: blocks -> columns ----------------------------------------------


class _Nodes:
    """Flat behaviour-node columns; one node per distinct behaviour object
    (the classes of :mod:`repro.workloads.behavior`, passed in as
    ``behaviors``).  The nodes' parameters are checked with the rest of the
    columns, by :func:`~repro.workloads.tables.checked_columns`."""

    def __init__(self, behaviors) -> None:
        self.behaviors = behaviors
        self.columns: tuple[list, ...] = tuple([] for _ in NODE_COLUMNS)
        self._ids: dict[int, int] = {}  # id(behaviour) -> node; the blocks hold them

    def _add(self, kind, seed=0, f=0.0, a=0, b=0, c=0) -> int:
        for column, value in zip(self.columns, (kind, seed & _MASK64, f, a, b, c)):
            column.append(value)
        return len(self.columns[0]) - 1

    def _memo(self, behavior, build) -> int:
        node = self._ids.get(id(behavior))
        if node is None:
            node = self._ids[id(behavior)] = build()
        return node

    def direction(self, behavior) -> int:
        def build() -> int:
            b = self.behaviors
            cls = type(behavior)
            if cls is b.AlwaysTaken:
                return self._add(B_ALWAYS)
            if cls is b.BiasedBehavior:
                return self._add(B_BIASED, behavior.seed, behavior.p_taken)
            if cls is b.LoopBehavior:
                return self._add(B_LOOP, a=behavior.trip_count)
            if cls is b.PatternBehavior:
                return self._add(
                    B_PATTERN, behavior.seed, behavior.noise,
                    a=behavior.pattern, b=behavior.length,
                )
            if cls is b.PhasedBehavior:
                first = self.direction(behavior.first)
                second = self.direction(behavior.second)
                return self._add(
                    B_PHASED, a=behavior.phase_length, b=first, c=second
                )
            raise ProgramError(f"direction behaviour {cls.__name__} has no node kind")

        return self._memo(behavior, build)

    def selector(self, behavior) -> int:
        b = self.behaviors
        cls = type(behavior)
        if cls is b.FixedTarget:
            # One node per branch, not per behaviour object, as stored
            # programs number them.
            return self._add(B_FIXED, a=behavior.index)

        def build() -> int:
            if cls is b.WeightedTargets:
                return self._add(B_WEIGHTED, behavior.seed, behavior.hot_fraction)
            if cls is b.ZipfTargets:
                return self._add(B_ZIPF, behavior.seed, behavior.alpha)
            if cls is b.RotatingTargets:
                return self._add(B_ROTATING)
            raise ProgramError(f"target behaviour {cls.__name__} has no node kind")

        return self._memo(behavior, build)

    def table(self) -> array:
        """The node columns as one ``int64`` array (seeds and ``f`` as bits)."""
        kind, seed, f, a, b, c = self.columns
        try:
            table = array("q", kind)
            table.frombytes(array("Q", seed).tobytes())
            table.frombytes(array("d", f).tobytes())
            for column in (a, b, c):
                table.extend(column)
        except OverflowError:
            raise ProgramError("a behaviour parameter is outside int64") from None
        return table


def flatten(blocks: list[BasicBlock]) -> tuple[array, bytes, array, array]:
    """The buffers of ``blocks`` (sorted, with one op byte per instruction),
    in :class:`~repro.workloads.tables.Columns` order and not yet checked.

    Raises :class:`~repro.common.errors.ProgramError` for a branch
    behaviour with no node kind, or a value outside int64.
    """
    # The behaviour classes load with a program built from blocks (or with
    # a view, in _behaviours), never for a run over stored columns.
    from repro.workloads import behavior as behaviors

    n = len(blocks)
    kind, target, behavior = [-1] * n, [0] * n, [-1] * n
    targets_off, targets_n = [0] * n, [0] * n
    targets: list[int] = []
    nodes = _Nodes(behaviors)
    for i, block in enumerate(blocks):
        branch = block.branch
        if branch is None:
            continue
        kind[i] = int(branch.kind)
        target[i] = branch.target
        if branch.kind == BranchKind.COND:
            behavior[i] = nodes.direction(branch.direction)
        elif branch.kind.is_indirect:
            behavior[i] = nodes.selector(branch.target_behavior)
            targets_off[i] = len(targets)
            targets_n[i] = len(branch.targets)
            targets.extend(branch.targets)
    try:
        table = array("q", [b.addr for b in blocks])
        for column in ([b.num_instrs for b in blocks], kind, target, behavior, targets_off, targets_n):
            table.extend(column)
        targets_table = array("q", targets)
    except OverflowError:
        raise ProgramError("a block address or branch target is outside int64") from None
    ops = b"".join(block.ops for block in blocks)
    return table, ops, nodes.table(), targets_table


# -- unflatten: columns -> the object view ----------------------------------------


def unflatten(program: Program) -> list[BasicBlock]:
    """``program``'s :class:`BasicBlock` view, built from its columns.

    One block per column entry, in address order with its ``index``; one
    :class:`Branch` per branch; one behaviour object per node, shared by
    the branches that share it.  A block's ``ops`` are its slice of the op
    bytes.  Built with the cyclic GC paused: none of the tens of thousands
    of objects is garbage, and the collector would scan them several times
    over while they are built.
    """
    columns = program.columns
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        behaviours = _behaviours(columns)
        ops, targets = columns.ops, columns.targets.tolist()
        kinds = tuple(BranchKind)  # indexed by value
        blocks: list[BasicBlock] = []
        append = blocks.append
        offset = 0
        rows = zip(*(getattr(columns, name).tolist() for name in BLOCK_COLUMNS))
        for index, (start, count, kind, target, node, first, n) in enumerate(rows):
            branch = None
            if kind >= 0:
                pc = start + (count - 1) * INSTR_BYTES
                if kind == _COND:
                    branch = Branch(pc, kinds[kind], target, behaviours[node])
                elif kind in _INDIRECT:
                    branch = Branch(
                        pc, kinds[kind], target, None,
                        tuple(targets[first:first + n]), behaviours[node],
                    )
                else:
                    branch = Branch(pc, kinds[kind], target)
            append(BasicBlock(start, count, branch, ops[offset:offset + count], index))
            offset += count
        return blocks
    finally:
        if gc_was_enabled:
            gc.enable()


def _behaviours(columns: Columns) -> list:
    """One behaviour object per node; a phased node's children come first."""
    from repro.workloads import behavior as behaviors

    built: list = []
    for kind, seed, f, a, b, c in zip(*(getattr(columns, name).tolist() for name in NODE_COLUMNS)):
        if kind == B_ALWAYS:
            behaviour = behaviors.AlwaysTaken()
        elif kind == B_BIASED:
            behaviour = behaviors.BiasedBehavior(seed, f)
        elif kind == B_LOOP:
            behaviour = behaviors.LoopBehavior(a)
        elif kind == B_PATTERN:
            behaviour = behaviors.PatternBehavior(seed, a, b, f)
        elif kind == B_PHASED:
            behaviour = behaviors.PhasedBehavior(built[b], built[c], a)
        elif kind == B_FIXED:
            behaviour = behaviors.FixedTarget(a)
        elif kind == B_WEIGHTED:
            behaviour = behaviors.WeightedTargets(seed, f)
        elif kind == B_ZIPF:
            behaviour = behaviors.ZipfTargets(seed, f)
        else:
            behaviour = behaviors.RotatingTargets()
        built.append(behaviour)
    return built
