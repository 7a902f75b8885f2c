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

A :class:`Program` holds its ground truth as flat columns
(:class:`repro.workloads.tables.Columns`): the arrays the compiled cycle
driver reads and the program store pickles.  ``BasicBlock``, ``Branch``
and the behaviour objects are a view of them (:mod:`repro.workloads.blocks`,
whose two classes this module resolves on first use), which a program
built from blocks keeps and a stored program builds the first time Python
walks it (:attr:`Program.blocks`).  The counts, the region and the
block-start test read the columns directly.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from enum import IntEnum
from functools import cached_property
from typing import TYPE_CHECKING

from repro._lazy import exports as _exports
from repro.common.addr import INSTR_BYTES
from repro.common.errors import ProgramError

if TYPE_CHECKING:  # the block view loads only where Python walks a program
    from repro.workloads.blocks import BasicBlock, Branch

__getattr__, __dir__ = _exports(__name__, ("repro.workloads.blocks", ("BasicBlock", "Branch")))[1:]

# Per-instruction operation kinds, stored as one byte each in the
# program's op bytes (and ``BasicBlock.ops``) to keep large programs compact.
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


class Program:
    """An immutable synthetic program: contiguous, address-sorted basic blocks.

    Blocks must tile the code region exactly (each block starts where the
    previous one ends) so that sequential "walking off" a block — which is
    what the frontend does after an undetected BTB miss — always lands in a
    defined block.  Walking past the final block wraps to ``code_start``
    (documented model simplification; synthesized programs end in an
    unconditional backward jump so the wrap is never exercised on-path).

    Built from blocks, a program checks each block for what the columns
    cannot show (``BasicBlock.validate``), keeps the blocks as its view
    and flattens them into :attr:`columns`, which then pass the same check
    as a stored program's (:func:`repro.workloads.tables.checked_columns`,
    in C wherever the kernels build: building or loading a program builds
    them in a process that has not yet); any failure is a
    :class:`~repro.common.errors.ProgramError`.  :meth:`from_state` builds
    one from stored columns, checked first.
    """

    def __init__(self, blocks: list[BasicBlock], entry: int | None = None) -> None:
        from repro.workloads.blocks import flatten  # both import this module
        from repro.workloads.tables import checked_columns

        if not blocks:
            raise ProgramError("a program needs at least one block")
        blocks = sorted(blocks, key=lambda b: b.addr)
        for i, block in enumerate(blocks):
            block.validate()
            block.index = i
            if not block.ops:
                block.ops = bytes(block.num_instrs)  # all ALU, one byte each like the columns
        entry = blocks[0].addr if entry is None else entry
        buffers = flatten(blocks)
        try:
            self._adopt(entry, checked_columns(entry, *buffers))
        except ValueError as exc:
            raise ProgramError(str(exc)) from None
        self.blocks = blocks

    @classmethod
    def from_state(cls, state: tuple) -> "Program":
        """The program :meth:`state` describes; :class:`ValueError` unless
        its columns pass :func:`repro.workloads.tables.checked_columns`."""
        from repro.workloads.tables import checked_columns

        entry, *buffers = state
        program = cls.__new__(cls)
        program._adopt(entry, checked_columns(entry, *buffers))
        return program

    def _adopt(self, entry: int, columns) -> None:
        self.columns = columns
        self.code_start = columns.addr[0]
        self.code_end = columns.addr[-1] + columns.ninstr[-1] * INSTR_BYTES
        self.entry = entry

    def state(self) -> tuple:
        """The entry and the column buffers: what the program store keeps."""
        return (self.entry, *self.columns.state())

    def __reduce__(self):
        return Program.from_state, (self.state(),)

    @cached_property
    def blocks(self) -> list[BasicBlock]:
        """The object view, built from the columns on first use
        (:func:`repro.workloads.blocks.unflatten`)."""
        from repro.workloads.blocks import unflatten

        return unflatten(self)

    @cached_property
    def _starts(self) -> list[int]:
        return self.columns.addr.tolist()

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

    def is_block_start(self, addr: int) -> bool:
        """True if a block starts at ``addr`` (read from the columns)."""
        starts = self.columns.addr
        i = bisect_right(starts, addr) - 1
        return i >= 0 and starts[i] == addr

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
        return self.columns.n_blocks

    @property
    def footprint_bytes(self) -> int:
        """Total code footprint in bytes."""
        return self.code_end - self.code_start

    @property
    def num_branches(self) -> int:
        return self.num_blocks - self.columns.kind.tolist().count(-1)

    def branch_kind_histogram(self) -> dict[BranchKind, int]:
        """Count of static branches per kind, in order of first occurrence."""
        counts = Counter(self.columns.kind.tolist())
        return {BranchKind(kind): count for kind, count in counts.items() if kind >= 0}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Program(blocks={self.num_blocks}, "
            f"footprint={self.footprint_bytes // 1024}KiB, "
            f"branches={self.num_branches})"
        )
