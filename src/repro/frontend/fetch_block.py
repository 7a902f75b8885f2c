"""FTQ entry types: fetch blocks, seen branches, pending resteers.

An :class:`FTQEntry` is one *fetch block* — a contiguous instruction range
inside a single 32-byte aligned region, terminated early by a predicted-taken
branch.  Entries carry:

* the instruction payload (compact per-instruction op kinds, so the
  decode/dispatch stage never has to re-walk the program),
* every static branch the walker passed (with whether the BTB detected it
  and what was predicted),
* ground-truth path tags (``on_path`` / ``on_path_instrs``) used for
  statistics and squash bookkeeping,
* UDP's *assumed* path tag (``assumed_off_path``) used for prefetch gating,
* an optional :class:`PendingResteer` when this entry contains the first
  diverging branch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.addr import INSTR_BYTES, line_of
from repro.workloads.blocks import Branch
from repro.workloads.program import BranchKind

RESTEER_AT_DECODE = "decode"
RESTEER_AT_EXECUTE = "execute"


@dataclass(slots=True)
class PendingResteer:
    """A detected divergence waiting for its resolution point.

    Created by the walker the moment a prediction disagrees with the oracle;
    fires when the diverging branch reaches ``stage`` ("decode" for
    post-fetch-corrected BTB misses, "execute" for mispredictions), flushing
    the frontend and restoring ``history_state``.
    """

    branch_pc: int
    stage: str
    resume_pc: int
    history_state: tuple
    kind: BranchKind
    true_taken: bool
    cause: str  # "btb_miss" | "cond_mispredict" | "indirect_mispredict" | "ras_mispredict"


@dataclass(slots=True)
class SeenBranch:
    """A static branch the walker passed while building an entry."""

    branch: Branch
    detected: bool  # BTB hit at generation time
    predicted_taken: bool
    predicted_target: int = 0
    # The TAGE prediction object for detected conditionals (training handle).
    prediction: object | None = None


class FTQEntry:
    """One fetch block in the fetch target queue.

    A hand-written ``__slots__`` class rather than a dataclass: the walker
    constructs one per generated fetch block, which makes ``__init__`` a hot
    leaf (a dataclass would add ``__post_init__``/property dispatch on top).
    """

    __slots__ = (
        "seq",
        "start",
        "end",
        "on_path",
        "ops",
        "branches",
        "resteer",
        "on_path_instrs",
        "assumed_off_path",
        "ready_cycle",
        "decode_offset",
        "line_addr",
    )

    def __init__(
        self,
        seq: int,
        start: int,
        end: int,  # one past the last instruction byte
        on_path: bool,
        ops: bytes = b"",
        branches: list[SeenBranch] | None = None,
        resteer: PendingResteer | None = None,
        on_path_instrs: int = -1,
        assumed_off_path: bool = False,
        ready_cycle: int = -1,
        decode_offset: int = 0,
    ) -> None:
        self.seq = seq
        self.start = start
        self.end = end
        self.on_path = on_path
        self.ops = ops
        self.branches = [] if branches is None else branches
        # Set when this entry contains the first diverging branch.
        self.resteer = resteer
        # Instructions considered on-path (up to and including a diverging
        # branch); equals num_instrs when no divergence occurs inside.
        self.on_path_instrs = (
            on_path_instrs if on_path_instrs >= 0 else (end - start) // INSTR_BYTES
        )
        # UDP's belief at generation time that the frontend is off-path.
        self.assumed_off_path = assumed_off_path
        # Fetch-stage state: -1 = not yet accessed, otherwise the cycle the
        # icache line becomes consumable.
        self.ready_cycle = ready_cycle
        # Decode progress: next instruction offset to dispatch.
        self.decode_offset = decode_offset
        # The single icache line this fetch block resides in.  Precomputed
        # from ``start`` (immutable after construction), so the fetch/FDIP
        # hot paths never recompute the masked address.
        self.line_addr = line_of(start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FTQEntry(seq={self.seq}, start={self.start:#x}, end={self.end:#x}, "
            f"on_path={self.on_path}, ready_cycle={self.ready_cycle})"
        )

    @property
    def num_instrs(self) -> int:
        return (self.end - self.start) // INSTR_BYTES

    def pc_at(self, offset: int) -> int:
        """PC of the ``offset``-th instruction in the entry."""
        return self.start + offset * INSTR_BYTES

    def branch_at(self, pc: int) -> SeenBranch | None:
        """The seen-branch record whose instruction sits at ``pc``."""
        for seen in self.branches:
            if seen.branch.pc == pc:
                return seen
        return None

    def instr_on_path(self, offset: int) -> bool:
        """Ground-truth path of the ``offset``-th instruction."""
        return self.on_path and offset < self.on_path_instrs
