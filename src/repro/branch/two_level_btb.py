"""Two-level (hierarchical) BTB — a related-work comparator.

The paper's related work covers a line of BTB-capacity research (Kobayashi's
2-level BTB, PDede, Confluence).  This module implements the classic
2-level organization: a small, fast L1 BTB probed by the FTQ-generation
walker, backed by a large L2 BTB whose hits *promote* the entry into L1 but
do not satisfy the probing access itself — on the probe cycle the branch is
still undetected, so the frontend pays one divergence and finds the entry
present the next time around.  This reproduces the key trade-off: a 2-level
design approaches big-BTB hit rates at small-BTB latency/area, at the cost
of first-touch resteers.

Drop-in compatible with :class:`~repro.branch.btb.BranchTargetBuffer`
(``probe`` / ``fill`` / ``contains`` / ``occupancy``); select it with
``BranchConfig.btb_levels = 2``.
"""

from __future__ import annotations

from repro.branch.btb import BranchTargetBuffer, BranchTargetBufferC, BTBEntry
from repro.common.cc import resolve_compiled
from repro.workloads.program import BranchKind


class TwoLevelBTB:
    """Small L1 BTB backed by a large, slower L2 BTB."""

    def __init__(
        self,
        l1_entries: int = 1024,
        l1_assoc: int = 4,
        l2_entries: int = 8192,
        l2_assoc: int = 8,
        compiled: bool | None = None,
    ) -> None:
        cls = BranchTargetBufferC if resolve_compiled(compiled) else BranchTargetBuffer
        self.l1 = cls(l1_entries, l1_assoc)
        self.l2 = cls(l2_entries, l2_assoc)
        self.promotions = 0

    # -- BranchTargetBuffer protocol ----------------------------------------

    def probe(self, pc: int) -> BTBEntry | None:
        """L1 probe; an L2 hit promotes but misses *this* access."""
        entry = self.l1.probe(pc)
        if entry is not None:
            return entry
        l2_entry = self.l2.probe(pc)
        if l2_entry is not None:
            # Promote for future probes; the current one still misses
            # (the L2 access takes extra cycles the walker cannot wait for).
            self.l1.fill(pc, l2_entry.kind, l2_entry.target)
            self.promotions += 1
        return None

    def contains(self, pc: int) -> bool:
        return self.l1.contains(pc) or self.l2.contains(pc)

    def fill(self, pc: int, kind: BranchKind, target: int) -> None:
        """Fills install into both levels (L2 is inclusive)."""
        self.l1.fill(pc, kind, target)
        self.l2.fill(pc, kind, target)

    @property
    def occupancy(self) -> int:
        return self.l2.occupancy

    @property
    def hits(self) -> int:
        return self.l1.hits

    @property
    def misses(self) -> int:
        return self.l1.misses

    def state_dict(self) -> dict:
        """Layout-neutral snapshot: both levels plus the promotion count."""
        return {
            "levels": 2,
            "l1": self.l1.state_dict(),
            "l2": self.l2.state_dict(),
            "promotions": self.promotions,
        }

    def load_state(self, state: dict) -> None:
        if state.get("levels") != 2:
            raise ValueError("BTB level mismatch")
        self.l1.load_state(state["l1"])
        self.l2.load_state(state["l2"])
        self.promotions = state["promotions"]

    @property
    def l2_coverage(self) -> float:
        """Fraction of L1 misses the L2 could have served."""
        probes = self.l2.hits + self.l2.misses
        return self.l2.hits / probes if probes else 0.0
