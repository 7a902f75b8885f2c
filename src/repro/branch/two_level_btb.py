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
``BranchConfig.btb_levels = 2``.  With ``compiled`` both levels are
:class:`~repro.branch.compiled.BranchTargetBufferC` arrays, which the compiled
cycle driver probes as one L1 descriptor plus one L2 (``btb_probe`` in
``repro/common/kernels/driver.c``); there only :meth:`fill`,
:meth:`contains` and the state protocol run in Python.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.branch.unit import btb_class
from repro.workloads.program import BranchKind

if TYPE_CHECKING:
    from repro.branch.btb import BTBEntry


class TwoLevelBTB:
    """Small L1 BTB backed by a large, slower L2 BTB."""

    def __init__(
        self,
        l1_entries: int = 1024,
        l1_assoc: int = 4,
        l2_entries: int = 8192,
        l2_assoc: int = 8,
        compiled: bool = False,
    ) -> None:
        cls = btb_class(compiled)
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

    def state(self) -> dict:
        """Packed snapshot: both levels plus the promotion count."""
        return {
            "levels": 2,
            "l1": self.l1.state(),
            "l2": self.l2.state(),
            "promotions": self.promotions,
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state` output in place, level by level (each
        validated before it loads)."""
        if state.get("levels") != 2:
            raise ValueError("BTB level mismatch")
        promotions = int(state["promotions"])
        self.l1.load_state(state["l1"])
        self.l2.load_state(state["l2"])
        self.promotions = promotions

    def copy_from(self, other: "TwoLevelBTB") -> None:
        """Take ``other``'s levels and promotion count, in place."""
        self.l1.copy_from(other.l1)
        self.l2.copy_from(other.l2)
        self.promotions = other.promotions

    @property
    def l2_coverage(self) -> float:
        """Fraction of L1 misses the L2 could have served."""
        probes = self.l2.hits + self.l2.misses
        return self.l2.hits / probes if probes else 0.0
