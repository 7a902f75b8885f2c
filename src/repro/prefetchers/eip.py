"""EIP: a storage-bounded Entangled Instruction Prefetcher comparator.

Fig 13 of the paper compares UDP against EIP at an ISO-storage budget of
8 KB, observing that EIP underperforms for two reasons our implementation
reproduces:

1. **Metadata starvation** — EIP associates ("entangles") a *source* line
   with the *destination* lines whose misses it should cover.  Large code
   footprints need 100KB+ of entangling metadata; at 8 KB the table thrashes.
2. **Path obliviousness** — EIP trains on every L1I access, including
   wrong-path ones, wasting its scarce entries on candidates that are never
   demanded on the true path.  (``wrong_path_aware=True`` enables the
   ablation that filters training to on-path accesses.)

Mechanism (following Ros & Jimborean's design, simplified): a FIFO of
recently demand-accessed lines provides, for each miss, the line accessed
``entangling_distance`` accesses earlier — far enough back that a prefetch
triggered from it would have hidden the miss latency.  That earlier line
becomes the miss's *entangler*; future accesses to it prefetch the miss
line(s).

This class is the object oracle: a compiled simulator runs its twin,
:class:`repro.prefetchers.compiled.EIPC`, inside the cycle driver.  Its
params class lives in the registry, so a config names it without importing
this module, and its sizing beside the twin.
"""

from __future__ import annotations

from collections import OrderedDict, deque

from repro.prefetchers.base import FrontendHooks, InstructionPrefetcher
from repro.prefetchers.compiled import EIP_BYTES_PER_ENTRY, eip_capacity
from repro.prefetchers.registry import EIPParams
from repro.workloads.program import Program


def build_eip(
    params: EIPParams, program: Program, hooks: FrontendHooks
) -> "EntangledInstructionPrefetcher":
    """Registry factory for the EIP comparator."""
    return EntangledInstructionPrefetcher(
        storage_bytes=params.storage_bytes,
        targets_per_entry=params.targets_per_entry,
        entangling_distance=params.entangling_distance,
        wrong_path_aware=params.wrong_path_aware,
    )


class EntangledInstructionPrefetcher(InstructionPrefetcher):
    """Entangling table bounded to a storage budget."""

    name = "eip"

    def __init__(
        self,
        storage_bytes: int = 8 * 1024,
        targets_per_entry: int = 2,
        entangling_distance: int = 8,
        wrong_path_aware: bool = False,
    ) -> None:
        self.storage = storage_bytes
        self.targets_per_entry = targets_per_entry
        self.entangling_distance = entangling_distance
        self.wrong_path_aware = wrong_path_aware
        self.capacity = eip_capacity(storage_bytes)
        # source line -> list of destination lines (LRU ordered dict).
        self._table: OrderedDict[int, list[int]] = OrderedDict()
        self._recent: deque[int] = deque(maxlen=entangling_distance + 1)
        self.trained = 0
        self.triggered = 0

    def storage_bytes(self) -> int:
        return self.capacity * EIP_BYTES_PER_ENTRY

    def state(self) -> dict:
        """The tables, layout-neutral: entries LRU->MRU, each destination
        list oldest first, the recent-line FIFO oldest first, and the counts."""
        return {
            "table": [(source, tuple(targets)) for source, targets in self._table.items()],
            "recent": list(self._recent),
            "trained": self.trained,
            "triggered": self.triggered,
        }

    def on_demand_access(self, line_addr: int, hit: bool, on_path: bool) -> list[int]:
        if self.wrong_path_aware and not on_path:
            # Ablation: ignore wrong-path traffic entirely.
            return []
        prefetches = self._trigger(line_addr)
        if not hit:
            self._train(line_addr)
        self._recent.append(line_addr)
        return prefetches

    # -- operation -------------------------------------------------------------

    def _trigger(self, line_addr: int) -> list[int]:
        targets = self._table.get(line_addr)
        if targets is None:
            return []
        self._table.move_to_end(line_addr)
        self.triggered += len(targets)
        return list(targets)

    # -- training ----------------------------------------------------------------

    def _train(self, miss_line: int) -> None:
        if len(self._recent) <= self.entangling_distance:
            return
        source = self._recent[0]
        if source == miss_line:
            return
        targets = self._table.get(source)
        if targets is None:
            if len(self._table) >= self.capacity:
                self._table.popitem(last=False)
            self._table[source] = [miss_line]
        else:
            if miss_line not in targets:
                if len(targets) >= self.targets_per_entry:
                    targets.pop(0)
                targets.append(miss_line)
            self._table.move_to_end(source)
        self.trained += 1

    @property
    def table_occupancy(self) -> int:
        return len(self._table)
