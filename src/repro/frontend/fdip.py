"""FDIP: the fetch-directed instruction prefetch engine.

Scans the FTQ ahead of the fetch stage (up to ``fdip_lookups_per_cycle``
blocks per cycle), probing the L1I for each fetch block's line.  A block
whose line is neither resident nor in flight is a **prefetch candidate**
(the paper's definition).  Candidates pass through an optional
:class:`PrefetchGate` — the baseline emits unconditionally; UDP gates
candidates believed to be off-path through its learned useful-set and may
expand a hit into a 2- or 4-line super-block.

Every emitted prefetch allocates an L1I MSHR entry tagged with the
*ground-truth* path of the emitting fetch block (for the paper's on/off-path
statistics) and with UDP's *assumed* path (for useful-set training).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.common.config import FrontendConfig
from repro.common.counters import Counters
from repro.frontend.compiled import FDIP_COUNTERS
from repro.frontend.fetch_block import FTQEntry
from repro.frontend.ftq import FetchTargetQueue

if TYPE_CHECKING:
    from repro.memory.cache import SetAssocCache
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.memory.mshr import MSHRFile


class PrefetchGate(Protocol):
    """Per-candidate admission policy (UDP implements this)."""

    def evaluate(self, line_addr: int, entry: FTQEntry) -> list[int]:
        """Line addresses to emit for this candidate (may be empty)."""
        ...


class FDIPEngine:
    """The FTQ scan loop issuing instruction prefetches."""

    def __init__(
        self,
        config: FrontendConfig,
        ftq: FetchTargetQueue,
        l1i: SetAssocCache,
        mshr: MSHRFile,
        hierarchy: MemoryHierarchy,
        counters: Counters,
        gate: PrefetchGate | None = None,
        enabled: bool = True,
    ) -> None:
        self.config = config
        self.ftq = ftq
        self.l1i = l1i
        self.mshr = mshr
        self.hierarchy = hierarchy
        self.counters = counters
        self.gate = gate
        self.enabled = enabled
        self.next_scan_seq = 0
        # Interned fast-path counter slots (see Counters.incrementer).
        (
            self._c_probe_resident,
            self._c_probe_inflight,
            self._c_candidates,
            self._c_candidates_on,
            self._c_candidates_off,
            self._c_emitted,
            self._c_emitted_on,
            self._c_emitted_off,
        ) = map(counters.incrementer, FDIP_COUNTERS)

    def reset_scan(self, next_seq: int) -> None:
        """Re-arm the scan pointer after a flush/resteer."""
        self.next_scan_seq = next_seq

    def scan(self, cycle: int) -> None:
        """One cycle of FTQ scanning."""
        if not self.enabled or self.config.perfect_icache:
            return
        ftq = self.ftq
        head = ftq.head()
        if head is None:
            return
        head_seq = head.seq
        if self.next_scan_seq < head_seq:
            self.next_scan_seq = head_seq
        for _ in range(self.config.fdip_lookups_per_cycle):
            entry = ftq.entry_at(self.next_scan_seq - head_seq)
            if entry is None:
                return
            self.next_scan_seq += 1
            self._consider(entry, cycle)

    # -- candidate handling ------------------------------------------------

    def _consider(self, entry: FTQEntry, cycle: int) -> None:
        line_addr = entry.line_addr
        if self.l1i.contains(line_addr):
            self._c_probe_resident()
            return
        if self.mshr.lookup(line_addr) is not None:
            self._c_probe_inflight()
            return
        self._c_candidates()
        if entry.on_path:
            self._c_candidates_on()
        else:
            self._c_candidates_off()

        if self.gate is not None:
            lines = self.gate.evaluate(line_addr, entry)
            if not lines:
                self.counters.bump("fdip_gated_drops")
                return
        else:
            lines = [line_addr]

        for prefetch_line in lines:
            self._emit(prefetch_line, entry, cycle)

    def _emit(self, line_addr: int, entry: FTQEntry, cycle: int) -> None:
        if self.l1i.contains(line_addr) or self.mshr.lookup(line_addr) is not None:
            return
        if self.mshr.full:
            self.counters.bump("fdip_drop_mshr_full")
            return
        latency, level = self.hierarchy.instruction_miss_latency(line_addr)
        self.mshr.allocate(
            line_addr,
            ready_cycle=cycle + latency,
            is_prefetch=True,
            off_path=not entry.on_path,
            udp_candidate=entry.assumed_off_path,
            fill_level=level,
        )
        self._c_emitted()
        if entry.on_path:
            self._c_emitted_on()
        else:
            self._c_emitted_off()
        self.counters.bump(f"prefetch_fill_{level}")
