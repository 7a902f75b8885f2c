"""MANA: a spatial-region instruction prefetcher comparator (Ansari et al.).

MANA (arXiv 2102.01764) records the instruction stream as a chain of
*spatial regions*: each record holds a trigger cache line, a footprint
bit-vector naming which of the next few lines the stream touched while it
stayed inside the region, and a pointer to the successor record (the
trigger the stream moved to next).  A demand access to a trigger line
replays the chain — the record's footprint plus ``lookahead_records``
successor records — far enough ahead to hide fill latency.

Two storage tricks from the paper are modelled:

1. **Footprint compression** — successor lines are stored as single bits
   relative to the trigger, not full addresses, so one record covers a
   whole region for a few bytes.
2. **HOBPT (high-order-bits pattern table)** — trigger tags store only low
   bits plus an index into a small table of shared high-order bit
   patterns.  We model the *capacity pressure* of that table: when a
   high-order pattern is evicted (LRU), every record pointing at it
   becomes unreadable and is dropped.

Like EIP, the table is bounded to a storage budget and trains on the raw
demand stream (wrong-path included) — MANA is path-oblivious hardware.
All state lives in ``OrderedDict``s, so behaviour is deterministic.

This class is the object oracle: a compiled simulator runs its twin,
:class:`repro.prefetchers.compiled.MANAC`, inside the cycle driver.  Its
params class lives in the registry, so a config names it without
importing this module, and its record sizing beside the twin.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.common.addr import LINE_BYTES
from repro.prefetchers.base import FrontendHooks, InstructionPrefetcher
from repro.prefetchers.compiled import mana_capacity, mana_record_bytes
from repro.prefetchers.registry import MANAParams
from repro.workloads.program import Program


class MANAPrefetcher(InstructionPrefetcher):
    """Spatial-region record table bounded to a storage budget."""

    name = "mana"

    def __init__(self, params: MANAParams, counters=None) -> None:
        self.params = params
        self._counters = counters
        self._record_bytes = mana_record_bytes(params)
        self.capacity = mana_capacity(params)
        # trigger line -> [footprint bit-vector, successor trigger | None]
        self._records: OrderedDict[int, list] = OrderedDict()
        # high-order pattern -> None (LRU order only)
        self._hob: OrderedDict[int, None] = OrderedDict()
        self._cur_trigger: int | None = None
        self._cur_footprint = 0
        self.trained = 0
        self.triggered = 0
        self.hob_evictions = 0

    def storage_bytes(self) -> int:
        return self.capacity * self._record_bytes

    @property
    def table_occupancy(self) -> int:
        return len(self._records)

    def state(self) -> dict:
        """The tables, layout-neutral: records LRU->MRU as (trigger,
        footprint, successor), the HOBPT's patterns LRU->MRU, the open
        region (trigger, footprint) and the counts."""
        return {
            "records": [(trigger, *record) for trigger, record in self._records.items()],
            "hob": list(self._hob),
            "region": (self._cur_trigger, self._cur_footprint),
            "trained": self.trained,
            "triggered": self.triggered,
            "hob_evictions": self.hob_evictions,
        }

    def on_demand_access(self, line_addr: int, hit: bool, on_path: bool) -> list[int]:
        prefetches = self._replay(line_addr)
        self._observe(line_addr)
        return prefetches

    # -- replay (trigger) --------------------------------------------------------

    def _replay(self, line_addr: int) -> list[int]:
        """Follow the record chain starting at ``line_addr``, if one exists."""
        record = self._records.get(line_addr)
        if record is None:
            return []
        out: list[int] = []
        seen: set[int] = set()
        trigger = line_addr
        region_span = self.params.region_lines - 1
        for _ in range(self.params.lookahead_records):
            self._records.move_to_end(trigger)
            footprint, successor = record
            for i in range(region_span):
                if footprint >> i & 1:
                    line = trigger + LINE_BYTES * (i + 1)
                    if line not in seen:
                        seen.add(line)
                        out.append(line)
            if successor is None:
                break
            if successor not in seen:
                seen.add(successor)
                out.append(successor)
            record = self._records.get(successor)
            if record is None:
                break
            trigger = successor
        self.triggered += len(out)
        if out and self._counters is not None:
            self._counters.bump("mana_replayed_lines", len(out))
        return out

    # -- training ----------------------------------------------------------------

    def _observe(self, line_addr: int) -> None:
        """Track the current spatial region; finalize it when the stream leaves."""
        trigger = self._cur_trigger
        if trigger is not None:
            offset = (line_addr - trigger) // LINE_BYTES
            if 0 <= offset < self.params.region_lines:
                if offset > 0:
                    self._cur_footprint |= 1 << (offset - 1)
                return
            self._commit(trigger, self._cur_footprint, successor=line_addr)
        self._cur_trigger = line_addr
        self._cur_footprint = 0

    def _commit(self, trigger: int, footprint: int, successor: int) -> None:
        """Insert/merge one finished region record and chain its successor."""
        record = self._records.get(trigger)
        if record is None:
            while len(self._records) >= self.capacity:
                self._records.popitem(last=False)
            self._records[trigger] = [footprint, successor]
        else:
            record[0] |= footprint
            record[1] = successor
            self._records.move_to_end(trigger)
        self._touch_hob(trigger)
        self.trained += 1
        if self._counters is not None:
            self._counters.bump("mana_records_trained")

    def _touch_hob(self, trigger: int) -> None:
        """LRU-touch the trigger's high-order pattern; evictions drop records."""
        pattern = trigger >> self.params.hob_shift
        if pattern in self._hob:
            self._hob.move_to_end(pattern)
            return
        self._hob[pattern] = None
        if len(self._hob) <= self.params.hob_entries:
            return
        victim, _ = self._hob.popitem(last=False)
        self.hob_evictions += 1
        shift = self.params.hob_shift
        dead = [t for t in self._records if t >> shift == victim]
        for t in dead:
            del self._records[t]


def build_mana(
    params: MANAParams, program: Program, hooks: FrontendHooks
) -> MANAPrefetcher:
    """Registry factory for the MANA comparator."""
    return MANAPrefetcher(params, counters=hooks.counters)
