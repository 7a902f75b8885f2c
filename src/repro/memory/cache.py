"""Set-associative cache with per-line prefetch metadata.

The L1 instruction cache carries a *prefetch bit* per line (set when a
prefetched line is installed, cleared on the first demand hit) plus the
path tag of the emitting prefetch — the bookkeeping both UFTQ (utility
ratio measurement) and UDP (useful-set training) rely on.  The paper notes
most architectures already implement these bits, so they are not counted as
technique-specific overhead.

Timing lives in :mod:`repro.memory.hierarchy`; this class models contents
and replacement only.

Replacement is true LRU, kept *intrusively* in each set's dict: Python
dicts preserve insertion order, so a touch re-inserts the line at the end
and the victim is always the first key — O(1) instead of the old
O(assoc) ``min()`` scan over timestamps on every install.  The compiled
cycle driver's twin is :class:`~repro.memory.compiled.SetAssocCacheC`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import islice
from typing import Callable

from repro.common.addr import LINE_BYTES
from repro.common.config import CacheConfig
from repro.common.packed import Stateful, unpack
from repro.memory.compiled import CACHE_PLANES


@dataclass(slots=True)
class CacheLine:
    """Metadata for one resident line."""

    line_addr: int
    prefetch_bit: bool = False
    prefetch_off_path: bool = False  # path tag of the emitting prefetch
    prefetch_udp_candidate: bool = False  # emitted under UDP's off-path belief
    dirty: bool = False


class SetAssocCache(Stateful):
    """A set-associative cache with true-LRU replacement."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        self.line_shift = LINE_BYTES.bit_length() - 1
        self._set_mask = self.num_sets - 1
        # Each set is a dict ordered LRU -> MRU (insertion order).
        self._sets: list[dict[int, CacheLine]] = [dict() for _ in range(self.num_sets)]
        # Called with the victim CacheLine on every eviction (utility tracking).
        self.eviction_hook: Callable[[CacheLine], None] | None = None

    def lookup(self, line_addr: int, touch: bool = True) -> CacheLine | None:
        """Return the resident line or None; refreshes LRU when ``touch``."""
        way_set = self._sets[(line_addr >> self.line_shift) & self._set_mask]
        line = way_set.get(line_addr)
        if line is not None and touch:
            # Move to MRU position (end of the insertion order).
            del way_set[line_addr]
            way_set[line_addr] = line
        return line

    def contains(self, line_addr: int) -> bool:
        """Presence check that does not perturb LRU."""
        return line_addr in self._sets[(line_addr >> self.line_shift) & self._set_mask]

    def install(
        self,
        line_addr: int,
        prefetch: bool = False,
        prefetch_off_path: bool = False,
        prefetch_udp_candidate: bool = False,
        dirty: bool = False,
    ) -> CacheLine:
        """Install a line, evicting LRU if the set is full.

        Re-installing a resident line refreshes it in place (and never marks
        a demand-fetched line back as prefetched).
        """
        way_set = self._sets[(line_addr >> self.line_shift) & self._set_mask]
        line = way_set.get(line_addr)
        if line is not None:
            del way_set[line_addr]
            way_set[line_addr] = line
            line.dirty = line.dirty or dirty
            return line
        if len(way_set) >= self.assoc:
            victim_addr = next(iter(way_set))
            victim = way_set.pop(victim_addr)
            if self.eviction_hook is not None:
                self.eviction_hook(victim)
        line = CacheLine(
            line_addr,
            prefetch_bit=prefetch,
            prefetch_off_path=prefetch_off_path,
            prefetch_udp_candidate=prefetch_udp_candidate,
            dirty=dirty,
        )
        way_set[line_addr] = line
        return line

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line (no eviction hook); True if it was resident."""
        way_set = self._sets[(line_addr >> self.line_shift) & self._set_mask]
        return way_set.pop(line_addr, None) is not None

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def resident_lines(self) -> list[int]:
        """All resident line addresses (test/diagnostic helper)."""
        out: list[int] = []
        for way_set in self._sets:
            out.extend(way_set.keys())
        return out

    # -- state protocol (repro.common.packed) --------------------------------

    def state(self) -> dict[str, bytes]:
        """Contents as three packed arrays (the checkpoint wire form).

        A ``uint16`` line count per set, then the ``int64`` address and
        ``uint8`` metadata flags of every resident line, set-major and
        LRU->MRU within its set (:mod:`repro.common.packed`).
        """
        lines = [line for way_set in self._sets for line in way_set.values()]
        return {
            "counts": array("H", [len(way_set) for way_set in self._sets]).tobytes(),
            "addrs": array("q", [line.line_addr for line in lines]).tobytes(),
            "flags": bytes(
                (_PREFETCH if line.prefetch_bit else 0)
                | (_OFF_PATH if line.prefetch_off_path else 0)
                | (_UDP if line.prefetch_udp_candidate else 0)
                | (_DIRTY if line.dirty else 0)
                for line in lines
            ),
        }

    def load_state(self, state: dict[str, bytes]) -> None:
        """Restore :meth:`state` output in place (validated first)."""
        counts, (addrs, flags) = unpack(
            state, CACHE_PLANES, self.num_sets, self.assoc, "cache"
        )
        lines = zip(addrs.tolist(), flags.tolist())
        for way_set, n in zip(self._sets, counts.tolist()):
            way_set.clear()
            for addr, flag in islice(lines, n):
                way_set[addr] = CacheLine(
                    addr,
                    prefetch_bit=bool(flag & _PREFETCH),
                    prefetch_off_path=bool(flag & _OFF_PATH),
                    prefetch_udp_candidate=bool(flag & _UDP),
                    dirty=bool(flag & _DIRTY),
                )


# Bit positions of the packed per-line metadata (checkpoint flags buffer
# and the compiled cache's flags, FLAG_* in kernels.h).
_PREFETCH = 1
_OFF_PATH = 2
_UDP = 4
_DIRTY = 8
